#!/usr/bin/env python3
"""Unit tests for tools/check_hot_inline.py (run directly or via ctest).

Feeds canned `nm -C --defined-only` output through find_outlined(): global
and weak definitions of a hot function are reported, while the cold check
failure path, lambdas, `.cold` clones, local symbols and same-prefix names
are not.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_hot_inline  # noqa: E402

# Release libvmlp_*.a output with hot functions out of line, plus two
# same-prefix or unlisted names that must not be reported.
OUTLINED_NM = """\

resources.cpp.o:
0000000000000000 T vmlp::cluster::ResourceVector::operator+=(vmlp::cluster::ResourceVector const&)
0000000000000090 T vmlp::cluster::ResourceVector::max(vmlp::cluster::ResourceVector const&) const
0000000000000160 T vmlp::cluster::ResourceVector::fits_within(vmlp::cluster::ResourceVector const&) const
0000000000000330 T vmlp::cluster::ResourceVector::max_ratio_over(vmlp::cluster::ResourceVector const&) const
00000000000001d0 T vmlp::cluster::ResourceVector::to_string[abi:cxx11]() const

self_organizing.cpp.o:
0000000000000000 W vmlp::cluster::Cluster::machine(vmlp::StrongId<vmlp::MachineTag, unsigned int>)
0000000000000000 W vmlp::net::Topology::distance(vmlp::StrongId<vmlp::MachineTag, unsigned int>, vmlp::StrongId<vmlp::MachineTag, unsigned int>) const
"""

# After: only the cold failure path and non-hot symbols remain.
INLINED_NM = """\

cell_topology.cpp.o:
0000000000000000 W void vmlp::detail::check_failed<vmlp::app::Application::service(vmlp::StrongId<vmlp::ServiceTypeTag, unsigned int>) const::{lambda(std::ostream&)#1}>(char const*, char const*, int, vmlp::app::Application::service(vmlp::StrongId<vmlp::ServiceTypeTag, unsigned int>) const::{lambda(std::ostream&)#1} const&)
0000000000000150 t void vmlp::detail::check_failed<vmlp::cluster::Cluster::machine(vmlp::StrongId<vmlp::MachineTag, unsigned int>)::{lambda(std::ostream&)#1}>(char const*, char const*, int, vmlp::cluster::Cluster::machine(vmlp::StrongId<vmlp::MachineTag, unsigned int>)::{lambda(std::ostream&)#1} const&) [clone .isra.0]
0000000000000000 W vmlp::detail::throw_invariant(char const*, char const*, int, std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&)
0000000000000000 u vmlp::audit::detail::g_state
0000000000000100 T vmlp::audit::detail::resolve_default()
0000000000000140 T vmlp::audit::set_enabled(bool)
0000000000000110 T vmlp::cluster::ResourceVector::max_ratio_over(vmlp::cluster::ResourceVector const&) const
0000000000000000 T vmlp::cluster::ResourceVector::is_finite() const
0000000000000020 t vmlp::cluster::Cluster::machine(vmlp::StrongId<vmlp::MachineTag, unsigned int>) [clone .cold]
0000000000000040 W vmlp::cluster::Cluster::machine(vmlp::StrongId<vmlp::MachineTag, unsigned int>) [clone .cold]
"""


class FindOutlinedTest(unittest.TestCase):
    def test_reports_global_and_weak_hot_definitions(self):
        found = check_hot_inline.find_outlined(OUTLINED_NM)
        self.assertEqual([m for m, _ in found],
                         ["resources.cpp.o"] * 3 + ["self_organizing.cpp.o"])
        symbols = [s for _, s in found]
        self.assertTrue(symbols[0].startswith("vmlp::cluster::ResourceVector::operator+=("))
        self.assertTrue(symbols[1].startswith("vmlp::cluster::ResourceVector::max("))
        self.assertTrue(symbols[2].startswith("vmlp::cluster::ResourceVector::fits_within("))
        self.assertTrue(symbols[3].startswith("vmlp::cluster::Cluster::machine("))

    def test_same_prefix_names_are_not_hot(self):
        found = check_hot_inline.find_outlined(OUTLINED_NM)
        self.assertFalse(any("max_ratio_over" in s for _, s in found))
        self.assertFalse(any("Topology::distance" in s for _, s in found))

    def test_cold_path_lambdas_clones_and_locals_are_excluded(self):
        self.assertEqual(check_hot_inline.find_outlined(INLINED_NM), [])

    def test_every_listed_function_is_matched(self):
        text = "x.o:\n" + "".join(f"0000000000000000 T {f}(int)\n"
                                  for f in check_hot_inline.HOT_FUNCTIONS)
        found = check_hot_inline.find_outlined(text)
        self.assertEqual(len(found), len(check_hot_inline.HOT_FUNCTIONS))

    def test_driver_request_lookup_is_hot_but_tracer_lookup_is_not(self):
        text = ("driver.cpp.o:\n"
                "0000000000000000 W vmlp::sched::SimulationDriver::find_request("
                "vmlp::StrongId<vmlp::RequestTag, unsigned long>)\n"
                "00000000000008b0 T vmlp::trace::Tracer::find_request("
                "vmlp::StrongId<vmlp::RequestTag, unsigned long>) const\n")
        found = check_hot_inline.find_outlined(text)
        self.assertEqual(len(found), 1)
        self.assertTrue(found[0][1].startswith("vmlp::sched::SimulationDriver::find_request("))

    def test_ledger_clean_check_is_hot_but_its_refold_is_not(self):
        text = ("reservation.cpp.o:\n"
                "0000000000000000 W vmlp::cluster::ReservationLedger::refresh_peak() const\n"
                "0000000000000120 T vmlp::cluster::ReservationLedger::refold_peak() const\n")
        found = check_hot_inline.find_outlined(text)
        self.assertEqual(len(found), 1)
        self.assertTrue(
            found[0][1].startswith("vmlp::cluster::ReservationLedger::refresh_peak("))

    def test_undefined_and_data_symbols_are_ignored(self):
        text = ("x.o:\n"
                "                 U vmlp::audit::enabled()\n"
                "0000000000000000 B vmlp::audit::enabled()\n"
                "0000000000000000 t vmlp::audit::enabled()\n")
        self.assertEqual(check_hot_inline.find_outlined(text), [])


class MainTest(unittest.TestCase):
    def run_main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = check_hot_inline.main(argv)
        return code, out.getvalue()

    def test_missing_library_is_usage_error(self):
        code, out = self.run_main(["/nonexistent/libvmlp_x.a"])
        self.assertEqual(code, 2)
        self.assertIn("missing", out)

    def test_unrunnable_nm_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            lib = Path(tmp) / "libvmlp_fake.a"
            lib.write_bytes(b"")
            with self.assertRaises(SystemExit) as ctx:
                self.run_main(["--nm", str(Path(tmp) / "no-such-nm"), str(lib)])
            self.assertEqual(ctx.exception.code, 2)

    def test_exit_codes_follow_nm_output(self):
        with tempfile.TemporaryDirectory() as tmp:
            lib = Path(tmp) / "libvmlp_fake.a"
            lib.write_bytes(b"")
            for text, want in ((OUTLINED_NM, 1), (INLINED_NM, 0)):
                saved = check_hot_inline.run_nm
                check_hot_inline.run_nm = lambda _nm, _libs, text=text: text
                try:
                    code, out = self.run_main([str(lib)])
                finally:
                    check_hot_inline.run_nm = saved
                self.assertEqual(code, want, out)
                if want:
                    self.assertIn("4 out-of-line", out)
                else:
                    self.assertIn("clean", out)


if __name__ == "__main__":
    unittest.main()
