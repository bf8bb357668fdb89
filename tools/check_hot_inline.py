#!/usr/bin/env python3
"""Fail when a hot admission-probe function has an out-of-line definition.

    python3 tools/check_hot_inline.py [--nm NM] LIB.a [LIB.a ...]

Every v-MLP placement runs the admission test as a handful of ledger probes
built from ResourceVector arithmetic and a few checked accessors. Those
functions are defined in headers so that a Release build inlines them; an
out-of-line `T` (global) or `W` (weak, i.e. an emitted inline copy) symbol
in a Release library means a call per probe came back. That happens when a
body moves back into a .cpp file, or when a check at the call site grows a
message stream big enough that the compiler declines to inline (see
common/error.h). The driver's hook-subscription test,
`SimulationDriver::wants`, runs on every node start and finish, and its
request-table lookup, `SimulationDriver::find_request`, runs in every
scheduler callback; both are guarded the same way. So is the ledger's clean
check, `ReservationLedger::refresh_peak`, which every window query runs
before it reads the profile (the refold behind it stays out of line).

The check runs `nm -C --defined-only` over the given static libraries and
lists every hot function that still has a `T` or `W` definition. The cold
check-failure path (`check_failed`, `throw_invariant`), lambdas and
`.cold` clones are never reported. Only meaningful on an optimized build;
CMake registers it as the ctest `hot_path_inline` in Release builds.

Exit status: 0 clean, 1 out-of-line hot functions found, 2 usage error
(no library, missing file, nm failed).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path

# Qualified names (as `nm -C` prints them, without the parameter list).
HOT_FUNCTIONS = (
    "vmlp::cluster::ResourceVector::operator+=",
    "vmlp::cluster::ResourceVector::operator-=",
    "vmlp::cluster::ResourceVector::operator*=",
    "vmlp::cluster::ResourceVector::max",
    "vmlp::cluster::ResourceVector::min",
    "vmlp::cluster::ResourceVector::clamp_to",
    "vmlp::cluster::ResourceVector::fits_within",
    "vmlp::cluster::ResourceVector::any_negative",
    "vmlp::cluster::ResourceVector::near_zero",
    "vmlp::audit::enabled",
    "vmlp::cluster::ReservationLedger::refresh_peak",
    "vmlp::app::RequestRuntime::node",
    "vmlp::app::Dag::parents",
    "vmlp::app::Application::service",
    "vmlp::sched::SimulationDriver::expected_comm",
    "vmlp::sched::SimulationDriver::wants",
    "vmlp::sched::SimulationDriver::find_request",
    "vmlp::cluster::Cluster::machine",
    "vmlp::net::Topology::rack_of",
)

# Symbols that may be out of line whatever they contain.
EXCLUDED_MARKERS = ("check_failed", "throw_invariant", "{lambda", ".cold")

_HOT_RE = re.compile(
    r"(?:^|\s)(" + "|".join(re.escape(f) for f in HOT_FUNCTIONS) + r")\(")
_NM_LINE_RE = re.compile(r"^(?:[0-9a-fA-F]+)?\s+([A-Za-z])\s+(.+)$")


def find_outlined(nm_output: str) -> list[tuple[str, str]]:
    """(member, symbol) pairs for every out-of-line hot definition.

    `nm_output` is the text of `nm -C --defined-only` over one or more
    archives; archive member headers ("file.o:") and blank lines are
    skipped. Each returned symbol is the full demangled name.
    """
    found: list[tuple[str, str]] = []
    member = ""
    for raw in nm_output.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.endswith(":") and not line.startswith(" "):
            member = line[:-1]
            continue
        m = _NM_LINE_RE.match(line)
        if m is None:
            continue
        kind, symbol = m.group(1), m.group(2)
        if kind not in ("T", "W"):
            continue
        if any(marker in symbol for marker in EXCLUDED_MARKERS):
            continue
        if _HOT_RE.search(symbol):
            found.append((member, symbol))
    return found


def run_nm(nm: str, libs: list[Path]) -> str:
    try:
        proc = subprocess.run([nm, "-C", "--defined-only", *map(str, libs)],
                              capture_output=True, text=True, check=False)
    except OSError as e:
        print(f"check_hot_inline: cannot run {nm}: {e}", file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(2)
    return proc.stdout


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nm", default="nm", help="nm binary (default: nm)")
    ap.add_argument("libs", nargs="+", type=Path, help="static libraries to scan")
    args = ap.parse_args(argv)
    missing = [p for p in args.libs if not p.is_file()]
    if missing:
        print("check_hot_inline: missing " + ", ".join(map(str, missing)), file=sys.stderr)
        return 2
    found = find_outlined(run_nm(args.nm, args.libs))
    if found:
        print(f"check_hot_inline: {len(found)} out-of-line hot function definition(s):")
        for member, symbol in found:
            print(f"  {member}: {symbol}")
        return 1
    print(f"check_hot_inline: clean ({len(args.libs)} libraries, "
          f"{len(HOT_FUNCTIONS)} hot functions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
