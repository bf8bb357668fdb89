#!/usr/bin/env python3
"""Unit tests for tools/vmlp_lint.py (run directly or via ctest).

Covers the lexer (notably raw-string literals, which used to desync the
quote scanner and mis-blank everything after them) and one positive plus
one negative case per rule.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import vmlp_lint  # noqa: E402


def lint_source(source: str, relpath: str = "src/sim/unit.cpp") -> list[str]:
    """Lint `source` written at `relpath` under a temp root; return rule ids."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        findings = vmlp_lint.lint_file(path, {})
        return [f.rule for f in findings]


class StripTest(unittest.TestCase):
    def test_line_structure_preserved(self):
        text = 'int a; // c\n/* b\n */ int c = "s";\n'
        clean = vmlp_lint.strip_comments_and_strings(text)
        self.assertEqual(clean.count("\n"), text.count("\n"))
        self.assertNotIn("c\n", clean.split("\n")[0])
        self.assertIn('int c = " ";', clean)

    def test_raw_string_contents_blanked(self):
        # The unescaped quote and the // inside the raw string are data; the
        # old scanner treated the quote as a string open and blanked rand().
        text = 'auto s = R"(quote " and // slash)"; rand();\n'
        clean = vmlp_lint.strip_comments_and_strings(text)
        self.assertNotIn("slash", clean)
        self.assertIn("rand()", clean)

    def test_raw_string_with_delimiter(self):
        text = 'auto s = R"js(var x = ")(";)js"; int live = 1;\n'
        clean = vmlp_lint.strip_comments_and_strings(text)
        self.assertNotIn("var x", clean)
        self.assertIn("int live = 1;", clean)

    def test_raw_string_spanning_lines_keeps_newlines(self):
        text = 'auto s = R"(line1\nline2 " still string\n)"; srand(1);\n'
        clean = vmlp_lint.strip_comments_and_strings(text)
        self.assertEqual(clean.count("\n"), text.count("\n"))
        self.assertNotIn("still string", clean)
        self.assertIn("srand(1);", clean)

    def test_identifier_ending_in_R_is_not_raw_string(self):
        text = 'int fooR = 2; auto s = "x";\n'
        clean = vmlp_lint.strip_comments_and_strings(text)
        self.assertIn("int fooR = 2;", clean)


class DeterminismRuleTest(unittest.TestCase):
    def test_flags_banned_generators(self):
        rules = lint_source("void f() { std::mt19937 gen(1); }\n")
        self.assertIn("determinism", rules)

    def test_banned_call_inside_raw_string_is_ignored(self):
        rules = lint_source('const char* doc = R"(call rand() here)";\n')
        self.assertNotIn("determinism", rules)

    def test_vmlp_rng_is_fine(self):
        rules = lint_source("void f() { vmlp::Rng rng(1); rng.uniform(); }\n")
        self.assertEqual(rules, [])


class RelativeIncludeRuleTest(unittest.TestCase):
    def test_flags_parent_include(self):
        self.assertIn("relative-include", lint_source('#include "../cluster/machine.h"\n'))

    def test_module_path_is_fine(self):
        self.assertEqual(lint_source('#include "cluster/machine.h"\n'), [])


class RawMutexRuleTest(unittest.TestCase):
    def test_flags_std_mutex_member(self):
        rules = lint_source("class C {\n  std::mutex mu_;\n};\n")
        self.assertIn("raw-mutex", rules)

    def test_flags_condition_variable_member(self):
        rules = lint_source("class C {\n  std::condition_variable cv_;\n};\n")
        self.assertIn("raw-mutex", rules)

    def test_vmlp_mutex_is_fine(self):
        rules = lint_source("class C {\n  Mutex mu_;\n};\n")
        self.assertNotIn("raw-mutex", rules)

    def test_common_mutex_header_is_exempt(self):
        rules = lint_source("class Mutex {\n  std::mutex mu_;\n};\n",
                            relpath="src/common/mutex.h")
        self.assertEqual(rules, [])


class MutexGuardRuleTest(unittest.TestCase):
    def test_unannotated_member_flagged(self):
        rules = lint_source("class C {\n  Mutex mu_;\n  int count_ = 0;\n};\n")
        self.assertIn("mutex-guard", rules)

    def test_annotated_member_passes(self):
        rules = lint_source(
            "class C {\n  Mutex mu_;\n  int count_ VMLP_GUARDED_BY(mu_) = 0;\n};\n")
        self.assertEqual(rules, [])

    def test_not_guarded_note_passes(self):
        rules = lint_source(
            "class C {\n  Mutex mu_;\n"
            "  // not guarded: written once before threads start.\n"
            "  int config_ = 0;\n};\n")
        self.assertEqual(rules, [])

    def test_prose_guarded_by_comment_no_longer_accepted(self):
        rules = lint_source(
            "class C {\n  Mutex mu_;\n  int count_ = 0;  // guarded by mu_\n};\n")
        self.assertIn("mutex-guard", rules)

    def test_outside_guard_scope_not_checked(self):
        rules = lint_source("class C {\n  Mutex mu_;\n  int count_ = 0;\n};\n",
                            relpath="src/net/unit.cpp")
        self.assertEqual(rules, [])


class MetricNameRuleTest(unittest.TestCase):
    def test_bad_style_flagged(self):
        rules = lint_source('void f(R& r) { r.add_counter("BadName"); }\n')
        self.assertIn("metric-name", rules)

    def test_duplicate_registration_flagged(self):
        with tempfile.TemporaryDirectory() as tmp:
            registry = {}
            rules = []
            for name in ("a.cpp", "b.cpp"):
                path = Path(tmp) / "src" / "obs" / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text('void f(R& r) { r.add_counter("sched.requests_admitted"); }\n',
                                encoding="utf-8")
                rules += [f.rule for f in vmlp_lint.lint_file(path, registry)]
            self.assertEqual(rules, ["metric-name"])

    def test_good_name_passes(self):
        rules = lint_source('void f(R& r) { r.add_gauge("sched.queue_depth"); }\n')
        self.assertEqual(rules, [])

    def test_dynamic_fragments_checked(self):
        # Attribution-style registration: the literal fragments of a built
        # name must be lowercase [a-z0-9_.]*.
        rules = lint_source(
            'void f(R& r, const std::string& prefix) {\n'
            '  r.add_histogram(prefix + "Bad Frag", "help", bounds);\n}\n')
        self.assertIn("metric-name", rules)

    def test_dynamic_good_fragments_pass(self):
        rules = lint_source(
            'void f(R& r, const std::string& prefix) {\n'
            '  r.add_histogram(prefix + "path_len", "help, with comma", bounds);\n'
            '  r.add_gauge("topology.cell" + std::to_string(c) + ".live_peak", "h");\n}\n')
        self.assertEqual(rules, [])

    def test_dynamic_duplicate_shape_flagged(self):
        rules = lint_source(
            'void f(R& r, const std::string& p) {\n'
            '  r.add_histogram(p + "path_len", "h", b);\n'
            '  r.add_histogram(p + "path_len", "h", b);\n}\n')
        self.assertEqual(rules, ["metric-name"])

    def test_declaration_without_literal_ignored(self):
        rules = lint_source(
            "struct R { H add_histogram(const std::string& name, "
            "const std::string& help, std::vector<double> b); };\n")
        self.assertEqual(rules, [])


class SelfCheckTest(unittest.TestCase):
    def test_repo_sources_are_clean(self):
        root = Path(__file__).resolve().parent.parent
        if not (root / "src").is_dir():
            self.skipTest("repo layout not available")
        rc = vmlp_lint.main(["--root", str(root)])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main()
