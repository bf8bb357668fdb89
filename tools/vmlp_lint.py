#!/usr/bin/env python3
"""vmlp_lint — project-specific correctness lint for the v-MLP simulator.

Enforces repo rules no generic tool knows about:

  [determinism]      All randomness must flow through vmlp::Rng
                     (src/common/rng.*). rand()/std::random_device/std::mt19937
                     and friends are implementation-defined or non-reproducible
                     and would break single-seed reproducibility.

  [relative-include] `#include "../foo.h"` bypasses the include-root layout
                     (src/); spell module-qualified paths ("cluster/foo.h").

  [raw-mutex]        Raw std::mutex / std::shared_mutex / std::recursive_mutex
                     / std::condition_variable members are banned in src/
                     (outside common/mutex.h itself): they cannot carry the
                     clang thread-safety capability attribute, so nothing
                     checks their locking discipline. Use vmlp::Mutex /
                     vmlp::CondVar from common/mutex.h.

  [mutex-guard]      Every data member of a class that owns a vmlp::Mutex
                     must either carry a VMLP_GUARDED_BY / VMLP_PT_GUARDED_BY
                     annotation (compiler-checked under -Wthread-safety) or a
                     `// not guarded: <reason>` note (same line or the
                     comment block above). Prose `// guarded by` comments are
                     no longer accepted for guarded members — the annotation
                     is the same length and the compiler enforces it.

Unordered-container iteration is no longer linted here: the AST-level
tools/vmlp_analyze.py [unordered-escape] rule supersedes the old regex
[unordered-iter] check (it flags only loops whose order actually escapes
into float accumulation, event scheduling, or export sinks, so the
`lint: unordered-ok` waivers are gone too).

  [metric-name]      Telemetry metric names registered via
                     add_counter/add_gauge/add_histogram must follow the
                     `subsystem.noun_verb` style (>= 2 dot-separated lowercase
                     components, [a-z][a-z0-9_]*) and each name must be
                     registered exactly once across the scanned sources —
                     the registry enforces both at runtime, this catches them
                     before a run does. Dynamically built names (the
                     topology.cell<N> gauges, the attribution.<band>.<phase>
                     families) are checked fragment-wise: every string
                     literal in the name expression must be lowercase
                     [a-z0-9_.]* and the fragment shape must be registered at
                     exactly one site.

Usage:
  tools/vmlp_lint.py [--root DIR] [files...]
With no file arguments, scans src/ and tools/*.cpp under the root.
Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------
# helpers


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals (incl. raw strings),
    preserving line structure (newlines survive so line numbers stay valid)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i : j + 2]
            out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "R" and nxt == '"' and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
            # Raw string literal R"delim( ... )delim": an unescaped quote or a
            # // inside it is literal data, not code — the naive quote scanner
            # below would desync on it and mis-blank the rest of the file.
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                j = text.find(closer, i + m.end())
                j = n if j == -1 else j + len(closer)
                chunk = text[i:j]
                out.append('""' + "".join("\n" if ch == "\n" else " " for ch in chunk[2:]))
                i = j
            else:
                out.append(c)
                i += 1
        elif c in ('"', "'"):
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + " " * (min(j, n - 1) - i - 1) + quote)
            i = min(j, n - 1) + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# rule: determinism (banned randomness sources)

BANNED_RANDOM = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bstd\s*::\s*mt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bstd\s*::\s*default_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\bstd\s*::\s*minstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bstd\s*::\s*\w+_distribution\b"), "std::<*>_distribution"),
    (re.compile(r"(?<![\w:.>])rand\s*\(\s*\)"), "rand()"),
    (re.compile(r"(?<![\w:.>])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.>])drand48\s*\("), "drand48()"),
    (re.compile(r"(?<![\w:.>])random\s*\(\s*\)"), "random()"),
]


def check_determinism(path: Path, clean_lines: list[str], findings: list[Finding]) -> None:
    rel = path.as_posix()
    if "/common/rng." in rel:
        return  # the one sanctioned home of raw generators
    for lineno, line in enumerate(clean_lines, 1):
        for pattern, name in BANNED_RANDOM:
            if pattern.search(line):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "determinism",
                        f"{name} breaks single-seed reproducibility; use vmlp::Rng "
                        "(src/common/rng.h) instead",
                    )
                )


# --------------------------------------------------------------------------
# rule: relative-include

RELATIVE_INCLUDE = re.compile(r'#\s*include\s+"\.\.?/')


def check_relative_include(path: Path, raw_lines: list[str], findings: list[Finding]) -> None:
    for lineno, line in enumerate(raw_lines, 1):
        if RELATIVE_INCLUDE.search(line):
            findings.append(
                Finding(
                    path,
                    lineno,
                    "relative-include",
                    'relative #include path; use the module-qualified form '
                    '("cluster/machine.h") rooted at src/',
                )
            )


# --------------------------------------------------------------------------
# rules: raw-mutex + mutex-guard

RAW_MUTEX_MEMBER = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|recursive_mutex|recursive_timed_mutex|timed_mutex|"
    r"condition_variable(?:_any)?)\s+(\w+)\s*;"
)


def check_raw_mutex(path: Path, clean_lines: list[str], findings: list[Finding]) -> None:
    rel = path.as_posix()
    if "/src/" not in rel or rel.endswith("/common/mutex.h"):
        return  # mutex.h wraps the raw types; everything else goes through it
    for lineno, line in enumerate(clean_lines, 1):
        m = RAW_MUTEX_MEMBER.search(line)
        if m:
            findings.append(
                Finding(
                    path,
                    lineno,
                    "raw-mutex",
                    f"raw std::{m.group(1)} member '{m.group(2)}' cannot carry thread-safety "
                    "annotations; use vmlp::Mutex / vmlp::CondVar (common/mutex.h)",
                )
            )


GUARD_SCOPE = ("/common/", "/monitor/", "/sim/", "/obs/", "/exp/")
CLASS_OPEN = re.compile(r"\b(?:class|struct)\s+(?:VMLP_\w+\s*\(\s*\"[^\"]*\"\s*\)\s*)?(\w+)[^;{]*\{")
MUTEX_MEMBER = re.compile(r"(?:(?:vmlp\s*::\s*)?Mutex|std\s*::\s*mutex)\s+(\w+)\s*;")
MEMBER_DECL = re.compile(
    r"^\s+(?!return|if|for|while|switch|case|using|typedef|friend|static_assert|public|private|"
    r"protected|template|explicit|virtual|operator|else|do|break|continue|goto|namespace|throw)"
    r"[A-Za-z_][\w:<>,.*&\s()\[\]]*?[\s&*]"
    r"(\w+_)\s*(?:VMLP_(?:PT_)?GUARDED_BY\s*\([^)]*\)\s*)?(?:=[^;]*|\{[^;]*\})?;"
)
GUARD_ANNOTATION = re.compile(r"\bVMLP_(?:PT_)?GUARDED_BY\s*\(\s*\w+\s*\)")
NOT_GUARDED_NOTE = re.compile(r"not guarded\s*:", re.IGNORECASE)
CV_MEMBER = re.compile(r"\b(?:(?:vmlp\s*::\s*)?CondVar|(?:std\s*::\s*)?condition_variable(?:_any)?)\s+\w+\s*;")


def class_bodies(clean_text: str):
    """Yield (start_line, end_line, body_lines) for each top-level-ish class."""
    lines = clean_text.split("\n")
    text = clean_text
    for m in CLASS_OPEN.finditer(text):
        open_idx = text.index("{", m.start())
        depth = 0
        close_idx = None
        for i in range(open_idx, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    close_idx = i
                    break
        if close_idx is None:
            continue
        start_line = text.count("\n", 0, open_idx) + 1
        end_line = text.count("\n", 0, close_idx) + 1
        yield start_line, end_line, lines[start_line - 1 : end_line]


def check_mutex_guard(
    path: Path, raw_lines: list[str], clean_text: str, findings: list[Finding]
) -> None:
    rel = path.as_posix()
    if not any(scope in rel for scope in GUARD_SCOPE) or rel.endswith("/common/mutex.h"):
        return
    for start_line, _end, body in class_bodies(clean_text):
        mutexes = [m.group(1) for line in body for m in MUTEX_MEMBER.finditer(line)]
        if not mutexes:
            continue
        for offset, line in enumerate(body):
            lineno = start_line + offset
            if MUTEX_MEMBER.search(line) or CV_MEMBER.search(line):
                continue  # the lock itself / its condition need no guard note
            m = MEMBER_DECL.match(line)
            if not m:
                continue
            # Annotation check runs on the raw line: the VMLP_ macro survives
            # stripping, but checking raw keeps this robust to future macro
            # arguments containing strings.
            if GUARD_ANNOTATION.search(raw_lines[lineno - 1]):
                continue
            doc_block = raw_lines[lineno - 1]
            k = lineno - 2  # walk the contiguous comment block above the member
            while k >= 0 and raw_lines[k].lstrip().startswith("//"):
                doc_block += "\n" + raw_lines[k]
                k -= 1
            if NOT_GUARDED_NOTE.search(doc_block):
                continue
            findings.append(
                Finding(
                    path,
                    lineno,
                    "mutex-guard",
                    f"member '{m.group(1)}' of a mutex-owning class lacks a checked locking "
                    f"discipline; annotate `VMLP_GUARDED_BY({mutexes[0]})` or note "
                    "`// not guarded: <reason>`",
                )
            )


# --------------------------------------------------------------------------
# rule: metric-name

METRIC_CALL = re.compile(r"\badd_(?:counter|gauge|histogram)\s*\(")
METRIC_STYLE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")
# A fragment of a dynamically built name (e.g. the "_share" in
# `prefix + suffix + "_share"`): lowercase words/dots only, position-free.
METRIC_FRAGMENT = re.compile(r"^[a-z0-9_.]*$")
STRING_LITERAL = re.compile(r'"((?:[^"\\]|\\.)*)"')
SINGLE_LITERAL_ARG = re.compile(r'^\s*"(?:[^"\\]|\\.)*"\s*$')


def first_call_argument(text: str, start: int) -> str:
    """The raw text of the first argument of a call whose '(' is at start-1:
    scan to the first top-level comma / closing paren, string-literal aware."""
    i, n = start, len(text)
    depth = 0
    in_str = False
    while i < n:
        c = text[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif c == "," and depth == 0:
            break
        i += 1
    return text[start:i]


def check_metric_names(
    path: Path, raw: str, findings: list[Finding], registry: dict[str, tuple[Path, int]]
) -> None:
    # Scan the raw text (string literals are blanked in the clean view) so the
    # registered names themselves are visible; registration calls keep the
    # name argument on the add_* line(s) by convention.
    for m in METRIC_CALL.finditer(raw):
        lineno = raw.count("\n", 0, m.start()) + 1
        arg = first_call_argument(raw, m.end())
        if SINGLE_LITERAL_ARG.match(arg):
            # Literal registration: the full style + uniqueness contract.
            name = STRING_LITERAL.search(arg).group(1)
            if not METRIC_STYLE.match(name):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "metric-name",
                        f"metric name '{name}' violates the subsystem.noun_verb style "
                        "(>= 2 dot-separated lowercase [a-z][a-z0-9_]* components)",
                    )
                )
                continue
            key = name
        else:
            # Dynamically built name (topology.cell<N>, attribution.<band>):
            # check every literal fragment and register the fragment shape.
            # Declarations / pure-variable forwards carry no literal at all
            # and stay out of scope, as before.
            fragments = STRING_LITERAL.findall(arg)
            if not fragments:
                continue
            bad = [f for f in fragments if not METRIC_FRAGMENT.match(f)]
            if bad:
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "metric-name",
                        f"dynamic metric name fragment '{bad[0]}' violates the "
                        "lowercase [a-z0-9_.]* fragment style (full names are "
                        "style-checked at runtime by Registry::check_name)",
                    )
                )
                continue
            key = "dyn:" + "+".join(fragments)
        if key in registry:
            prev_path, prev_line = registry[key]
            findings.append(
                Finding(
                    path,
                    lineno,
                    "metric-name",
                    f"metric '{key}' already registered at "
                    f"{prev_path.name}:{prev_line}; every name has exactly one "
                    "registration site",
                )
            )
        else:
            registry[key] = (path, lineno)


# --------------------------------------------------------------------------
# driver


def lint_file(path: Path, metric_registry: dict[str, tuple[Path, int]]) -> list[Finding]:
    raw = path.read_text(encoding="utf-8")
    raw_lines = raw.split("\n")
    clean = strip_comments_and_strings(raw)
    clean_lines = clean.split("\n")
    findings: list[Finding] = []
    check_determinism(path, clean_lines, findings)
    check_relative_include(path, raw_lines, findings)
    check_raw_mutex(path, clean_lines, findings)
    check_mutex_guard(path, raw_lines, clean, findings)
    check_metric_names(path, raw, findings, metric_registry)
    return findings


def default_targets(root: Path) -> list[Path]:
    targets = sorted(root.glob("src/**/*.h")) + sorted(root.glob("src/**/*.cpp"))
    targets += sorted(root.glob("tools/*.cpp"))
    return targets


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, add_help=True)
    parser.add_argument("--root", default=".", help="repository root (default: cwd)")
    parser.add_argument("files", nargs="*", help="specific files (default: src/, tools/)")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    if args.files:
        targets = [Path(f).resolve() for f in args.files]
    else:
        targets = default_targets(root)
    if not targets:
        print("vmlp_lint: no input files found", file=sys.stderr)
        return 2

    all_findings: list[Finding] = []
    metric_registry: dict[str, tuple[Path, int]] = {}
    for path in targets:
        if not path.is_file():
            print(f"vmlp_lint: no such file: {path}", file=sys.stderr)
            return 2
        all_findings.extend(lint_file(path, metric_registry))

    for f in all_findings:
        try:
            rel = f.path.relative_to(root)
        except ValueError:
            rel = f.path
        print(f"{rel}:{f.line}: [{f.rule}] {f.message}")
    if all_findings:
        print(f"vmlp_lint: {len(all_findings)} finding(s) in {len(targets)} file(s)",
              file=sys.stderr)
        return 1
    print(f"vmlp_lint: clean ({len(targets)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
