#!/usr/bin/env python3
"""Reachability census of src/ from one or more `--coverage` build trees.

    python3 tools/coverage_census.py [--root .] [--list] BUILD_DIR [BUILD_DIR ...]

Build each tree with `-DCMAKE_CXX_FLAGS="--coverage -O1"`, run the entry
points whose reach you want to measure, then point this script at the trees
(DESIGN.md §6 has the full recipe). It runs `gcov -j -t` over every object
that has a .gcno and merges the counts per src/ function and line across all
objects and trees: a function or line is reached when any object in any tree
ran it. It prints

  * every src/ source with a .gcno but no .gcda in any tree (a TU no binary
    that ran links);
  * per src/ module, the emitted functions and instrumented lines, and how
    many of each never ran;
  * with --list, each unreached function as file:line name.

The message builders of VMLP_CHECK_MSG / VMLP_AUDIT_ASSERT (lambdas taking
a std::ostream&) run only when a check fails; they are counted apart and
never listed.

Functions the compiler never emitted (an inline or template member nothing
instantiates) have no record, so they do not show; search for their callers
by name. Exit code 0 unless gcov fails.
"""
import argparse
import collections
import json
import os
import subprocess
import sys


def gcov_records(gcno):
    """The gcov JSON documents for one object (one per line of stdout)."""
    out = subprocess.run(["gcov", "-j", "-t", "-o", os.path.dirname(gcno), gcno],
                         capture_output=True, text=True, check=False,
                         cwd=os.path.dirname(gcno))
    if out.returncode != 0:
        sys.exit(f"coverage_census: gcov failed on {gcno}:\n{out.stderr}")
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]


def src_relative(path, root):
    rel = os.path.relpath(os.path.realpath(path), root)
    return rel if rel.startswith("src" + os.sep) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("builds", nargs="+", help="--coverage build trees, already run")
    ap.add_argument("--root", default=".", help="repository root (default: .)")
    ap.add_argument("--list", action="store_true", help="list every unreached function")
    args = ap.parse_args()
    root = os.path.realpath(args.root)

    functions = {}                         # (file, mangled) -> [start_line, name, count]
    lines = collections.defaultdict(int)   # (file, line) -> max count
    ran = {}                               # object path from src/ on -> any .gcda
    for build in args.builds:
        for dirpath, _, files in os.walk(build):
            for f in sorted(files):
                if not f.endswith(".gcno"):
                    continue
                gcno = os.path.abspath(os.path.join(dirpath, f))
                has_data = os.path.exists(gcno[:-len(".gcno")] + ".gcda")
                # The same TU sits in every tree (perfbench nests it under
                # vmlp/); a static library links it only into binaries that
                # use it, so a TU counts as run if any tree ran it.
                parts = os.path.relpath(gcno, build).split(os.sep)
                if "src" in parts:
                    tu = os.sep.join(parts[parts.index("src"):])
                    ran[tu] = ran.get(tu, False) or has_data
                if not has_data:
                    continue
                for doc in gcov_records(gcno):
                    for rec in doc.get("files", []):
                        rel = src_relative(rec["file"], root)
                        if rel is None:
                            continue
                        for fn in rec.get("functions", []):
                            key = (rel, fn["name"])
                            entry = functions.setdefault(
                                key, [fn["start_line"], fn["demangled_name"], 0])
                            entry[2] += fn["execution_count"]
                        for ln in rec.get("lines", []):
                            key = (rel, ln["line_number"])
                            lines[key] = max(lines[key], ln["count"])

    never_ran = sorted(tu for tu, has_data in ran.items() if not has_data)
    print(f"src/ objects with a .gcno but no .gcda: {len(never_ran)}")
    for path in never_ran:
        print(f"  {path}")

    def module(rel):
        return rel.split(os.sep)[1]

    # A function counts once per source position (template instantiations
    # and per-TU copies of inline functions merge).
    by_site = {}
    check_messages = 0
    for (rel, _), (start, name, count) in functions.items():
        if "{lambda(std::ostream&)#" in name:
            check_messages += 1
            continue
        site = (rel, start)
        prev = by_site.get(site)
        by_site[site] = (name if prev is None else prev[0], count + (prev[1] if prev else 0))
    fn_total = collections.Counter(module(rel) for rel, _ in by_site)
    fn_dead = collections.Counter(module(rel) for (rel, _), (_, c) in by_site.items() if c == 0)
    ln_total = collections.Counter(module(rel) for rel, _ in lines)
    ln_dead = collections.Counter(module(rel) for (rel, _), c in lines.items() if c == 0)

    print(f"\n{'module':<12}{'functions':>10}{'unreached':>10}{'lines':>8}{'unreached':>10}")
    for m in sorted(fn_total.keys() | ln_total.keys()):
        print(f"{m:<12}{fn_total[m]:>10}{fn_dead[m]:>10}{ln_total[m]:>8}{ln_dead[m]:>10}")
    print(f"{'total':<12}{sum(fn_total.values()):>10}{sum(fn_dead.values()):>10}"
          f"{sum(ln_total.values()):>8}{sum(ln_dead.values()):>10}")

    print(f"(check-failure message lambdas, not counted: {check_messages})")

    if args.list:
        print("\nunreached functions:")
        for (rel, start), (name, count) in sorted(by_site.items()):
            if count == 0:
                print(f"  {rel}:{start} {name}")


if __name__ == "__main__":
    main()
