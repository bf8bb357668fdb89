#!/usr/bin/env python3
"""bench_compare — gate perf_harness results against a checked-in baseline.

Compares a freshly produced BENCH_core.json against bench/baseline.json:

  * gated metrics (engine events/sec and sched placements/sec): FAIL when
    the new value is more than --fail-threshold (default 25%) below the
    baseline.
  * floored metrics (the obs.* overhead ratios, plus any --floor key=value
    from the command line): FAIL when the value drops below its absolute
    floor, independent of the baseline. Floors are how hard promises are
    enforced (telemetry <= 5% overhead; trial sharding >= 3x at 4 threads) —
    a relative gate would let the promise erode one accepted re-baseline at
    a time.
  * speedup floors (keys matching *.tN.speedup_vs_t1) are conditional on run
    quality: the floor is SKIPPED with a warning — never failed — when the
    new run's `hardware_concurrency` is below N (a 2-core runner cannot
    exhibit a 4-thread speedup; the local dev loop must not fail on it) or
    when the family's coefficient of variation (trials.tN.cov, emitted by
    perf_harness's median-of-N discipline) exceeds --max-cov (a noisy runner
    proves nothing either way). The CI scaling job pins an 8-vCPU runner
    class, so there the floors actually bind.
  * per-key gates (--gate KEY=FRACTION, repeatable): FAIL when that exact
    metric regresses more than FRACTION relative to the baseline. This is
    how one metric gets a tighter budget than the blanket --fail-threshold.
  * hardware mismatch: when a floored key exists in the baseline and the
    two runs report different `hardware_concurrency`, the floor verdict is
    still enforced but a WARNING is printed — a floor chosen on one runner
    class is not evidence about another.
  * every other shared metric: WARN when it is more than --warn-threshold
    (default 25%) worse, in its natural direction (wall_ms lower-is-better,
    throughput/speedup higher-is-better). Warnings never fail the job —
    absolute wall-clock numbers vary across runner generations; the
    events/sec gate is the one metric stable enough to enforce.

Re-baselining (after an intentional perf change, reviewed like any diff):

    cmake --preset release
    cmake --build --preset release --target perf_harness
    ./build-release/bench/perf_harness BENCH_core.json
    cp BENCH_core.json bench/baseline.json

Exit status: 0 = within budget, 1 = gated regression, 2 = usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Metrics whose regression fails the job (substring match on the metric key).
# scale.placements_per_sec gates the 1k-machine multi-cell leg (the `scale`
# CI job); it is compared only when both runs carry it, so default harness
# runs (which skip the opt-in scale family) are unaffected.
GATED = ("events_per_sec", "sched.placements_per_sec", "scale.placements_per_sec")

# Absolute floors, enforced on the new run regardless of the baseline: the
# telemetry layer's zero-perturbation guarantee budgets collection at <= 5%
# of uninstrumented throughput (see DESIGN.md, observability architecture).
FLOORS = {
    "obs.engine_events_per_sec_ratio": 0.95,
    "obs.scenario_wall_ratio": 0.95,
    "obs.attribution_wall_ratio": 0.95,
}

# Key suffixes where lower is better; everything else is higher-is-better.
LOWER_IS_BETTER = ("wall_ms",)

# Speedup-vs-one-thread metrics get conditional floor semantics: the tN in
# the key names the thread count the floor presumes the runner can supply.
SPEEDUP_FLOOR_RE = re.compile(r"^(?P<family>[a-z0-9_.]+)\.t(?P<threads>\d+)\.speedup_vs_t1$")

# CoV metrics are run-quality indicators, not performance: they must never
# trigger the higher-is-better warning path (a *drop* in cov is better).
QUALITY_SUFFIX = (".cov",)


def load_doc(path: Path) -> tuple[dict[str, float], int | None]:
    """Returns (metrics, hardware_concurrency-or-None)."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        print(f"bench_compare: {path} has no 'metrics' object", file=sys.stderr)
        sys.exit(2)
    hw = doc.get("hardware_concurrency")
    hw = int(hw) if isinstance(hw, (int, float)) and hw > 0 else None
    return {k: float(v) for k, v in metrics.items()}, hw


def load_metrics(path: Path) -> dict[str, float]:
    return load_doc(path)[0]


def parse_floor_arg(spec: str, flag: str = "--floor") -> tuple[str, float]:
    key, sep, value = spec.partition("=")
    if not sep or not key:
        print(f"bench_compare: {flag} expects key=value, got '{spec}'", file=sys.stderr)
        sys.exit(2)
    try:
        return key, float(value)
    except ValueError:
        print(f"bench_compare: {flag} value for '{key}' is not a number: '{value}'",
              file=sys.stderr)
        sys.exit(2)


def speedup_floor_skip_reason(key: str, new: dict[str, float], hw: int | None,
                              max_cov: float) -> str | None:
    """Why a *.tN.speedup_vs_t1 floor cannot be honestly enforced on this run
    (None = enforce it). Non-speedup floors are always enforced."""
    m = SPEEDUP_FLOOR_RE.match(key)
    if m is None:
        return None
    threads = int(m.group("threads"))
    if hw is None:
        return "new run does not report hardware_concurrency"
    if hw < threads:
        return f"runner exposes {hw} hardware thread(s) < t{threads}"
    family = m.group("family")
    for cov_key in (f"{family}.t1.cov", f"{family}.t{threads}.cov"):
        cov = new.get(cov_key)
        if cov is not None and cov > max_cov:
            return f"{cov_key}={cov:.3g} exceeds --max-cov {max_cov:g} (run too noisy)"
    return None


def regression(key: str, baseline: float, new: float) -> float:
    """Fractional regression in the metric's natural direction (positive =
    worse). 0 when the baseline is degenerate."""
    if baseline == 0:
        return 0.0
    if key.endswith(LOWER_IS_BETTER):
        return (new - baseline) / baseline
    return (baseline - new) / baseline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="checked-in bench/baseline.json")
    parser.add_argument("new", type=Path, help="freshly produced BENCH_core.json")
    parser.add_argument("--fail-threshold", type=float, default=0.25,
                        help="gated-metric regression fraction that fails (default 0.25)")
    parser.add_argument("--warn-threshold", type=float, default=0.25,
                        help="ungated-metric regression fraction that warns (default 0.25)")
    parser.add_argument("--floor", action="append", default=[], metavar="KEY=VALUE",
                        help="additional absolute floor on a new-run metric "
                             "(repeatable); *.tN.speedup_vs_t1 floors are skipped "
                             "with a warning on runners with fewer than N hardware "
                             "threads or when the family cov exceeds --max-cov")
    parser.add_argument("--gate", action="append", default=[], metavar="KEY=FRACTION",
                        help="per-key relative regression gate: FAIL when this exact "
                             "metric regresses more than FRACTION vs the baseline "
                             "(repeatable; overrides --fail-threshold for that key)")
    parser.add_argument("--max-cov", type=float, default=0.15,
                        help="max coefficient of variation before a speedup floor "
                             "is skipped as too noisy (default 0.15)")
    args = parser.parse_args()

    floors = dict(FLOORS)
    for spec in args.floor:
        key, value = parse_floor_arg(spec)
        floors[key] = value
    gates: dict[str, float] = {}
    for spec in args.gate:
        key, value = parse_floor_arg(spec, flag="--gate")
        gates[key] = value

    base, base_hw = load_doc(args.baseline)
    new, new_hw = load_doc(args.new)

    failures = 0
    warnings = 0
    skipped_floors = 0
    width = max(len(k) for k in sorted(set(base) | set(new)))
    for key in sorted(set(base) | set(new)):
        if key in new and key in floors:
            # Floors bind even for metrics absent from the baseline.
            if key in base and base_hw is not None and new_hw is not None and base_hw != new_hw:
                print(f"  {key:<{width}}  WARNING: baseline recorded at "
                      f"hardware_concurrency={base_hw}, this run has {new_hw} — "
                      f"the floor verdict may not be comparable across runner classes")
                warnings += 1
            skip = speedup_floor_skip_reason(key, new, new_hw, args.max_cov)
            if skip is not None:
                print(f"  {key:<{width}}  new={new[key]:<14.6g} floor {floors[key]:g} "
                      f"SKIPPED: {skip}")
                skipped_floors += 1
                continue
            if new[key] < floors[key]:
                print(f"  {key:<{width}}  new={new[key]:<14.6g} below floor "
                      f"{floors[key]:g}  FAIL")
                failures += 1
                continue
            print(f"  {key:<{width}}  new={new[key]:<14.6g} meets floor "
                  f"{floors[key]:g}  ok")
            continue
        if key not in base or key not in new:
            print(f"  {key:<{width}}  (only in {'new' if key in new else 'baseline'}; skipped)")
            continue
        if key.endswith(QUALITY_SUFFIX):
            print(f"  {key:<{width}}  base={base[key]:<14.6g} new={new[key]:<14.6g} "
                  f"(run-quality indicator; not compared)")
            continue
        reg = regression(key, base[key], new[key])
        per_key = gates.get(key)
        gated = per_key is not None or any(g in key for g in GATED)
        threshold = per_key if per_key is not None else args.fail_threshold
        status = "ok"
        if gated and reg > threshold:
            status = "FAIL"
            failures += 1
        elif per_key is None and reg > args.warn_threshold:
            status = "warn"
            warnings += 1
        print(f"  {key:<{width}}  base={base[key]:<14.6g} new={new[key]:<14.6g} "
              f"change={-reg:+.1%}  {status}")

    if failures:
        print(f"bench_compare: {failures} gated regression(s)/floor violation(s) — "
              f"see re-baselining notes in this script's header",
              file=sys.stderr)
        return 1
    if skipped_floors:
        print(f"bench_compare: WARNING: {skipped_floors} floor(s) skipped "
              f"(insufficient cores or too-noisy run) — the scaling promise was "
              f"NOT verified here", file=sys.stderr)
    if warnings:
        print(f"bench_compare: {warnings} metric(s) regressed beyond "
              f"{args.warn_threshold:.0%} (warn-only)")
    print("bench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
