#!/usr/bin/env python3
"""Gate a fresh bench_engine run against the committed perf trajectory.

Usage:
    check_bench_delta.py BASELINE.json CURRENT.json [--allowance FRACTION]
                         [--trend-only]

Both files are `bench_engine --json` output (schema gridmap-bench-engine/1,
spec in docs/FORMATS.md). Key conventions drive the gating:

  *_checksum   plan-quality checksums — must match the baseline exactly.
               A mismatch means mapping results changed; that may be
               intentional (better plans) but must never slip through
               silently: regenerate the baseline in the same change.
  *_per_sec    throughput — current must be >= baseline * (1 - allowance)
               (default allowance 10%). Machines differ in absolute speed,
               so CI regenerates the current run on the same machine class
               as its artifacts; the allowance absorbs runner noise.
  *_ok / bools current must not turn a baseline `true` into `false`
               (e.g. telemetry.overhead_ok regressing).

Everything else (raw seconds, counts, quantiles) is trend data: reported,
never gated. Keys present only on one side are reported as informational —
adding a bench section must not break the gate for old baselines.

The section-10 gmap.* keys follow the same conventions: gmap.plan_checksum
is exact (the deterministic parallel gmap must keep producing the same
partition), gmap.cells_per_sec is a throughput floor (skipped under
--trend-only), and gmap.speedup_ok must not regress true -> false — safe
across machine classes because bench_engine computes it hardware-aware
(the 2x speedup gate only binds with >= 8 hardware threads; below that a
relaxed overhead bound applies). gmap.speedup itself is trend data: a raw
ratio from one machine is meaningless as a floor on another.

With --trend-only, *_per_sec floors are reported but never fail the gate:
absolute throughput on shared CI runners is not comparable to the machine
that produced the committed baseline. Checksums and booleans (which compare
the run against itself, not against another machine) stay exact.

Exit status: 0 all gates pass, 1 any gate fails, 2 usage/parse error.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    schema = data.get("schema", "")
    if not schema.startswith("gridmap-bench-engine/"):
        print(f"error: {path}: unexpected schema {schema!r}", file=sys.stderr)
        sys.exit(2)
    return data


USAGE = ("usage: check_bench_delta.py BASELINE.json CURRENT.json "
         "[--allowance FRACTION] [--trend-only]")


def main(argv):
    args = []
    allowance = 0.10
    trend_only = False
    it = iter(argv[1:])
    for a in it:
        if a == "--allowance":
            try:
                allowance = float(next(it))
            except (StopIteration, ValueError):
                print("error: --allowance wants a fraction", file=sys.stderr)
                return 2
        elif a == "--trend-only":
            trend_only = True
        elif a.startswith("--"):
            print(f"error: unknown option {a}\n{USAGE}", file=sys.stderr)
            return 2
        else:
            args.append(a)
    if len(args) != 2 or not 0 <= allowance < 1:
        print(USAGE, file=sys.stderr)
        return 2

    baseline, current = load(args[0]), load(args[1])
    failures = []
    shared = [k for k in baseline if k != "schema" and k in current]

    for key in shared:
        base, cur = baseline[key], current[key]
        if key.endswith("_checksum"):
            status = "ok" if base == cur else "CHECKSUM MISMATCH"
            print(f"  {key}: {base} -> {cur} [{status}]")
            if base != cur:
                failures.append(f"{key}: plan-quality checksum changed "
                                f"({base} -> {cur}); regenerate the baseline "
                                f"if the mapping change is intentional")
        elif key.endswith("_per_sec"):
            floor = base * (1.0 - allowance)
            ok = cur >= floor
            delta = (cur - base) / base * 100 if base else 0.0
            status = "ok" if ok else ("trend" if trend_only else "REGRESSION")
            print(f"  {key}: {base:.6g} -> {cur:.6g} ({delta:+.1f}%) [{status}]")
            if not ok and not trend_only:
                failures.append(f"{key}: {cur:.6g} < floor {floor:.6g} "
                                f"(baseline {base:.6g}, allowance {allowance:.0%})")
        elif isinstance(base, bool):
            ok = cur or not base
            print(f"  {key}: {base} -> {cur} [{'ok' if ok else 'REGRESSION'}]")
            if not ok:
                failures.append(f"{key}: regressed from true to false")

    only_base = sorted(k for k in baseline if k not in current)
    only_cur = sorted(k for k in current if k not in baseline)
    for key in only_base:
        print(f"  {key}: only in baseline (informational)")
    for key in only_cur:
        print(f"  {key}: only in current (informational)")

    if failures:
        print(f"\nFAIL: {len(failures)} gate(s) tripped:")
        for f in failures:
            print(f"  - {f}")
        return 1
    if trend_only:
        print("\nPASS: checksums match (throughput reported as trend only)")
    else:
        print(f"\nPASS: checksums match, throughput within {allowance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
