#!/usr/bin/env python3
"""Fail on an instruction regression of bench_dslash or bench_cg against the baseline.

  ./build/bench/bench_dslash --benchmark_min_time=0.01 \\
      --benchmark_format=json > bench_dslash.json
  python3 bench/check_insns.py bench_dslash.json

  ./build/bench/bench_cg --json > bench_cg.json
  python3 bench/check_insns.py bench_cg.json

The run's kind is read from its JSON: bench_cg's output carries
"benchmark": "bench_cg", anything else is read as bench_dslash's google-benchmark
output.  Every baseline row in bench/baseline.json (next to this script) must
appear in the run, and its count must not be higher than the baseline's:
insns/site for each "bench_dslash" row, half_insns_per_iter (the Schur CG's
instructions per iteration) for each vl of "bench_cg.schur_half_vs_padded",
and insns_per_solve (one MixedCG x Schur solve) for each vl of
"bench_cg.mixed_schur".
The counters are simulated SVE instruction counts, deterministic for a given
source tree, so any increase is a real regression.  A decrease passes and is
reported, as a reminder to lower the baseline.
"""
import json
import sys
from pathlib import Path


def dslash_rows(run, baseline):
    """(name, measured, baseline, unit) per bench_dslash baseline row."""
    measured = {b["name"]: b["insns/site"] for b in run["benchmarks"]}
    return [(row["name"], measured.get(row["name"]), row["insns/site"], "insns/site")
            for row in baseline["bench_dslash"]]


def cg_rows(run, baseline):
    """(name, measured, baseline, unit) per bench_cg Schur and MixedCG row, by vl."""
    checks = []
    for section, key, label, unit in (
            ("schur_half_vs_padded", "half_insns_per_iter", "schur", "insns/iter"),
            ("mixed_schur", "insns_per_solve", "mixed", "insns/solve")):
        measured = {r["vl"]: r[key] for r in run.get(section, [])}
        checks += [(f"bench_cg {label} vl{row['vl']}", measured.get(row["vl"]), row[key],
                    unit)
                   for row in baseline["bench_cg"][section]]
    return checks


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    path = Path(argv[1])
    baseline_path = Path(__file__).with_name("baseline.json")
    run = json.loads(path.read_text())
    baseline = json.loads(baseline_path.read_text())
    rows = cg_rows if run.get("benchmark") == "bench_cg" else dslash_rows
    failures = []
    for name, got, want, unit in rows(run, baseline):
        if got is None:
            failures.append(f"{name}: missing from {path}")
            continue
        verdict = "ok"
        if got > want:
            verdict = "REGRESSION"
            failures.append(f"{name}: {got} {unit} > baseline {want}")
        elif got < want:
            verdict = "improved (lower the baseline)"
        print(f"{name:24s} {got:12.2f} {unit}  baseline {want:12.2f}  {verdict}")
    if failures:
        print("\n".join(["instruction regression against " + str(baseline_path) + ":"] +
                        failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
