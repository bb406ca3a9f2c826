#!/usr/bin/env python3
"""Fail when bench_dslash's or bench_cg's instruction counts differ from the baseline.

  ./build/bench/bench_dslash --benchmark_min_time=0.01 \\
      --benchmark_format=json > bench_dslash.json
  python3 bench/check_insns.py bench_dslash.json

  ./build/bench/bench_cg --json > bench_cg.json
  python3 bench/check_insns.py bench_cg.json

The run's kind is read from its JSON: bench_cg's output carries
"benchmark": "bench_cg", anything else is read as bench_dslash's google-benchmark
output.  Every baseline row in bench/baseline.json (next to this script) must
appear in the run, and its count must equal the baseline's:
insns/site for each "bench_dslash" row, half_insns_per_iter (the Schur CG's
instructions per iteration) for each vl of "bench_cg.schur_cg", and
insns_per_solve (one solve) for each vl of "bench_cg.bicgstab_schur"
(BiCGSTAB x Schur) and "bench_cg.mixed_schur" (MixedCG x Schur).  A Schur CG
row's half_iterations must also equal the baseline's: a count per iteration
only measures the solve while the solve takes the same iterations.
The counters are simulated SVE instruction counts, deterministic for a given
source tree, so any increase is a real regression, and a decrease fails too
until the baseline is lowered: a baseline left above the count would let a
later change give back part of the gain unseen.
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
    """(name, measured, baseline, unit) per bench_cg Schur CG, BiCGSTAB and MixedCG
    row, by vl."""
    checks = []
    for section, key, label, unit in (
            ("schur_cg", "half_insns_per_iter", "schur", "insns/iter"),
            ("bicgstab_schur", "insns_per_solve", "bicgstab", "insns/solve"),
            ("mixed_schur", "insns_per_solve", "mixed", "insns/solve")):
        measured = {r["vl"]: r[key] for r in run.get(section, [])}
        checks += [(f"bench_cg {label} vl{row['vl']}", measured.get(row["vl"]), row[key],
                    unit)
                   for row in baseline["bench_cg"][section]]
    return checks


def cg_iteration_mismatches(run, baseline):
    """Schur CG rows whose half_iterations differ from the baseline's."""
    measured = {r["vl"]: r.get("half_iterations") for r in run.get("schur_cg", [])}
    return [f"bench_cg schur vl{row['vl']}: {measured.get(row['vl'])} iterations, "
            f"baseline {row['half_iterations']} (re-measure the baseline)"
            for row in baseline["bench_cg"]["schur_cg"]
            if measured.get(row["vl"]) != row["half_iterations"]]


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    path = Path(argv[1])
    baseline_path = Path(__file__).with_name("baseline.json")
    run = json.loads(path.read_text())
    baseline = json.loads(baseline_path.read_text())
    is_cg = run.get("benchmark") == "bench_cg"
    rows = cg_rows if is_cg else dslash_rows
    failures = cg_iteration_mismatches(run, baseline) if is_cg else []
    for name, got, want, unit in rows(run, baseline):
        if got is None:
            failures.append(f"{name}: missing from {path}")
            continue
        verdict = "ok"
        if got > want:
            verdict = "REGRESSION"
            failures.append(f"{name}: {got} {unit} > baseline {want}")
        elif got < want:
            verdict = "STALE BASELINE"
            failures.append(f"{name}: {got} {unit} < baseline {want} (lower the baseline)")
        print(f"{name:24s} {got:12.2f} {unit}  baseline {want:12.2f}  {verdict}")
    if failures:
        print("\n".join(["failed against " + str(baseline_path) + ":"] +
                        failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
