"""Determinism self-check of the benchmark and of the program under it.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload it makes two traced runs and one untraced run at the same
seed and requires:

* identical attempted, converged, recalled and genuine counts;
* identical answers: the digest covers every sorted sigma set with its
  cluster counts, and the exact bytes of every ``--deterministic`` CLI
  report with its exit code;
* identical per-layer counts: Newton outcomes and iterations, sampler
  rejections, calls per layer and metric evaluations per ``riemann``;
* the same answers with tracing on and off, so the tracer changes nothing;
* exactly the metric names that ``BENCHMARK.json`` lists.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("ms-riemannian", "ms-lorentz", "curvature-sweep", "cli-reports")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def layer_counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name == "svp.newton.yield"}


def check(workload: str, seed: int, declared: dict) -> list[str]:
    problems = []
    ctx_a, res_a = run(workload, seed, trace=1)
    ctx_b, res_b = run(workload, seed, trace=1)
    ctx_c, res_c = run(workload, seed, trace=0)
    for res in (res_a, res_b, res_c):
        if not res["correct"]:
            problems.append(f"a run failed its oracle: {res}")
    for key, res in (("per_layer", res_a), ("end_to_end", res_c)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        if names != got:
            problems.append(f"{key} metrics differ from BENCHMARK.json: "
                            f"{sorted(set(names.items()) ^ set(got.items()))}")
    if ctx_a["deterministic"] != ctx_b["deterministic"]:
        problems.append("outcome counts or answers differ between two runs")
    counts_a, counts_b = layer_counts(res_a), layer_counts(res_b)
    for name in sorted(counts_a):
        if counts_a[name] != counts_b.get(name):
            problems.append(f"{name}: {counts_a[name]} then {counts_b.get(name)}")
    if ctx_a["deterministic"]["answers_sha256"] != ctx_c["deterministic"]["answers_sha256"]:
        problems.append("answers differ with tracing on and off")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in args.workload:
        problems = check(workload, args.seed, declared)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
