"""Write perfbench/composition.json: what each workload is made of, where
its time goes, and the baseline measured on this machine.

    python3 perfbench/compose.py      # from the checkout root

For each workload it counts the jobs by kind and the lattices touched,
runs the benchmark untraced for ``run_seconds`` (from BENCHMARK.json) on
seeds 1..10 (the baseline: median, quartiles and the spread
(q3 - q1) / median of every end-to-end metric), and once traced on seed 1
(work totals and each layer's share of the traced wall time).  It prints
each spread as it goes.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

RUNS = 10
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Job lists resized from what their workload's rationale asks for, and why.
RESIZED = {
    "rank-scan": (
        "Sample sizes mostly 10^5, with one 3.2*10^5 and one 10^6 ingleton scan, rather than "
        "10^5-10^6 throughout, so that a pass stays under 15 s and two passes fit one run."
    ),
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} job runs failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def environment() -> dict:
    def quiet(argv: list[str]) -> str:
        try:
            return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": quiet(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "note": "shared 2-core virtual machine; other tenants add run-to-run noise",
    }


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from ncregions.subspace import count_subspaces

    seconds = SPEC["run_seconds"]
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    doc = {"environment": environment(), "run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, 1, root)
        spaces = sorted({j["space"] for j in jobs if "space" in j})
        runs = [bench(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        layers = bench(workload, 1, seconds, 1)
        baseline = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        doc["workloads"][workload] = {
            "why": why[workload],
            "sizing": RESIZED.get(workload, "as the rationale asks; not resized"),
            "jobs": len(jobs),
            "jobs_by_kind": dict(sorted(Counter(j["kind"] for j in jobs).items())),
            "lattices": {f"GF({q})^{d}": count_subspaces(q, d) for q, d in spaces},
            "totals_seed_1": {
                "rank_assignments": layers["rankineq.assignments"],
                "code_assignments": layers["codes.exh_assignments"],
                "vertex_subsets": layers["rateregion.subsets"],
                "joins": layers["subspace.join.calls"],
                "ff_eliminations": layers["ff.elim.calls"],
            },
            "share_of_traced_wall_seed_1": {
                **{layer: round(layers[f"share.{layer}"], 4) for layer in LAYERS},
                "lattice_build": round(layers["subspace.lattice.build_share"], 4),
            },
            "baseline": {name: {k: round(v, 4) for k, v in stats.items()} for name, stats in baseline.items()},
        }
        for name, stats in baseline.items():
            print(f"{workload:<10} {name:<12} median {stats['median']:10.4f}  spread {stats['spread']:.4f}")
    (HERE / "composition.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
