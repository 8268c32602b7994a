"""ncregions benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the
workload's seeded inputs under ``.bench_work/``, then starts fresh child
processes (``perfbench/child.py``) one after another, each running the
whole job list through ``ncregions.cli.main``, until the next child would
end after ``--seconds``.  The load is closed-loop: one client, one job
at a time, no threads.  A fresh process per pass matters because
``subspace.lattice()`` caches per process, so every pass pays each
lattice build once, as a command-line user does.

Every job output is checked (see ``checks.py``).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: with ``--trace 0`` the end-to-end metrics of the
untraced children, with ``--trace 1`` the per-layer metrics of traced
children (untraced children run in between to give the tracing
overhead).  The lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
RUN_DEADLINE_S = 170  # a child still running this long after the run started is killed
SETUP_PROBES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    """One finished child process: its result document, or why it has none."""

    traced: bool
    setup_s: float
    elapsed_s: float
    result: dict | None
    error: str = ""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NC_THREADS", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: Path, spec_path: Path, result_path: Path, traced: bool, timeout: float) -> Child:
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
    spawned = time.perf_counter()  # same system-wide monotonic clock as the child's
    try:
        proc = subprocess.run(
            argv, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Child(traced, 0.0, time.perf_counter() - spawned, None, f"timed out after {timeout:.0f} s")
    elapsed = time.perf_counter() - spawned
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return Child(traced, 0.0, elapsed, None, f"exit {proc.returncode}: {tail[0]}")
    result = json.loads(result_path.read_text())
    return Child(traced, result["ready"] - spawned, elapsed, result)


def measure(
    jobs: list[dict], root: Path, work: Path, seconds: float, trace: bool, started: float
) -> tuple[list[Child], list[float]]:
    """Run fresh children until the next one would end after ``seconds``.

    Untraced and traced children alternate when ``trace`` is set; at
    least one of each kind runs.  Only the first child keeps its outputs.
    Without tracing, each child is followed by ``SETUP_PROBES`` children
    with an empty job list, so set-up is sampled several times per run.
    Returns the children and the set-up time of every untraced one.
    """
    bare = [{"id": j["id"], "argv": j["argv"]} for j in jobs]
    specs = {}
    for name, spec in (
        ("keep", {"jobs": bare, "trace": False, "keep_outputs": True}),
        ("plain", {"jobs": bare, "trace": False, "keep_outputs": False}),
        ("traced", {"jobs": bare, "trace": True, "keep_outputs": False}),
        ("probe", {"jobs": [], "trace": False, "keep_outputs": False}),
    ):
        specs[name] = work / f"spec_{name}.json"
        specs[name].write_text(json.dumps(spec))
    children: list[Child] = []
    setups: list[float] = []

    def remaining() -> float:
        return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started))

    while True:
        traced = trace and len(children) % 2 == 1
        if children:
            missing_kind = trace and not any(c.traced for c in children)
            longest = max(c.elapsed_s for c in children)
            if not missing_kind and time.perf_counter() - started + longest > seconds:
                break
        spec = specs["traced" if traced else "plain" if children else "keep"]
        child = run_child(root, spec, work / f"result_{len(children)}.json", traced, remaining())
        children.append(child)
        if child.result is None:
            break
        if not traced:
            setups.append(child.setup_s)
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = run_child(root, specs["probe"], work / "result_probe.json", False, remaining())
                if probe.result is not None:
                    setups.append(probe.setup_s)
    return children, setups


def job_failures(
    jobs: list[dict], first: Child, golden: dict[str, list], complete: bool, root: Path
) -> tuple[dict[int, str], int]:
    """(job id -> reason, number of jobs compared with a golden entry),
    judged on the first child's outputs.  With ``complete`` (the seed was
    recorded) a job with no golden entry fails."""
    records = {r[0]: r for r in first.result["jobs"]}
    outputs = {int(k): v for k, v in first.result["outputs"].items()}
    failures = {r[0]: f"raised {r[4]}" for r in records.values() if r[4]}
    results = {j["id"]: (records[j["id"]][1], outputs[j["id"]]) for j in jobs if j["id"] not in failures}
    live = [j for j in jobs if j["id"] not in failures]
    failures.update(checks.semantic_failures(live, results, root))
    compared = 0
    for job in jobs:
        expected = golden.get(job["key"])
        got = records[job["id"]][1:3]
        if expected is None:
            if complete:
                failures.setdefault(job["id"], "no golden entry on a recorded seed")
            continue
        compared += 1
        if expected != got:
            failures.setdefault(job["id"], f"golden mismatch: expected exit/sha {expected}, got {got}")
    return failures, compared


def count_failures(jobs: list[dict], children: list[Child], failures: dict[int, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every job run by every child.

    A run of a job fails if the job failed its checks, or if its exit
    code or stdout differs from the first child's run of the same job.
    """
    reference = {r[0]: r[1:3] for r in children[0].result["jobs"]} if children[0].result else {}
    attempted = failed = 0
    notes = [f"job {j} {reason}" for j, reason in sorted(failures.items())]
    for n, child in enumerate(children):
        if child.result is None:
            attempted += len(jobs)
            failed += len(jobs)
            notes.append(f"child {n} produced no result ({child.error})")
            continue
        for job_id, code, sha, _, raised in child.result["jobs"]:
            attempted += 1
            if job_id in failures or raised or [code, sha] != reference.get(job_id):
                failed += 1
                if job_id not in failures and not raised:
                    notes.append(f"child {n} job {job_id}: output differs from child 0")
    return attempted, failed, notes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children: list[Child], setups: list[float]) -> tuple[dict[str, float], int]:
    plain = [c for c in children if not c.traced and c.result]
    latencies = [r[3] for c in plain for r in c.result["jobs"]]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median([c.result["wall_s"] for c in plain]),
        "job_p50_ms": 1000 * _median(latencies),
        "job_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else 0.0,
        "peak_rss_mb": _median([c.result["rss_kb"] / 1024 for c in plain]),
    }
    return metrics, len(latencies)


def per_layer(children: list[Child]) -> dict[str, float]:
    traced = [c for c in children if c.traced and c.result]
    plain = [c for c in children if not c.traced and c.result]
    if not traced:
        return {}
    each = [layer_metrics(c.result["trace"], c.result["wall_s"]) for c in traced]
    # median_low picks a measured value, so exact counts stay integers
    metrics = {name: statistics.median_low([m[name] for m in each]) for name in each[0]}
    metrics["trace.overhead_s"] = _median([c.result["wall_s"] for c in traced]) - _median(
        [c.result["wall_s"] for c in plain]
    )
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, record_golden: bool = False) -> dict:
    started = time.perf_counter()
    jobs = workloads.generate(workload, seed, root)
    work = workloads.work_dir(root, workload)
    children, setups = measure(jobs, root, work, seconds, trace, started)
    first = children[0]
    golden, complete = checks.load_golden(workload, seed)
    failures, compared = job_failures(jobs, first, golden, complete, root) if first.result else ({}, 0)
    attempted, failed, notes = count_failures(jobs, children, failures)
    if record_golden:
        if failed or first.result is None:
            raise SystemExit("refusing to record a golden from a run with failures")
        checks.record_golden(workload, seed, {j["key"]: r[1:3] for j, r in zip(jobs, first.result["jobs"])})

    e2e, samples = end_to_end(children, setups)
    layers = per_layer(children) if trace else {}
    kinds = Counter(j["kind"] for j in jobs)
    print(f"workload {workload}  seed {seed}  children {len(children)} "
          f"({sum(c.traced for c in children)} traced)  jobs per child {len(jobs)}")
    print("child wall_s: " + " ".join(
        f"{c.result['wall_s']:.3f}{'T' if c.traced else ''}" if c.result else "-" for c in children))
    print("jobs by kind: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    print(f"golden: {compared} of {len(jobs)} jobs compared "
          f"(seed {seed} {'recorded' if complete else 'not recorded: seed-independent jobs only'})")
    for name, value in e2e.items():
        suffix = f"  (n={samples} job latencies)" if name.startswith("job_") else ""
        print(f"  {name:<14} {value:12.4f} {UNITS[name]}{suffix}")
    print(f"  {'fail_rate':<14} {failed / max(attempted, 1):12.4f} ratio  ({failed}/{attempted} job runs)")
    for name, value in layers.items():
        print(f"  {name:<34} {value:14.6g} {UNITS[name]}")
    for note in notes[:20]:
        print(f"  FAIL {note}")
    chosen = layers if trace else e2e
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="add this run's exit codes and stdout hashes to the golden for this seed")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ncregions" / "cli.py").is_file() or not (root / "data" / "codes").is_dir():
        print("error: run from the root of an ncregions checkout (src/ncregions and data/codes)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, args.record_golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
