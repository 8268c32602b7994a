"""Smoke test of the benchmark itself, on tiny job lists.

    python3 perfbench/smoke.py      # from the root of a checkout

Shows that an altered golden, a missing golden entry, a wrong verdict and
a dropped vertex each raise the failure count, that the traced child's
self times sum to no more than its wall time, and that the exact counts
repeat across two traced runs.  Exits 1 on the first check that does not
hold.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT  # noqa: E402

TINY = [
    ("rank-catalog", ["rank", "oddLRI", "--field", "2", "--dim", "3"], [], "rank", None),
    ("rank-sample", ["rank", "ingleton", "--field", "2", "--dim", "3", "--mode", "sample",
                     "--samples", "2000", "--seed", "7"], [], "rank", None),
    ("rank-exhaustive", ["rank", "zhang-yeung", "--field", "2", "--dim", "3", "--mode", "exhaustive"],
     [], "rank", None),
    ("verify", ["verify", "data/codes/fano_111_gf3.json"], ["data/codes/fano_111_gf3.json"], "verify", "f"),
    ("verify", ["verify", "data/codes/fano_111_gf3.json", "--exhaustive"],
     ["data/codes/fano_111_gf3.json"], "verify", "f"),
    ("regions", ["regions", "fano", "--class", "linear-odd", "--format", "json"], [], "regions", None),
    ("capacity", ["capacity", "vamos", "--class", "linear", "--kind", "average"], [], None, None),
    ("vertices", ["polytope", "--hrep", "data/hreps/cube3.hrep", "vertices"],
     ["data/hreps/cube3.hrep"], "vertices", None),
    ("contains", ["polytope", "--hrep", "data/hreps/cube3.hrep", "contains", "1", "1/2", "3/2"],
     ["data/hreps/cube3.hrep"], "contains", None),
]


def tiny_jobs(root: Path) -> list[dict]:
    jobs = []
    for index, (kind, argv, files, check, pair) in enumerate(TINY):
        job = {"id": index, "kind": kind, "argv": argv, "files": files, "check": check, "pair": pair}
        job["key"] = workloads.job_key(job, root)
        jobs.append(job)
    return jobs


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        sys.exit(1)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = workloads.work_dir(root, "smoke")
    work.mkdir(parents=True, exist_ok=True)
    jobs = tiny_jobs(root)

    [child], _ = run.measure(jobs, root, work, 0, False, time.perf_counter())
    expect(child.result is not None, f"untraced child ran ({child.error or 'no error'})")
    golden = {job["key"]: rec[1:3] for job, rec in zip(jobs, child.result["jobs"])}
    failures, compared = run.job_failures(jobs, child, golden, True, root)
    expect(not failures and compared == len(jobs), f"clean run has no failed job {failures}")
    attempted, failed, _ = run.count_failures(jobs, [child], failures)
    expect((attempted, failed) == (len(jobs), 0), "fail_rate is 0 on the clean run")

    altered = dict(golden)
    capacity_key = jobs[6]["key"]
    altered[capacity_key] = [altered[capacity_key][0], "0" * 64]
    failures, _ = run.job_failures(jobs, child, altered, True, root)
    expect(set(failures) == {6}, "an altered golden fails exactly that job")
    expect(run.count_failures(jobs, [child], failures)[1] == 1, "... and raises fail_rate")

    del altered[capacity_key]
    failures, _ = run.job_failures(jobs, child, altered, True, root)
    expect(set(failures) == {6}, "a job missing from a recorded seed's golden fails")
    failures, compared = run.job_failures(jobs, child, altered, False, root)
    expect(not failures and compared == len(jobs) - 1, "... but not on a seed that was not recorded")

    exhaustive_id = 4
    text = child.result["outputs"][str(exhaustive_id)]
    flipped = text.replace("R14 demands a: ok", "R14 demands a: FAIL (forged)", 1)
    expect(flipped != text, "the exhaustive report has an ok demand to forge")
    child.result["outputs"][str(exhaustive_id)] = flipped
    failures, _ = run.job_failures(jobs, child, {}, False, root)
    expect({3, 4} <= set(failures), f"a wrong verdict fails the verifier pair {failures}")
    child.result["outputs"][str(exhaustive_id)] = text

    vertices_id = 7
    text = child.result["outputs"][str(vertices_id)]
    lines = text.splitlines()
    dropped = "\n".join([f"vertices ({len(lines) - 2}):", *lines[1:-1]]) + "\n"
    child.result["outputs"][str(vertices_id)] = dropped
    failures, _ = run.job_failures(jobs, child, {}, False, root)
    expect(set(failures) == {vertices_id}, f"a dropped vertex fails the job {failures}")
    child.result["outputs"][str(vertices_id)] = text

    runs = []
    for _ in range(2):
        children, _ = run.measure(jobs, root, work, 0, True, time.perf_counter())
        traced = [c for c in children if c.traced]
        expect(len(traced) == 1 and traced[0].result is not None, "traced child ran")
        trace, wall = traced[0].result["trace"], traced[0].result["wall_s"]
        self_total = sum(agg["self_s"] for agg in trace["aggregates"])
        expect(0 < self_total <= wall, f"traced self times {self_total:.4f} s <= traced wall_s {wall:.4f} s")
        runs.append(run.per_layer(children))
    mismatched = [name for name in EXACT if runs[0][name] != runs[1][name]]
    expect(not mismatched, f"exact counts repeat across two traced runs {mismatched}")
    expect(runs[0]["rankineq.witnesses"] >= 1 and runs[0]["codes.invalid"] == 2,
           "counters see the witness and the two invalid verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
