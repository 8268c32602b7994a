"""One fresh benchmark process: import ncregions, run a job list, report.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

Run from the checkout root with ``src`` on PYTHONPATH.  The first thing
the process does is import ``ncregions.cli`` and build its parser, and
the clock reading right after that marks the end of set-up (the parent
took its reading just before starting the process; both use the
system-wide monotonic clock).  Then every job's ``argv`` goes through
``ncregions.cli.main`` in order, one at a time, with stdout captured.
"""

import sys
import time

import ncregions.cli

ncregions.cli.build_parser()
READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run_jobs(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    outputs = {}
    start = time.perf_counter()
    for job in spec["jobs"]:
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.job = job["id"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ncregions.cli.main(list(job["argv"]))
        except SystemExit as exc:  # argparse rejects an argv with exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job that raises is a failed job, not a crash
            code = None
            raised = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        text = out.getvalue()
        records.append([job["id"], code, hashlib.sha256(text.encode()).hexdigest(), latency, raised])
        if spec["keep_outputs"]:
            outputs[job["id"]] = text
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    return {
        "ready": READY,
        "wall_s": wall,
        "rss_kb": rss_kb,
        "jobs": records,
        "outputs": outputs,
        "trace": tracer.dump() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run_jobs(spec)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
