"""Seeded job lists and input files for the three workloads.

A job is a dict with an ``id``, a ``kind`` (used for the per-kind job
counts), the ``argv`` handed to ``ncregions.cli.main``, the input
``files`` it reads (relative to the checkout root), the name of the
golden-independent ``check`` that applies (see :mod:`checks`) and, for
code verification, the ``pair`` that ties its algebraic and exhaustive
runs together.  A rank job also carries its ambient ``space`` (q, d)
and whether it is that space's lattice ``builder``.

The same seed gives the same jobs and byte-identical files.  Job costs
come from fixed multisets (sample sizes, code dimensions, polytope
sizes) that the seed only permutes and fills with random content, so
the amount of work per run barely depends on the seed; for the same
reason a fixed job per ambient space pays that space's lattice build.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("rank-cold", "rank-scan", "catalog")

INEQUALITIES = ("ingleton", "zhang-yeung", "oddLRI", "evenLRI")

# Ambient spaces GF(q)^d: 16 to 374 subspaces for rank-cold, 16 to 67 for rank-scan.
RANK_COLD_SPACES = ((2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (11, 3), (13, 3), (2, 5))
RANK_SCAN_SPACES = ((2, 3), (3, 3), (5, 3), (2, 4))

# Sample counts: log-spaced 10^4 .. 10^5 for rank-cold, and 10^5 .. 10^6
# for rank-scan.  Which size goes to which (inequality, space) is fixed,
# so the seed changes the sampled assignments and the job order but not
# the cost of a job.
RANK_COLD_SAMPLES = (10_000, 13_335, 17_783, 23_714, 31_623, 42_170, 56_234, 74_989, 100_000)
RANK_SCAN_SAMPLES = (100_000,) * 5 + (150_000,)
RANK_SCAN_BIG_SAMPLES = ((3, 3, 316_228), (2, 4, 1_000_000))  # (q, d, samples), ingleton

# Exhaustive scans: (inequality, q, d).  The first two are the big
# 64^4 and 67^4 scans of rank-scan; the others are the small scans.
RANK_SCAN_EXHAUSTIVE = (("ingleton", 5, 3), ("zhang-yeung", 2, 4), ("ingleton", 3, 3), ("zhang-yeung", 2, 3))
RANK_COLD_EXHAUSTIVE = (("ingleton", 2, 3), ("zhang-yeung", 2, 3), ("ingleton", 3, 3), ("zhang-yeung", 3, 3))

BUNDLED_CODES = ("fano_111_gf2", "fano_111_gf3", "fano_45_odd", "gbutterfly_23_uniform")

# Random linear codes: (network, p) -> (message dim, edge dim).  The
# exhaustive verifier enumerates p^(messages * k) assignments.
RANDOM_CODE_DIMS = {
    ("gbutterfly", 2): (3, 4), ("gbutterfly", 3): (2, 3), ("gbutterfly", 5): (1, 2),
    ("fano", 2): (4, 5), ("fano", 3): (3, 4), ("fano", 5): (2, 3),
    ("nonfano", 2): (4, 5), ("nonfano", 3): (3, 4), ("nonfano", 5): (2, 3),
    ("vamos", 2): (3, 4), ("vamos", 3): (2, 3), ("vamos", 5): (1, 2),
}

# Random bounded H-representations: (dimension, number of halfspaces).
HREP_SHAPES = ((3, 8), (3, 10), (4, 10), (4, 12), (5, 11), (5, 13), (5, 15))
CONTAINS_PER_HREP = 2

TABLE_SOURCE = "fano_45_odd"


def work_dir(root: Path, workload: str) -> Path:
    return root / ".bench_work" / workload


def _rng(seed: int, workload: str) -> random.Random:
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _job(kind: str, argv: list[str], files=(), check=None, pair=None) -> dict:
    return {"kind": kind, "argv": argv, "files": list(files), "check": check, "pair": pair}


def _rank(ineq, q, d, mode, builder=False, **extra) -> dict:
    argv = ["rank", ineq, "--field", str(q), "--dim", str(d), "--mode", mode]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    job = _job(f"rank-{mode}", argv, check="rank")
    job["space"] = (q, d)
    job["builder"] = builder
    return job


def _builders_first(jobs: list[dict]) -> None:
    """Swap each space's designated builder into the slot of the first job
    that needs the space's lattice (catalog mode does not).

    That job pays the lattice build.  With a fixed builder the seed moves
    no build cost from one job to another, which would otherwise shift
    the latency quantiles from seed to seed.
    """
    first: dict[tuple[int, int], int] = {}
    for i, job in enumerate(jobs):
        if job["kind"] in ("rank-sample", "rank-exhaustive"):
            first.setdefault(job["space"], i)
    for i, job in enumerate(jobs):
        if job.get("builder"):
            j = first[job["space"]]
            jobs[i], jobs[j] = jobs[j], jobs[i]


def _rank_cold_jobs(rng: random.Random) -> list[dict]:
    jobs = [_rank(i, q, d, "catalog") for i in INEQUALITIES for q, d in RANK_COLD_SPACES]
    for a, ineq in enumerate(INEQUALITIES):
        for b, (q, d) in enumerate(RANK_COLD_SPACES):
            for rep in range(2):  # a Latin-square walk: every size for every inequality
                samples = RANK_COLD_SAMPLES[(2 * a + b + 4 * rep) % len(RANK_COLD_SAMPLES)]
                builder = a == rep == 0
                jobs.append(_rank(ineq, q, d, "sample", builder, seed=rng.getrandbits(32), samples=samples))
    for ineq, q, d in RANK_COLD_EXHAUSTIVE:
        jobs.append(_rank(ineq, q, d, "exhaustive"))
    return jobs


def _rank_scan_jobs(rng: random.Random) -> list[dict]:
    from ncregions.subspace import count_subspaces

    # Both inequalities have four variables: size^4 assignments.
    jobs = [
        _rank(ineq, q, d, "exhaustive", budget=count_subspaces(q, d) ** 4)
        for ineq, q, d in RANK_SCAN_EXHAUSTIVE
    ]
    for a, ineq in enumerate(INEQUALITIES):
        for q, d in RANK_SCAN_SPACES:
            for rep, samples in enumerate(RANK_SCAN_SAMPLES):
                builder = a == rep == 0
                jobs.append(_rank(ineq, q, d, "sample", builder, seed=rng.getrandbits(32), samples=samples))
    for q, d, samples in RANK_SCAN_BIG_SAMPLES:
        jobs.append(_rank("ingleton", q, d, "sample", seed=rng.getrandbits(32), samples=samples))
    return jobs


def _random_code(net, p: int, k: int, n: int, rng: random.Random):
    from ncregions import codes
    from ncregions.ff import PrimeField, mat

    fld = PrimeField(p)
    rates = codes.rate_spec(net, {m: k for m in net.messages}, n)
    functions = {}
    for label in net.coded_labels():
        tail = net.edge_by_id(net.named_edges[label]).tail
        width = codes.node_input_width(net, rates, tail)
        functions[label] = mat(fld, [[rng.randrange(p) for _ in range(width)] for _ in range(n)], cols=width)
    return codes.LinearCode(net.name, fld, rates, functions)


def _hrep_text(dim: int, count: int, rng: random.Random) -> str:
    """Bounded by construction: x >= 0 plus one positive-sum cap row."""
    rows = [([-1 if j == i else 0 for j in range(dim)], 0) for i in range(dim)]
    rows.append(([rng.randint(1, 3) for _ in range(dim)], rng.randint(2 * dim, 6 * dim)))
    while len(rows) < count:
        coeffs = [rng.randint(-3, 3) for _ in range(dim)]
        if any(coeffs):
            rows.append((coeffs, rng.randint(1, 12)))
    body = rows[:dim] + rng.sample(rows[dim:], len(rows) - dim)
    return "".join(" ".join(map(str, c)) + f" <= {b}\n" for c, b in body)


def _point_text(dim: int, rng: random.Random) -> list[str]:
    return [str(Fraction(rng.randint(0, 8), rng.randint(1, 4))) for _ in range(dim)]


def _table_fixture(root: Path) -> Path:
    """Table-code copy of the bundled fano_45_odd code (seed independent)."""
    path = root / ".bench_work" / "fixed" / f"{TABLE_SOURCE}_table.json"
    if not path.exists():
        from ncregions import codes

        net, code = codes.read_code_file(root / "data" / "codes" / f"{TABLE_SOURCE}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        codes.write_code_file(tmp, net, codes.to_table_code(net, code))
        tmp.replace(path)
    return path


def _catalog_jobs(rng: random.Random, root: Path, inputs: Path) -> list[dict]:
    from ncregions import codes, netmodel, rateregion

    def rel(path: Path) -> str:
        return path.relative_to(root).as_posix()

    jobs = []
    for net_id in netmodel.NETWORK_IDS:
        for cls in rateregion.region_classes(net_id):
            for fmt in ("text", "json"):
                jobs.append(_job("regions", ["regions", net_id, "--class", cls, "--format", fmt], check="regions"))
            for kind in ("uniform", "average"):
                jobs.append(_job("capacity", ["capacity", net_id, "--class", cls, "--kind", kind]))
            canonical = rateregion.canonical_class(net_id, cls)
            if any(canonical in spec.region_classes for spec in codes.builtin_code_specs(net_id)):
                jobs.append(_job("achieve", ["achieve", net_id, "--class", cls], check="achieve"))
    for name in BUNDLED_CODES:
        path = f"data/codes/{name}.json"
        for extra in ([], ["--exhaustive"]):
            jobs.append(_job("verify-bundled", ["verify", path, *extra], [path], check="verify", pair=name))
    table = rel(_table_fixture(root))
    jobs.append(_job("verify-table", ["verify", table], [table], check="verify", pair="table"))

    for (net_id, p), (k, n) in RANDOM_CODE_DIMS.items():
        net = netmodel.builtin_network(net_id)
        path = inputs / f"code_{net_id}_gf{p}.json"
        codes.write_code_file(path, net, _random_code(net, p, k, n, rng))
        for extra in ([], ["--exhaustive"]):
            argv = ["verify", rel(path), *extra, "--format", "json"]
            jobs.append(_job("verify-random", argv, [rel(path)], check="verify", pair=path.stem))

    for idx, (dim, count) in enumerate(HREP_SHAPES):
        path = inputs / f"hrep_{idx}_d{dim}_m{count}.hrep"
        path.write_text(_hrep_text(dim, count, rng))
        jobs.append(_job("polytope-vertices", ["polytope", "--hrep", rel(path), "vertices"], [rel(path)], check="vertices"))
        for _ in range(CONTAINS_PER_HREP):
            argv = ["polytope", "--hrep", rel(path), "contains", *_point_text(dim, rng)]
            jobs.append(_job("polytope-contains", argv, [rel(path)], check="contains"))
    return jobs


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    """Write the workload's input files under ``.bench_work`` and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(seed, workload)
    inputs = work_dir(root, workload) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "rank-cold":
        jobs = _rank_cold_jobs(rng)
    elif workload == "rank-scan":
        jobs = _rank_scan_jobs(rng)
    else:
        jobs = _catalog_jobs(rng, root, inputs)
    rng.shuffle(jobs)
    if workload != "catalog":
        from ncregions.subspace import count_subspaces

        # One space's jobs run together, smallest lattice first, so the
        # lattices alive at each point of a pass, and the garbage
        # collector's cost of walking them, are the same on every seed.
        jobs.sort(key=lambda job: count_subspaces(*job["space"]))
        _builders_first(jobs)
    for index, job in enumerate(jobs):
        job["id"] = index
        job["key"] = job_key(job, root)
    return jobs


def job_key(job: dict, root: Path) -> str:
    """Identity of a job's expected output: its argv plus its input bytes."""
    key = " ".join(job["argv"])
    if job["files"]:
        digest = hashlib.sha256()
        for rel in job["files"]:
            digest.update((root / rel).read_bytes())
        key += " #" + digest.hexdigest()[:16]
    return key
