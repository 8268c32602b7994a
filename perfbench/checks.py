"""Output checks that decide which jobs failed.

Two kinds of check apply to every job output:

- the golden: exit code plus stdout SHA-256, recorded per job key (argv
  plus input bytes, see :func:`workloads.job_key`) for each of a set of
  seeds (0 to 10).  On a recorded seed every job must have an entry; on
  any other seed the jobs whose inputs do not depend on the seed are
  still checked, since their keys recur on every seed.
- golden-independent checks, by the job's ``check`` field:
  ``rank``      every printed witness has negative slack under
                ``rankineq.evaluate``; the exit code and counts agree
                with the report;
  ``regions``   the report says the vertices match the catalog;
  ``achieve``   every bundled code checks out;
  ``verify``    the algebraic and exhaustive verdicts agree per demand;
  ``vertices``  every vertex passes ``rateregion.is_extreme``, and every
                edge leaving a printed vertex ends at a printed vertex,
                so no vertex is missing;
  ``contains``  the answer equals a direct exact evaluation.

A deterministic exit 1 (an invalid code, a sampling run without a hit)
is a correct output when the report backs it up.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(workload: str, seed: int) -> tuple[dict[str, list], bool]:
    """(job key -> [exit code, stdout sha256], whether ``seed`` was recorded)."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.exists():
        return {}, False
    doc = json.loads(path.read_text())
    return doc["jobs"], seed in doc["seeds"]


def record_golden(workload: str, seed: int, entries: dict[str, list]) -> None:
    """Add one seed's entries to the workload's golden file."""
    path = GOLDEN_DIR / f"{workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"seeds": [], "jobs": {}}
    golden = doc["jobs"]
    clashes = [key for key, value in entries.items() if golden.get(key, value) != value]
    if clashes:
        raise SystemExit(f"refusing to record: {len(clashes)} jobs differ from the golden, e.g. {clashes[0]!r}")
    golden.update(entries)
    seeds = sorted(set(doc["seeds"]) | {seed})
    GOLDEN_DIR.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(golden.items())]
    body = ",\n".join(lines)
    path.write_text(f'{{"workload": "{workload}", "seeds": {json.dumps(seeds)}, "jobs": {{\n{body}\n}}}}\n')


# -- golden-independent checks -----------------------------------------------


def _field(text: str, label: str) -> str:
    m = re.search(rf"^{re.escape(label)}: (.*)$", text, re.M)
    if m is None:
        raise ValueError(f"no {label!r} line")
    return m.group(1).strip()


def _argv_value(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_rank(job: dict, code: int, text: str) -> str | None:
    from ncregions import rankineq
    from ncregions.subspace import count_subspaces, parse_assignment

    argv = job["argv"]
    ineq, q, d = argv[1], int(_argv_value(argv, "--field", "")), int(_argv_value(argv, "--dim", ""))
    mode = _argv_value(argv, "--mode", "catalog")
    matches = _field(text, "outcome matches claim") == "yes"
    if code != (0 if matches else 1):
        return f"exit {code} but outcome matches claim: {matches}"
    checked = int(_field(text, "assignments checked"))
    found = _field(text, "violation found") == "yes"
    expr = rankineq.builtin_inequality(ineq)
    if found:
        body = text.split("witness:\n", 1)[1].split("outcome matches claim:")[0]
        witness = parse_assignment("\n".join(line.strip() for line in body.splitlines()))
        if rankineq.evaluate(expr, witness) >= 0:
            return "printed witness does not violate the inequality"
    if mode == "sample":
        limit = int(_argv_value(argv, "--samples", str(rankineq.DEFAULT_SAMPLES)))
    elif mode == "exhaustive":
        limit = count_subspaces(q, d) ** len(expr.variables())
    else:
        names = expr.variables()
        limit = sum(names <= set(a.spaces) for a in rankineq.catalog_assignments(q, d))
    if (found and not 1 <= checked <= limit) or (not found and checked != limit):
        return f"{checked} assignments checked, expected {'at most ' if found else ''}{limit}"
    return None


def check_regions(job: dict, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if "json" in job["argv"]:
        report = json.loads(text)
        cataloged = report["expected_vertices"] is not None
        ok = report["matches_expected"] is (True if cataloged else None)
    else:
        ok = _field(text, "expected vertices") in ("match", "none cataloged")
    return None if ok else "vertices do not match the catalog"


def check_achieve(job: dict, code: int, text: str) -> str | None:
    if code != 0 or _field(text, "result") != "ok":
        return f"exit {code}, result {_field(text, 'result')}"
    return None


def verdicts(text: str) -> tuple[bool, dict[tuple[str, str], bool]]:
    """(valid, per-demand ok) from a verify report, text or JSON."""
    if text.startswith("{"):
        report = json.loads(text)
        return report["valid"], {(r["receiver"], r["message"]): r["ok"] for r in report["demands"]}
    demands = {
        (m.group(1), m.group(2)): m.group(3) == "ok"
        for m in re.finditer(r"^(\S+) demands (\S+): (ok|FAIL)", text, re.M)
    }
    return _field(text, "valid") == "yes", demands


def check_verify(job: dict, code: int, text: str) -> str | None:
    valid, demands = verdicts(text)
    if code != (0 if valid else 1):
        return f"exit {code} but valid: {valid}"
    if not demands or valid != all(demands.values()):
        return "overall verdict disagrees with the demands"
    return None


def _parse_hrep(path: Path) -> list[tuple[list[Fraction], Fraction]]:
    rows = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, _, rhs = line.partition("<=")
        rows.append(([Fraction(x) for x in lhs.split()], Fraction(rhs)))
    return rows


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _line_direction(rows: list[list[Fraction]], dim: int) -> list[Fraction] | None:
    """The null vector of ``dim - 1`` rows of rank ``dim - 1``, else None."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    if len(pivots) != dim - 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    direction = [Fraction(0)] * dim
    direction[free] = Fraction(1)
    for i, col in enumerate(pivots):
        direction[col] = -work[i][free]
    return direction


def missing_neighbour(rows, points: list[tuple[Fraction, ...]]) -> tuple[Fraction, ...] | None:
    """A vertex next to a printed one that is not printed, else None.

    From each printed vertex, every edge lies on ``dim - 1`` independent
    tight rows; walking along it to the first row it meets gives the
    neighbouring vertex.  The vertex graph of a bounded polytope is
    connected, so a nonempty list of extreme points that is closed under
    this walk holds every vertex.
    """
    dim = len(points[0])
    printed = set(points)
    for v in points:
        tight = [i for i, (a, b) in enumerate(rows) if _dot(a, v) == b]
        for subset in combinations(tight, dim - 1):
            d = _line_direction([rows[i][0] for i in subset], dim)
            if d is None:
                continue
            for step in (d, [-x for x in d]):
                if any(_dot(rows[i][0], step) > 0 for i in tight):
                    continue  # leaves the polytope at once
                t = min((b - _dot(a, v)) / _dot(a, step) for a, b in rows if _dot(a, step) > 0)
                w = tuple(x + t * y for x, y in zip(v, step))
                if w not in printed:
                    return w
    return None


def check_vertices(job: dict, code: int, text: str, root: Path) -> str | None:
    from ncregions import rateregion

    if code != 0:
        return f"exit {code}"
    h = rateregion.parse_hrep((root / job["files"][0]).read_text())
    points = [tuple(Fraction(x) for x in line.split()) for line in text.splitlines()[1:]]
    if len(points) != int(text.split("(", 1)[1].split(")", 1)[0]):
        return "vertex count line disagrees with the vertex list"
    if (Fraction(0),) * h.dim not in points:
        return "the origin (a vertex by construction) is missing"
    bad = [p for p in points if not rateregion.is_extreme(h, p)]
    if bad:
        return f"{len(bad)} printed points are not extreme"
    missing = missing_neighbour(_parse_hrep(root / job["files"][0]), points)
    return None if missing is None else f"vertex {tuple(map(str, missing))} is missing"


def check_contains(job: dict, code: int, text: str, root: Path) -> str | None:
    if code != 0:
        return f"exit {code}"
    argv = job["argv"]
    point = [Fraction(x) for x in argv[argv.index("contains") + 1:]]
    inside = all(
        sum(c * x for c, x in zip(coeffs, point)) <= bound
        for coeffs, bound in _parse_hrep(root / job["files"][0])
    )
    return None if text == ("true\n" if inside else "false\n") else f"expected {inside}"


def semantic_failures(jobs: list[dict], results: dict[int, tuple[int, str]], root: Path) -> dict[int, str]:
    """Job id -> reason, for jobs whose output fails its own check.

    ``results`` maps job id to (exit code, stdout).
    """
    failures: dict[int, str] = {}
    pairs: dict[str, list[dict]] = {}
    for job in jobs:
        code, text = results[job["id"]]
        check = job["check"]
        try:
            if check == "rank":
                reason = check_rank(job, code, text)
            elif check == "regions":
                reason = check_regions(job, code, text)
            elif check == "achieve":
                reason = check_achieve(job, code, text)
            elif check == "verify":
                reason = check_verify(job, code, text)
                pairs.setdefault(job["pair"], []).append(job)
            elif check == "vertices":
                reason = check_vertices(job, code, text, root)
            elif check == "contains":
                reason = check_contains(job, code, text, root)
            else:
                reason = None
        except (ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc}"
        if reason:
            failures[job["id"]] = reason
    for members in pairs.values():
        if len(members) < 2:
            continue
        try:
            seen = {job["id"]: verdicts(results[job["id"]][1])[1] for job in members}
        except (ValueError, KeyError):
            continue  # already reported as unreadable
        if len({tuple(sorted(v.items())) for v in seen.values()}) > 1:
            for job_id in seen:
                failures.setdefault(job_id, "algebraic and exhaustive verdicts disagree")
    return failures
