import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import pytest

from ncregions import rateregion
from ncregions.rateregion import (
    INGLETON_COEFFS,
    ZHANG_YEUNG_COEFFS,
    ZHANG_YEUNG_SWAPPED_COEFFS,
    UnboundedPolyhedronError,
    VRep,
    average_capacity,
    builtin_region,
    canonical_class,
    contains,
    ensure_bounded,
    enumerate_vertices,
    frac_str,
    halfspace,
    hrep,
    hrep_to_text,
    is_extreme,
    parse_fraction,
    parse_hrep,
    region_classes,
    tight_constraints,
    transfer_coefficients,
    transfer_vamos,
    uniform_capacity,
    vrep,
)

REGION_SIZES = {
    ("gbutterfly", "coding"): 14,
    ("gbutterfly", "routing"): 13,
    ("fano", "coding"): 8,
    ("fano", "linear-odd"): 10,
    ("fano", "routing"): 7,
    ("nonfano", "coding"): 8,
    ("nonfano", "linear-even"): 10,
    ("nonfano", "routing"): 4,
    ("vamos", "routing"): 6,
    ("vamos", "shannon-outer"): 15,
    ("vamos", "linear"): 16,
}


@pytest.mark.parametrize("network,cls", sorted(REGION_SIZES))
def test_cataloged_regions_enumerate_exactly(network, cls):
    h, expected = builtin_region(network, cls)
    got = enumerate_vertices(h)
    assert len(expected) == REGION_SIZES[(network, cls)]
    assert got.vertices == expected.vertices


def test_landmark_vertices_present():
    _, odd = builtin_region("fano", "linear-odd")
    assert (Fraction(4, 5), Fraction(4, 5), Fraction(4, 5)) in odd.vertices
    _, even = builtin_region("nonfano", "linear-even")
    assert (Fraction(1), Fraction(1), Fraction(1, 2)) in even.vertices
    _, lin = builtin_region("vamos", "linear")
    assert (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1)) in lin.vertices
    assert (Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1)) in lin.vertices


def test_class_aliases():
    assert canonical_class("gbutterfly", "linear") == "coding"
    assert canonical_class("fano", "linear-even") == "coding"
    assert canonical_class("nonfano", "linear-odd") == "coding"
    assert builtin_region("fano", "linear-even") == builtin_region("fano", "coding")
    with pytest.raises(KeyError):
        builtin_region("fano", "zy-outer")
    assert "routing" in region_classes("vamos")


def test_zy_outer_has_no_expected_list_but_enumerates():
    h, expected = builtin_region("vamos", "zy-outer")
    assert len(expected) == 0
    got = enumerate_vertices(h)
    assert len(got) > 0
    # the zy-outer region sits inside the shannon-outer region
    shannon, _ = builtin_region("vamos", "shannon-outer")
    for v in got:
        assert contains(shannon, v)


CAPACITY_CASES = [
    ("gbutterfly", "coding", "uniform", Fraction(2, 3)),
    ("gbutterfly", "coding", "average", Fraction(3, 4)),
    ("gbutterfly", "routing", "uniform", Fraction(1, 2)),
    ("gbutterfly", "routing", "average", Fraction(3, 4)),
    ("fano", "coding", "uniform", Fraction(1)),
    ("fano", "linear-odd", "uniform", Fraction(4, 5)),
    ("nonfano", "linear-even", "uniform", Fraction(5, 6)),
    ("nonfano", "linear-even", "average", Fraction(5, 6)),
    ("vamos", "routing", "average", Fraction(1, 2)),
    ("vamos", "linear", "uniform", Fraction(5, 6)),
]


@pytest.mark.parametrize("network,cls,kind,value", CAPACITY_CASES)
def test_capacities(network, cls, kind, value):
    h, _ = builtin_region(network, cls)
    compute = uniform_capacity if kind == "uniform" else average_capacity
    assert compute(h) == value


def test_uniform_capacity_is_tight_on_the_diagonal():
    for network, cls in REGION_SIZES:
        h, _ = builtin_region(network, cls)
        t = uniform_capacity(h)
        assert contains(h, (t,) * h.dim)
        assert not contains(h, (t + Fraction(1, 1000),) * h.dim)


def test_uniform_le_average_across_catalog():
    for network, cls in REGION_SIZES:
        h, _ = builtin_region(network, cls)
        assert uniform_capacity(h) <= average_capacity(h)


def test_contains_examples():
    h, _ = builtin_region("gbutterfly", "coding")
    assert contains(h, (Fraction(2, 3),) * 4)
    assert not contains(h, (1, 1, 1, 1))
    for network, cls in REGION_SIZES:
        region, _ = builtin_region(network, cls)
        assert contains(region, (0,) * region.dim)


def test_contains_dimension_mismatch():
    h, _ = builtin_region("fano", "coding")
    with pytest.raises(ValueError):
        contains(h, (1, 1))


def test_interval_and_cube():
    interval = hrep(1, [((-1,), 0), ((1,), 1)])
    assert enumerate_vertices(interval).vertices == ((Fraction(0),), (Fraction(1),))
    cube = hrep(3, [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
                    ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
    assert len(enumerate_vertices(cube)) == 8
    assert uniform_capacity(cube) == 1


def test_unbounded_raises():
    quadrant = hrep(2, [((-1, 0), 0), ((0, -1), 0)])
    with pytest.raises(UnboundedPolyhedronError):
        enumerate_vertices(quadrant)
    slab = hrep(2, [((-1, 0), 0), ((1, 0), 1)])  # free second coordinate
    with pytest.raises(UnboundedPolyhedronError):
        enumerate_vertices(slab)


def test_empty_polytope_enumerates_empty():
    empty = hrep(2, [((1, 0), -1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)])
    assert enumerate_vertices(empty).vertices == ()


# ---------------------------------------------------------------------------
# the subset loops vertex enumeration used before the integer walk, kept as
# the reference for the differential tests below


def _frac_rref(rows: Iterable[Sequence[Fraction]], ncols: int):
    """Gauss-Jordan elimination pivoting only in the first ``ncols``
    columns (any later columns ride along, as an augmented block).

    Returns the reduced rows and the pivot column of each leading row.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][col]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
    return work, pivots


def _frac_rank(rows: Iterable[Sequence[Fraction]]) -> int:
    rows = list(rows)
    return len(_frac_rref(rows, len(rows[0]))[1]) if rows else 0


def _ref_solve_square(rows, rhs):
    n = len(rows)
    work, pivots = _frac_rref([(*row, b) for row, b in zip(rows, rhs)], n)
    if len(pivots) < n:
        return None
    return tuple(row[n] for row in work)


def _ref_nullspace(rows, ncols):
    work, pivots = _frac_rref(rows, ncols)
    basis = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -work[i][fc]
        basis.append(tuple(v))
    return basis


def _reference_vertices(h):
    m = h.dim
    rows = [hs.coeffs for hs in h.halfspaces]
    if m:
        if _frac_rank(rows) < m:
            raise UnboundedPolyhedronError("constraint matrix is rank deficient")
        for subset in combinations(range(len(rows)), m - 1):
            sub = [rows[i] for i in subset]
            if _frac_rank(sub) != m - 1:
                continue
            null = _ref_nullspace(sub, m)
            if len(null) != 1:
                continue
            d = null[0]
            for direction in (d, tuple(-x for x in d)):
                if all(sum(c * x for c, x in zip(r, direction)) <= 0 for r in rows):
                    raise UnboundedPolyhedronError(
                        f"unbounded along direction {tuple(map(str, direction))}"
                    )
    hs = h.halfspaces
    found = set()
    for subset in combinations(range(len(hs)), m):
        sol = _ref_solve_square([hs[i].coeffs for i in subset], [hs[i].bound for i in subset])
        if sol is None or sol in found:
            continue
        if contains(h, sol):
            found.add(sol)
    return VRep(tuple(sorted(found)))


def _outcome(enumerate_, h):
    try:
        return enumerate_(h)
    except UnboundedPolyhedronError as exc:
        return str(exc)


KINDS = ("bounded", "empty", "degenerate", "fractional", "rank-deficient", "random")


def _random_hrep(rng, dim, kind):
    """A small H-rep of one kind plus a few random rows."""
    unit = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rows = []
    if kind in ("bounded", "empty", "degenerate", "fractional"):
        rows += [(tuple(-x for x in e), 0) for e in unit]
    if kind in ("bounded", "empty", "fractional"):
        rows.append((tuple(rng.randint(1, 3) for _ in unit), rng.randint(dim, 3 * dim)))
    if kind == "empty":
        rows.append(((1,) * dim, -1))
    if kind == "degenerate":
        # a simplex cut through two of its vertices, a repeated and a scaled row
        rows += [((1,) * dim, 1), (tuple(int(j < 2) for j in range(dim)), 1)]
        rows += [rows[-1], (tuple(2 * c for c in rows[0][0]), 0)]
    size = (dim if kind == "random" else len(rows)) + rng.randint(1, 3)
    while len(rows) < size:
        if kind == "fractional":
            coeffs = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
            bound = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        else:
            coeffs = tuple(rng.randint(-3, 3) for _ in range(dim))
            bound = rng.randint(-1, 6)
        if kind == "rank-deficient":
            coeffs = coeffs[:-1] + (0,)
        if any(coeffs) or bound >= 0:  # zero rows only as tautologies
            rows.append((coeffs, bound))
    rng.shuffle(rows)
    return hrep(dim, rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_vertices_match_the_subset_loops(dim):
    import random

    rng = random.Random(dim)
    seen = set()
    for trial in range(36):
        kind = KINDS[trial % len(KINDS)]
        h = _random_hrep(rng, dim, kind)
        want = _same_as_the_subset_loops(h)
        if isinstance(want, str):
            seen.add(want.split(" along")[0])
        else:
            seen.add("vertices" if len(want) else "empty")
            if any(len(tight_constraints(h, v)) > dim for v in want):
                seen.add("degenerate")
    expected = {"vertices", "empty", "unbounded", "constraint matrix is rank deficient"}
    assert expected | ({"degenerate"} if dim > 1 else set()) <= seen


def test_vertices_match_the_subset_loops_on_the_catalog():
    for network in ("gbutterfly", "fano", "nonfano", "vamos"):
        for cls in region_classes(network):
            h, _ = builtin_region(network, cls)
            assert enumerate_vertices(h) == _reference_vertices(h), (network, cls)


def _same_as_the_subset_loops(h):
    """Both entry points of the walk agree with the reference; returns its outcome."""
    want = _outcome(_reference_vertices, h)
    assert _outcome(enumerate_vertices, h) == want, hrep_to_text(h)
    assert _outcome(ensure_bounded, h) == (want if isinstance(want, str) else None)
    return want


def _unit(dim, i, sign=1):
    return tuple(sign * int(j == i) for j in range(dim))


def test_walk_on_multiword_rational_coefficients():
    # every input entry already needs several machine words, and the
    # exact divisions of the tableau run on far larger minors
    rng = random.Random(101)
    big = 10**25
    outcomes = []
    for dim in (2, 3, 4):
        for _ in range(8):
            rows = [(tuple(Fraction(-rng.randint(1, big), rng.randint(1, big)) * x
                           for x in _unit(dim, i)), 0) for i in range(dim)]
            if len(outcomes) % 2:  # a positive cap; without it most systems are unbounded
                rows.append((tuple(Fraction(rng.randint(1, big), rng.randint(1, big)) for _ in range(dim)),
                             Fraction(rng.randint(big, 10 * big), rng.randint(1, big))))
            while len(rows) < dim + 4:
                coeffs = tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(dim))
                rows.append((coeffs, Fraction(rng.randint(-big, 10 * big), rng.randint(1, big))))
            rng.shuffle(rows)
            outcomes.append(_same_as_the_subset_loops(hrep(dim, rows)))
    assert any(isinstance(w, VRep) and len(w) > dim for w in outcomes)
    assert any(isinstance(w, str) and "along" in w for w in outcomes)


def test_walk_on_negative_pivots_and_parallel_rows():
    # rows lead with negative entries, and each system repeats a row,
    # rescales one, flips one and adds a parallel row with another bound
    rng = random.Random(202)
    outcomes = []
    for dim in (2, 3, 4):
        for _ in range(10):
            rows = [(_unit(dim, i, -1), 0) for i in range(dim)]
            rows.append(((1,) * dim, rng.randint(1, 2 * dim)))
            while len(rows) < dim + 3:
                coeffs = (-rng.randint(1, 3),) + tuple(rng.randint(-3, 3) for _ in range(dim - 1))
                rows.append((coeffs, rng.randint(-2, 6)))
            (c1, b1), (c2, b2), (c3, b3) = rng.sample(rows, 3)
            rows.append((c1, b1))
            rows.append((tuple(3 * x for x in c2), 3 * b2))
            rows.append((tuple(-x for x in c3), rng.randint(-2, 2) - b3))
            rows.append((c3, b3 + rng.choice((-1, 1))))
            rng.shuffle(rows)
            outcomes.append(_same_as_the_subset_loops(hrep(dim, rows)))
    assert any(isinstance(w, VRep) and len(w) for w in outcomes)
    assert any(w == VRep(()) for w in outcomes)


def test_walk_on_lines_whose_ends_coincide():
    # single points, and supporting planes that touch a box in one vertex:
    # the feasible segment of many lines is one point
    cases = []
    for dim in (1, 2, 3, 4):
        point = [(_unit(dim, i), i + 1) for i in range(dim)]
        point += [(_unit(dim, i, -1), -(i + 1)) for i in range(dim)]
        cases.append((hrep(dim, point), 1))
        box = [(_unit(dim, i, s), 1) for i in range(dim) for s in (1, -1)]
        apex = [((1,) * dim, dim), ((-1,) + (1,) * (dim - 1), dim)]
        cases.append((hrep(dim, box + apex), 2**dim))
    for h, count in cases:
        assert len(_same_as_the_subset_loops(h)) == count


def test_walk_on_lines_cut_off_by_a_parallel_row():
    # a tighter parallel row meets the line of a looser one in 0 <= negative
    rng = random.Random(303)
    for dim in (2, 3, 4):
        for _ in range(6):
            rows = [(_unit(dim, i, -1), 0) for i in range(dim)]
            rows += [(_unit(dim, i), rng.randint(2, 4)) for i in range(dim)]
            rows += [(_unit(dim, i), 1) for i in range(dim)]
            rows.append(((1,) * dim, rng.randint(1, dim)))
            rng.shuffle(rows)
            want = _same_as_the_subset_loops(hrep(dim, rows))
            assert len(want) > 1 and all(max(v) <= 1 for v in want)
    empty = hrep(2, [((1, 0), 1), ((-1, 0), -2), ((0, 1), 1), ((0, -1), 0)])
    assert _same_as_the_subset_loops(empty) == VRep(())


@pytest.mark.parametrize("dim", [6, 7])
def test_vertices_match_the_subset_loops_in_high_dimension(dim):
    rng = random.Random(dim)
    seen = set()
    for trial in range(18):
        h = _random_hrep(rng, dim, KINDS[trial % len(KINDS)])
        if len(h.halfspaces) > dim + 3:  # the reference takes seconds on these
            continue
        want = _same_as_the_subset_loops(h)
        seen.add(want.split(" along")[0] if isinstance(want, str) else bool(len(want)))
    assert {True, False, "unbounded", "constraint matrix is rank deficient"} <= seen


def test_integer_rank_matches_the_fraction_rank():
    rng = random.Random(404)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(0, 8)
        span = rng.choice((2, 10**30))
        basis = [[rng.randint(-span, span) for _ in range(m + 1)] for _ in range(rng.randint(1, m))]
        rows = [[sum(rng.randint(-2, 2) * b[k] for b in basis) for k in range(m + 1)] for _ in range(n)]
        assert rateregion._rank(rows, m) == _frac_rank([[Fraction(x) for x in r[:m]] for r in rows])


def test_dimension_zero_has_the_empty_vertex():
    h = hrep(0, [((), 0), ((), 3)])
    assert enumerate_vertices(h) == _reference_vertices(h) == VRep(((),))


def test_vertex_subset_guard_comes_before_any_elimination(monkeypatch):
    # rank deficient (the last coordinate is free), so elimination would
    # raise UnboundedPolyhedronError; the guard must speak first
    h = hrep(3, [((1, i, 0), 1) for i in range(6)])
    monkeypatch.setattr(rateregion, "VERTEX_WORK_GUARD", 539)  # C(6, 2) * 6 * (3 + 3) = 540
    for call in (enumerate_vertices, ensure_bounded):
        with pytest.raises(ValueError, match="guard") as info:
            call(h)
        assert not isinstance(info.value, UnboundedPolyhedronError)
    monkeypatch.setattr(rateregion, "VERTEX_WORK_GUARD", 540)
    with pytest.raises(UnboundedPolyhedronError, match="rank deficient"):
        enumerate_vertices(h)


def test_uniform_capacity_requires_origin():
    shifted = hrep(1, [((-1,), -1), ((1,), 2)])  # 1 <= r <= 2
    with pytest.raises(ValueError):
        uniform_capacity(shifted)


def _solve_affine(points, target, dim):
    """lambda >= 0 with sum 1 and sum lambda*points == target, by exact
    elimination over an affinely independent subset; None if infeasible."""
    rows = dim + 1
    for size in range(1, dim + 2):
        for subset in combinations(range(len(points)), size):
            aug = [[Fraction(points[j][r]) for j in subset] + [Fraction(target[r])] for r in range(dim)]
            aug.append([Fraction(1)] * size + [Fraction(1)])
            # gaussian elimination on a (dim+1) x (size+1) augmented system
            work = [row[:] for row in aug]
            pivots = []
            r = 0
            for c in range(size):
                pr = next((k for k in range(r, rows) if work[k][c] != 0), None)
                if pr is None:
                    continue
                work[r], work[pr] = work[pr], work[r]
                pv = work[r][c]
                work[r] = [x / pv for x in work[r]]
                for k in range(rows):
                    if k != r and work[k][c] != 0:
                        f = work[k][c]
                        work[k] = [x - f * y for x, y in zip(work[k], work[r])]
                pivots.append(c)
                r += 1
            if len(pivots) < size:
                continue  # affinely dependent subset; a smaller one covers it
            if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in work):
                continue
            lam = [Fraction(0)] * size
            for k, c in enumerate(pivots):
                lam[c] = work[k][-1]
            if all(x >= 0 for x in lam):
                return lam
    return None


@pytest.mark.parametrize(
    "network,cls",
    [
        ("fano", "coding"),
        ("fano", "linear-odd"),
        ("fano", "routing"),
        ("nonfano", "coding"),
        ("nonfano", "linear-even"),
        ("nonfano", "routing"),
        ("vamos", "routing"),
        ("gbutterfly", "coding"),
        ("gbutterfly", "routing"),
    ],
)
def test_no_vertex_is_a_convex_combination_of_the_others(network, cls):
    h, _ = builtin_region(network, cls)
    verts = enumerate_vertices(h).vertices
    for i, v in enumerate(verts):
        others = [u for j, u in enumerate(verts) if j != i]
        assert _solve_affine(others, v, h.dim) is None, (network, cls, v)


@pytest.mark.parametrize(
    "network,cls",
    [
        ("fano", "coding"),
        ("fano", "linear-odd"),
        ("fano", "routing"),
        ("nonfano", "coding"),
        ("nonfano", "linear-even"),
        ("nonfano", "routing"),
        ("vamos", "routing"),
    ],
)
def test_hrep_membership_equals_hull_membership_on_random_points(network, cls):
    # independent cross-validation of vertex enumeration: a rational point
    # satisfies the inequality system iff it is a convex combination of
    # the enumerated vertices
    import random
    import zlib

    rng = random.Random(zlib.crc32(f"{network}/{cls}".encode()))
    h, _ = builtin_region(network, cls)
    verts = list(enumerate_vertices(h).vertices)
    hi = int(max(max(v) for v in verts)) + 1
    probes = [
        (Fraction(0),) * h.dim,                      # inside (origin)
        (uniform_capacity(h),) * h.dim,              # boundary of the diagonal
        (Fraction(hi),) * h.dim,                     # outside (beyond every vertex)
    ]
    probes += [
        tuple(Fraction(rng.randrange(-1, hi * 4 + 1), 4) for _ in range(h.dim))
        for _ in range(40)
    ]
    for point in probes:
        in_h = contains(h, point)
        in_hull = _solve_affine(verts, point, h.dim) is not None
        assert in_h == in_hull, (network, cls, point)


def test_an_infeasible_point_is_not_extreme():
    h, _ = builtin_region("fano", "coding")
    vertex = enumerate_vertices(h).vertices[0]
    outside = tuple(x + 1000 for x in vertex)
    assert not contains(h, outside) and not is_extreme(h, outside)


def test_every_vertex_has_full_rank_tight_constraints():
    for network, cls in REGION_SIZES:
        h, _ = builtin_region(network, cls)
        for v in enumerate_vertices(h):
            tights = tight_constraints(h, v)
            assert len(tights) >= h.dim
            assert _frac_rank([h.halfspaces[i].coeffs for i in tights]) == h.dim
            assert is_extreme(h, v)


# ---------------------------------------------------------------------------
# transfer


def test_transfer_ingleton():
    b = transfer_vamos(INGLETON_COEFFS)
    assert b.message_coeffs == (1, 2, 2, 1)
    assert b.edge_coeffs == (2, 1, 1, 1)
    assert (b.cy_coeff, b.bx_coeff) == (0, 0)
    assert b.reducible
    assert b.rate_coeffs == (1, 2, 2, 1) and b.n_coeff == 5
    # exactly the extra plane of the vamos linear region
    h, _ = builtin_region("vamos", "linear")
    assert b.rate_halfspace() in h.halfspaces


def test_transfer_zhang_yeung():
    b = transfer_vamos(ZHANG_YEUNG_COEFFS)
    assert b.rate_coeffs == (4, 4, 2, 1) and b.n_coeff == 10
    assert b.cy_coeff == 1
    assert b.reducible


def test_transfer_zhang_yeung_swapped():
    b = transfer_vamos(ZHANG_YEUNG_SWAPPED_COEFFS)
    assert b.message_coeffs == (1, 2, 4, 4)
    assert b.edge_coeffs == (5, 2, 2, 1)
    assert b.cy_coeff == -1
    assert not b.reducible
    with pytest.raises(ValueError):
        b.rate_halfspace()


def test_transfer_zero_and_arity():
    b = transfer_vamos(transfer_coefficients([0] * 10))
    assert b.reducible and b.rate_coeffs == (0, 0, 0, 0) and b.n_coeff == 0
    with pytest.raises(ValueError):
        transfer_coefficients([1, 2, 3])


def test_transfer_is_linear():
    import random

    rng = random.Random(5)
    for _ in range(50):
        c1 = transfer_coefficients([Fraction(rng.randrange(-4, 5)) for _ in range(10)])
        c2 = transfer_coefficients([Fraction(rng.randrange(-4, 5)) for _ in range(10)])
        alpha, beta = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4))
        mixed = transfer_coefficients(
            [alpha * x + beta * y for x, y in zip(c1.a, c2.a)]
        )
        b1, b2, bm = transfer_vamos(c1), transfer_vamos(c2), transfer_vamos(mixed)
        for field in ("message_coeffs", "edge_coeffs"):
            assert getattr(bm, field) == tuple(
                alpha * x + beta * y
                for x, y in zip(getattr(b1, field), getattr(b2, field))
            )
        assert bm.cy_coeff == alpha * b1.cy_coeff + beta * b2.cy_coeff
        assert bm.bx_coeff == alpha * b1.bx_coeff + beta * b2.bx_coeff


# ---------------------------------------------------------------------------
# text formats


def test_fraction_formatting():
    assert frac_str(Fraction(4, 5)) == "4/5"
    assert frac_str(Fraction(2)) == "2"
    assert parse_fraction("5/2") == Fraction(5, 2)
    assert parse_fraction("-3") == -3
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    with pytest.raises(ValueError):
        parse_fraction("pi")


def test_hrep_round_trip():
    h, _ = builtin_region("nonfano", "linear-even")
    again = parse_hrep(hrep_to_text(h))
    assert again == h


def test_hrep_parse_handles_comments_and_rationals():
    h = parse_hrep("# cube slice\n-1 0 <= 0\n1 0 <= 1/2\n0 -1 <= 0\n0 1 <= 1\n")
    assert len(h.halfspaces) == 4
    assert h.halfspaces[1].bound == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "1 2 3", "1 <= 1\n1 2 <= 1", "a b <= 1"])
def test_hrep_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_hrep(bad)


def test_vrep_is_sorted():
    v = vrep([(1, 0), (0, 1), (0, 0)])
    assert v.vertices == ((0, 0), (0, 1), (1, 0))


def test_halfspace_tautology_and_contradiction():
    halfspace((0, 0), 1)
    with pytest.raises(ValueError):
        halfspace((0, 0), -1)
    # tautological rows are carried but never tight at a vertex
    h = hrep(1, [((-1,), 0), ((1,), 1), ((0,), 5)])
    assert enumerate_vertices(h).vertices == ((Fraction(0),), (Fraction(1),))
