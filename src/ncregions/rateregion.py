"""Exact rational polytopes: H-representations, vertex enumeration,
capacities, the bundled region catalog, and the four-variable transfer
operation that turns information/rank inequalities into rate bounds for
the vamos network.

All arithmetic is exact (Fractions and Python integers); no floating
point ever enters a region computation, so enumerated vertex sets can be
compared for exact equality against the cataloged expectations.

Vertex enumeration walks the subset tree of integer-scaled rows depth
first on one integer tableau of every row, taking one fraction-free
(Edmonds / Bareiss) Gauss-Jordan step per level and pruning dependent
prefixes: each (m-1)-row line decides boundedness, and one ratio test
over the other rows gives the two ends of its feasible segment, the only
vertices it can hold.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

# Most work vertex enumeration takes on, checked before any elimination:
# n rows in dimension m cost C(n, m-1) * n * (m + 3) units.  Each line from
# m-1 rows costs one fused pivot and one ratio test per row; a unit takes
# 0.04 us in dimension 2 and 0.16 us in dimension 10.
VERTEX_WORK_GUARD = 2**24


class UnboundedPolyhedronError(ValueError):
    pass


@dataclass(frozen=True)
class HalfSpace:
    """One inequality  coeffs . r <= bound.

    An all-zero coefficient row is only legal as a tautology (bound >= 0);
    with a negative bound it would be a bare contradiction, which is
    rejected rather than carried around.
    """

    coeffs: tuple[Fraction, ...]
    bound: Fraction

    def __post_init__(self) -> None:
        if self.bound < 0 and not any(self.coeffs):
            raise ValueError("contradictory halfspace: 0 <= negative bound")


@dataclass(frozen=True)
class HRep:
    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self) -> None:
        for hs in self.halfspaces:
            if len(hs.coeffs) != self.dim:
                raise ValueError("halfspace dimension mismatch")


@dataclass(frozen=True)
class VRep:
    """Vertex list, lexicographically sorted, no duplicates."""

    vertices: tuple[tuple[Fraction, ...], ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)


def halfspace(coeffs: Sequence, bound) -> HalfSpace:
    return HalfSpace(tuple(Fraction(c) for c in coeffs), Fraction(bound))


def hrep(dim: int, rows: Iterable[tuple[Sequence, object]]) -> HRep:
    return HRep(dim, tuple(halfspace(c, b) for c, b in rows))


def vrep(points: Iterable[Sequence]) -> VRep:
    pts = {tuple(Fraction(x) for x in p) for p in points}
    return VRep(tuple(sorted(pts)))


# ---------------------------------------------------------------------------
# core polytope operations


def contains(h: HRep, point: Sequence) -> bool:
    """Exact membership: every inequality satisfied, no tolerance."""
    pt = tuple(Fraction(x) for x in point)
    if len(pt) != h.dim:
        raise ValueError(f"point has dimension {len(pt)}, expected {h.dim}")
    return all(
        sum(c * x for c, x in zip(hs.coeffs, pt)) <= hs.bound for hs in h.halfspaces
    )


def _integer_row(hs: HalfSpace) -> list[int]:
    """``[a, b]``: the halfspace scaled by the positive lcm of its denominators."""
    scale = lcm(hs.bound.denominator, *(c.denominator for c in hs.coeffs))
    return [int(x * scale) for x in (*hs.coeffs, hs.bound)]


def _pivot(tab: list[list[int]], j: int, col: int, det: int) -> list[list[int]]:
    """One fraction-free Gauss-Jordan step (Edmonds / Bareiss) on ``col``.

    Row ``j``, negated if its entry is negative, becomes the pivot row;
    every other row is cancelled against it and divided exactly by
    ``det``, the previous (positive) pivot.  Each row that has not been a
    pivot stays a positive multiple of its original row plus multiples of
    the pivot rows, so it keeps its inequality sense.
    """
    piv = tab[j]
    p = piv[col]
    if p < 0:
        piv, p = [-x for x in piv], -p
    out = [
        [(p * x - f * y) // det for x, y in zip(row, piv)] if (f := row[col])
        else row if p == det else [p * x // det for x in row]
        for row in tab
    ]
    out[j] = piv
    return out


def _rank(tab: list[list[int]], m: int) -> int:
    """Rank of the integer rows ``tab`` in their first ``m`` columns."""
    det, rank = 1, 0
    for j in range(len(tab)):
        col = next((c for c in range(m) if tab[j][c]), None)
        if col is not None:
            tab, det = _pivot(tab, j, col, det), abs(tab[j][col])
            rank += 1
    return rank


def _walk(h: HRep) -> set:
    """Depth-first walk of the row subsets of ``h`` in lexicographic order.

    One integer tableau of every row ``[a, b]`` is kept reduced against
    the current subset (:func:`_pivot`); a row depends on it when its
    coefficients are all zero.  The last of m-1 rows is eliminated only as
    far as their line, on which each other row reads ``f x_free <= g``.
    The line is unbounded unless some ``f`` is positive and some negative,
    which is tested before anything else on it; then a ratio pass gives
    its two ends, kept as gcd-normalised ``(N, L)``, L > 0, for the point
    N / L, when every ``f = 0`` row has ``g >= 0``.
    """
    m, total = h.dim, len(h.halfspaces)
    if m == 0:
        return {((), 1)}
    work = comb(total, m - 1) * total * (m + 3)
    if work > VERTEX_WORK_GUARD:
        raise ValueError(
            f"vertex enumeration over C({total}, {m - 1}) * {total} * ({m} + 3) = "
            f"{work} units of work exceeds the guard of {VERTEX_WORK_GUARD}"
        )
    rows = [_integer_row(hs) for hs in h.halfspaces]
    if _rank(rows, m) < m:
        raise UnboundedPolyhedronError("constraint matrix is rank deficient")
    found: set = set()

    def line(fs: list, gs: list, basis: list, free: int, det: int) -> None:
        # basis: (pivot column, f, g) per basis row, which reads
        # det * x_col + f * x_free = g on the line; its own fs entry is 0
        def point(g: int, f: int) -> list:  # det * f * x at x_free = g / f
            num = [0] * m
            num[free] = g * det
            for c, fc, gc in basis:
                num[c] = gc * f - fc * g
            return num

        lo, hi = min(fs), max(fs)
        if lo >= 0 or hi <= 0:
            d = point(1, 0)  # the direction of growing x_free
            lead = next(x for x in reversed(d) if x)
            if not (hi <= 0 if lead > 0 else lo >= 0):
                lead = -lead
            direction = tuple(str(Fraction(x, lead)) for x in d)
            raise UnboundedPolyhedronError(f"unbounded along direction {direction}")
        # x_free lies in [lo_g / lo_f, hi_g / hi_f]; each f >= 0, and the
        # starting ends -1 / 0 and 1 / 0 stand for minus and plus infinity
        lo_g, lo_f, hi_g, hi_f = -1, 0, 1, 0
        for f, g in zip(fs, gs):
            if f > 0 and g * hi_f < hi_g * f:
                hi_g, hi_f = g, f
            elif f < 0 and g * lo_f < lo_g * f:
                lo_g, lo_f = -g, -f
            elif not f and g < 0:
                return
        if lo_g * hi_f > hi_g * lo_f:
            return
        for g, f in {(lo_g, lo_f), (hi_g, hi_f)}:
            num = point(g, f)
            k = gcd(*num, det * f)
            found.add((tuple(x // k for x in num), det * f // k))

    def visit(tab: list, det: int, basis: list, last: int) -> None:
        for j in range(last + 1, total - (m - 2 - len(basis))):
            row = tab[j]
            col = next((c for c in range(m) if row[c]), None)
            if col is None:
                continue
            if len(basis) < m - 2:
                visit(_pivot(tab, j, col, det), abs(row[col]), basis + [(j, col)], j)
                continue
            # fused last step: only the free column and the bound
            free = (m - 1) * m // 2 - col - sum(c for _, c in basis)
            p, a, b = row[col], row[free], row[m]
            if p < 0:
                p, a, b = -p, -a, -b
            fs = [(p * r[free] - r[col] * a) // det for r in tab]
            gs = [(p * r[m] - r[col] * b) // det for r in tab]
            pivots = [(c, fs[i], gs[i]) for i, c in basis] + [(col, a, b)]
            for i, _ in basis:
                fs[i] = gs[i] = 0
            line(fs, gs, pivots, free, p)

    if m == 1:
        line([r[0] for r in rows], [r[1] for r in rows], [], 0, 1)
    else:
        visit(rows, 1, [], -1)
    return found


def ensure_bounded(h: HRep) -> None:
    """Raise UnboundedPolyhedronError unless the recession cone is {0}.

    The cone {d : A d <= 0} is nonzero exactly when A is rank deficient
    (it then contains a line) or some rank-(m-1) subset of rows leaves a
    one-dimensional nullspace whose direction satisfies all inequalities;
    checking those finitely many candidate extreme rays is complete.
    This is the walk of :func:`enumerate_vertices`, its vertices dropped.
    """
    _walk(h)


def enumerate_vertices(h: HRep) -> VRep:
    """All extreme points of a bounded H-representation.

    Every vertex is an end of the feasible segment on some line left by
    m-1 independent inequalities; those ends are collected, deduplicated
    and sorted.  An empty polytope yields an empty VRep; an unbounded
    system raises, and a system of n rows in dimension m with
    C(n, m-1) * n * (m + 3) above ``VERTEX_WORK_GUARD`` raises ValueError
    before any work.
    """
    found = _walk(h)
    return VRep(tuple(sorted(tuple(Fraction(x, den) for x in num) for num, den in found)))


def tight_constraints(h: HRep, point: Sequence) -> list[int]:
    pt = tuple(Fraction(x) for x in point)
    return [
        i
        for i, hs in enumerate(h.halfspaces)
        if sum(c * x for c, x in zip(hs.coeffs, pt)) == hs.bound
    ]


def is_extreme(h: HRep, point: Sequence) -> bool:
    """A feasible point is extreme iff its tight constraints have full rank."""
    if not contains(h, point):
        return False
    tights = [_integer_row(h.halfspaces[i]) for i in tight_constraints(h, point)]
    return _rank(tights, h.dim) == h.dim


def uniform_capacity(h: HRep) -> Fraction:
    """Largest t with t*(1,...,1) inside the region.

    Requires the region to contain the origin, which every rate region
    here does.  Along the diagonal each inequality with positive
    coefficient sum s caps t at bound/s; the minimum cap is exact.
    """
    origin = (Fraction(0),) * h.dim
    if not contains(h, origin):
        raise ValueError("region does not contain the origin")
    caps = []
    for hs in h.halfspaces:
        s = sum(hs.coeffs)
        if s > 0:
            caps.append(hs.bound / s)
    if not caps:
        raise UnboundedPolyhedronError("diagonal direction is unbounded")
    return min(caps)


def average_capacity(h: HRep) -> Fraction:
    """Maximum coordinate mean over the polytope (attained at a vertex)."""
    verts = enumerate_vertices(h)
    if not len(verts):
        raise ValueError("empty polytope has no average capacity")
    return max(sum(v) / h.dim for v in verts)


# ---------------------------------------------------------------------------
# transfer of four-variable inequalities to vamos rate bounds


@dataclass(frozen=True)
class TransferCoefficients:
    """Coefficients a1..a10 of a four-variable inequality of the shape

        a1 I(A;B) <= a2 I(A;B|C) + a3 I(A;C|B) + a4 I(B;C|A)
                   + a5 I(A;B|D) + a6 I(A;D|B) + a7 I(B;D|A)
                   + a8 I(C;D)   + a9 I(C;D|A) + a10 I(C;D|B).
    """

    a: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.a) != 10:
            raise ValueError("exactly ten coefficients required")


def transfer_coefficients(values: Sequence) -> TransferCoefficients:
    return TransferCoefficients(tuple(Fraction(v) for v in values))


INGLETON_COEFFS = transfer_coefficients([1, 1, 0, 0, 1, 0, 0, 1, 0, 0])
ZHANG_YEUNG_COEFFS = transfer_coefficients([1, 2, 1, 1, 1, 0, 0, 1, 0, 0])
ZHANG_YEUNG_SWAPPED_COEFFS = transfer_coefficients([1, 1, 0, 0, 2, 1, 1, 1, 0, 0])


@dataclass(frozen=True)
class VamosBound:
    """Entropy bound induced on the vamos message/edge variables.

    lhs:  message_coeffs . (H(a),H(b),H(c),H(d)) + cy_coeff*I(c;y)
          + bx_coeff*I(b;x)
    rhs:  edge_coeffs . (H(w),H(x),H(y),H(z))

    When both slack coefficients are nonnegative (``reducible``) the
    slack terms can be dropped and substituting H(msg)=k, H(edge)=n
    yields the rate bound  rate_coeffs . k <= n_coeff * n.
    """

    message_coeffs: tuple[Fraction, Fraction, Fraction, Fraction]
    cy_coeff: Fraction
    bx_coeff: Fraction
    edge_coeffs: tuple[Fraction, Fraction, Fraction, Fraction]
    reducible: bool
    rate_coeffs: tuple[Fraction, Fraction, Fraction, Fraction] | None
    n_coeff: Fraction | None

    def rate_halfspace(self) -> HalfSpace:
        if not self.reducible:
            raise ValueError("bound is not reducible to a rate bound")
        assert self.rate_coeffs is not None and self.n_coeff is not None
        return HalfSpace(self.rate_coeffs, self.n_coeff)


def transfer_vamos(c: TransferCoefficients) -> VamosBound:
    (a1, a2, a3, a4, a5, a6, a7, a8, a9, a10) = c.a
    message = (
        a2 + a3 + a4,
        a2 + a3 + a8 + a9 + a10,
        a5 + a7 + a8 + a9 + a10,
        a5 + a6 + a7,
    )
    cy = a2 - a1 - a7
    bx = a4 + a7 - a10
    edge = (
        a5 + a6 + a7 + a8 + a9 + a10,
        a2 + a3 + a4 + a7,
        -a1 + a2 + a5 + a9,
        a3 + a8 + a10,
    )
    reducible = a2 >= a1 + a7 and a4 + a7 >= a10
    if reducible:
        rate_coeffs = message
        n_coeff = (
            -a1 + 2 * a2 + 2 * a3 + a4 + 2 * a5 + a6
            + 2 * a7 + 2 * a8 + 2 * a9 + 2 * a10
        )
    else:
        rate_coeffs = None
        n_coeff = None
    return VamosBound(message, cy, bx, edge, reducible, rate_coeffs, n_coeff)


# ---------------------------------------------------------------------------
# bundled region catalog


def _nonneg(m: int) -> list[tuple[tuple[int, ...], int]]:
    return [(tuple(-1 if j == i else 0 for j in range(m)), 0) for i in range(m)]


_GB_CODING_PLANES = _nonneg(4) + [
    ((0, 1, 0, 0), 1),
    ((0, 0, 1, 0), 1),
    ((1, 1, 1, 0), 2),
    ((0, 1, 1, 1), 2),
    ((1, 1, 1, 1), 3),
]

_GB_CODING_VERTS = [
    (0, 0, 0, 0), (0, 0, 0, 2), (2, 0, 0, 0), (0, 1, 0, 0),
    (0, 0, 1, 0), (2, 0, 0, 1), (1, 0, 0, 2), (0, 0, 1, 1),
    (1, 1, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0),
    (0, 1, 0, 1), (1, 0, 1, 0),
]

_GB_ROUTING_PLANES = _GB_CODING_PLANES + [((0, 1, 1, 0), 1)]
_GB_ROUTING_VERTS = [v for v in _GB_CODING_VERTS if v != (0, 1, 1, 0)]

_FANO_CODING_PLANES = _nonneg(3) + [
    ((1, 0, 0), 1),
    ((0, 0, 1), 1),
    ((0, 1, 1), 2),
    ((1, 1, 0), 2),
]
_FANO_CODING_VERTS = [
    (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 2, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
]

_FANO_ODD_PLANES = _nonneg(3) + [
    ((1, 0, 0), 1),
    ((0, 0, 1), 1),
    ((1, 2, 2), 4),
    ((2, 1, 2), 4),
    ((2, 2, 1), 4),
]
_FANO_ODD_VERTS = [
    (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 2, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0),
    (Fraction(2, 3), Fraction(2, 3), 1),
    (1, Fraction(2, 3), Fraction(2, 3)),
    (Fraction(4, 5), Fraction(4, 5), Fraction(4, 5)),
]

_FANO_ROUTING_PLANES = _nonneg(3) + [
    ((1, 0, 0), 1),
    ((0, 0, 1), 1),
    ((1, 1, 1), 2),
]
_FANO_ROUTING_VERTS = [v for v in _FANO_CODING_VERTS if v != (1, 1, 1)]

_NONFANO_CODING_PLANES = _nonneg(3) + [
    ((1, 0, 0), 1),
    ((0, 1, 0), 1),
    ((0, 0, 1), 1),
]
_NONFANO_CODING_VERTS = [
    (0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1),
]

_NONFANO_EVEN_PLANES = _NONFANO_CODING_PLANES + [((1, 1, 1), Fraction(5, 2))]
_NONFANO_EVEN_VERTS = [v for v in _NONFANO_CODING_VERTS if v != (1, 1, 1)] + [
    (1, 1, Fraction(1, 2)),
    (1, Fraction(1, 2), 1),
    (Fraction(1, 2), 1, 1),
]

_NONFANO_ROUTING_PLANES = _nonneg(3) + [((1, 1, 1), 1)]
_NONFANO_ROUTING_VERTS = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]

_VAMOS_ROUTING_PLANES = _nonneg(4) + [
    ((2, 1, 0, 2), 2),
    ((1, 1, 1, 2), 2),
]
_VAMOS_ROUTING_VERTS = [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1),
    (1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 2, 0),
]

_VAMOS_SHANNON_PLANES = _nonneg(4) + [
    ((1, 0, 0, 0), 1),
    ((0, 0, 0, 1), 1),
    ((0, 1, 1, 0), 2),
    ((1, 1, 0, 0), 2),
    ((0, 0, 1, 1), 2),
]
_VAMOS_SHANNON_VERTS = [
    (0, 2, 0, 1), (0, 2, 0, 0), (1, 1, 1, 0), (1, 1, 0, 0),
    (1, 1, 0, 1), (1, 0, 0, 1), (0, 0, 0, 1), (0, 0, 0, 0),
    (1, 0, 0, 0), (1, 0, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1),
    (1, 0, 2, 0), (0, 0, 2, 0), (1, 1, 1, 1),
]


# Ingleton's bound, and Zhang-Yeung's first, are the rate bounds they transfer to
_VAMOS_LINEAR_PLANES = _VAMOS_SHANNON_PLANES + [
    astuple(transfer_vamos(INGLETON_COEFFS).rate_halfspace())
]
_VAMOS_LINEAR_VERTS = [
    (0, 0, 2, 0), (0, 0, 1, 1), (1, 0, 1, 1), (1, 0, 0, 0),
    (0, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1),
    (1, 1, 0, 0), (0, 2, 0, 0),
    (1, 1, Fraction(1, 2), 1), (1, Fraction(1, 2), 1, 1),
    (0, 2, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 2, 0),
]

_VAMOS_ZY_PLANES = _VAMOS_SHANNON_PLANES + [
    astuple(transfer_vamos(ZHANG_YEUNG_COEFFS).rate_halfspace()),
    ((2, 2, 4, 4), 11),
    ((1, 2, 4, 5), 11),
    ((5, 6, 6, 5), 20),
]


# Each (network, class): its planes and its expected vertices, None where
# no reference vertex list is cataloged.
_CATALOG: dict[tuple[str, str], tuple[list, list | None]] = {
    ("gbutterfly", "coding"): (_GB_CODING_PLANES, _GB_CODING_VERTS),
    ("gbutterfly", "routing"): (_GB_ROUTING_PLANES, _GB_ROUTING_VERTS),
    ("fano", "coding"): (_FANO_CODING_PLANES, _FANO_CODING_VERTS),
    ("fano", "linear-odd"): (_FANO_ODD_PLANES, _FANO_ODD_VERTS),
    ("fano", "routing"): (_FANO_ROUTING_PLANES, _FANO_ROUTING_VERTS),
    ("nonfano", "coding"): (_NONFANO_CODING_PLANES, _NONFANO_CODING_VERTS),
    ("nonfano", "linear-even"): (_NONFANO_EVEN_PLANES, _NONFANO_EVEN_VERTS),
    ("nonfano", "routing"): (_NONFANO_ROUTING_PLANES, _NONFANO_ROUTING_VERTS),
    ("vamos", "routing"): (_VAMOS_ROUTING_PLANES, _VAMOS_ROUTING_VERTS),
    ("vamos", "shannon-outer"): (_VAMOS_SHANNON_PLANES, _VAMOS_SHANNON_VERTS),
    ("vamos", "linear"): (_VAMOS_LINEAR_PLANES, _VAMOS_LINEAR_VERTS),
    ("vamos", "zy-outer"): (_VAMOS_ZY_PLANES, None),
}

# The general nonlinear region coincides with a linear class on three of
# the networks, so those class names are accepted as aliases.
_ALIASES: dict[tuple[str, str], str] = {
    ("gbutterfly", "linear"): "coding",
    ("fano", "linear-even"): "coding",
    ("nonfano", "linear-odd"): "coding",
}


def canonical_class(network: str, region_class: str) -> str:
    """Resolve class aliases, e.g. (fano, linear-even) -> coding."""
    resolved = _ALIASES.get((network, region_class), region_class)
    if (network, resolved) not in _CATALOG:
        raise KeyError(f"no region cataloged for network={network!r} class={region_class!r}")
    return resolved


def region_classes(network: str) -> tuple[str, ...]:
    canonical = [cls for (net, cls) in _CATALOG if net == network]
    aliases = [cls for (net, cls) in _ALIASES if net == network]
    if not canonical:
        raise KeyError(f"unknown network {network!r}")
    return tuple(canonical + aliases)


def builtin_region(network: str, region_class: str) -> tuple[HRep, VRep]:
    """The cataloged H-representation and expected vertex list.

    The expected VRep is empty for (vamos, zy-outer), where no reference
    vertex list is cataloged.
    """
    planes, expected = _CATALOG[network, canonical_class(network, region_class)]
    return hrep(len(planes[0][0]), planes), vrep(expected or ())


# ---------------------------------------------------------------------------
# textual formats


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {s!r}") from exc


def parse_hrep(text: str) -> HRep:
    """One inequality per line: ``c1 c2 ... cm <= b``.

    Entries are integers or p/q rationals; ``#`` starts a comment and
    blank lines are ignored.  All rows must share one dimension.
    """
    rows: list[tuple[list[Fraction], Fraction]] = []
    dim: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<=" not in line:
            raise ValueError(f"line {lineno}: missing '<='")
        lhs, _, rhs = line.partition("<=")
        coeffs = [parse_fraction(tok) for tok in lhs.split()]
        if not coeffs:
            raise ValueError(f"line {lineno}: no coefficients")
        bound = parse_fraction(rhs)
        if dim is None:
            dim = len(coeffs)
        elif dim != len(coeffs):
            raise ValueError(f"line {lineno}: expected {dim} coefficients")
        rows.append((coeffs, bound))
    if dim is None:
        raise ValueError("empty H-representation")
    return hrep(dim, rows)


def hrep_to_text(h: HRep) -> str:
    lines = [
        " ".join(frac_str(c) for c in hs.coeffs) + " <= " + frac_str(hs.bound)
        for hs in h.halfspaces
    ]
    return "\n".join(lines) + "\n"
