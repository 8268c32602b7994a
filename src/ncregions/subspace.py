"""Subspaces of GF(q)^d: canonical form, lattice operations, enumeration.

Subspaces stand in for random variables when evaluating linear rank
inequalities: the entropy of a set of subspace-valued variables is the
dimension of the join of their subspaces.  Canonical form is the RREF
of a basis, so equal subspaces are structurally equal, hashable, and
usable as table indices.

For bulk scans, :class:`SubspaceLattice` enumerates all subspaces of an
ambient space once and precomputes the pairwise join table; evaluating
an entropy then folds indices through the table instead of doing linear
algebra per query.  The table is built without elimination: every RREF
basis is generated directly, each subspace is recorded by the points
(lines) it contains, and A + B is reached by adding A's basis points to
B one at a time, each step a table row of a single point.
:func:`lattice_size` owns the limits of a lattice (the enumeration
guard, the field and the join-table guard) and checks them without
enumerating, before any build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from itertools import combinations

import numpy as np

from .ff import (
    PrimeField,
    PrimeFieldMatrix,
    mat,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    mat_stack,
    mat_transpose,
    power_exceeds,
)

ENUMERATION_GUARD = 2**20
# Bound on count_subspaces(q, d)^2, the entries of a lattice's join table.
LATTICE_TABLE_GUARD = 2**24
# Bytes of the containment test a lattice build gathers at a time: at 1 MiB
# the traced peak of GF(2)^6, GF(3)^5 or GF(7)^4 is its join table plus 2-4 MiB.
_BITMAP_BYTES = 1 << 20


@dataclass(frozen=True)
class Subspace:
    field: PrimeField
    ambient_dim: int
    basis: PrimeFieldMatrix  # RREF, no zero rows

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width differs from ambient dimension")
        if self.basis != mat_rref(self.basis):
            raise ValueError("basis is not in canonical (RREF) form")

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim


def subspace_span(q: int, d: int, generators: Iterable[Sequence[int]]) -> Subspace:
    """Canonical subspace spanned by the given vectors of GF(q)^d."""
    fld = PrimeField(q)
    rows = [list(v) for v in generators]
    for v in rows:
        if len(v) != d:
            raise ValueError(f"generator {v} does not have length {d}")
    return Subspace(fld, d, mat_rref(mat(fld, rows, cols=d)))


def _same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")


def join(a: Subspace, b: Subspace) -> Subspace:
    """Canonical A + B."""
    _same_ambient(a, b)
    return Subspace(a.field, a.ambient_dim, mat_rref(mat_stack(a.basis, b.basis)))


def orthogonal_complement(s: Subspace) -> Subspace:
    """The coordinate annihilator {v : b . v = 0 for all basis rows b}.

    Over a prime field the standard dot product is non-degenerate, so
    complementing twice returns the original subspace, which is what
    makes the intersection-via-annihilators trick below exact.
    """
    return Subspace(s.field, s.ambient_dim, mat_nullspace(s.basis))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Canonical A intersect B, via stacked coordinate constraints."""
    _same_ambient(a, b)
    constraints = mat_stack(
        orthogonal_complement(a).basis, orthogonal_complement(b).basis
    )
    return Subspace(a.field, a.ambient_dim, mat_nullspace(constraints))


@dataclass(frozen=True)
class LinearMapBetweenSubspaces:
    """A linear map GF(q)^{domain_dim} -> GF(q)^{codomain_dim}.

    The matrix acts on column vectors: v maps to matrix . v.
    """

    field: PrimeField
    domain_dim: int
    codomain_dim: int
    matrix: PrimeFieldMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.codomain_dim or self.matrix.cols != self.domain_dim:
            raise ValueError("matrix shape does not match the declared ambients")


def preimage(f: LinearMapBetweenSubspaces, target: Subspace) -> Subspace:
    """Canonical f^{-1}(target) inside the domain."""
    if target.field != f.field or target.ambient_dim != f.codomain_dim:
        raise ValueError("target does not live in the map's codomain")
    annihilator = orthogonal_complement(target).basis
    constraints = mat_mul(annihilator, f.matrix)
    return Subspace(f.field, f.domain_dim, mat_nullspace(constraints))


def image(f: LinearMapBetweenSubspaces, source: Subspace) -> Subspace:
    if source.field != f.field or source.ambient_dim != f.domain_dim:
        raise ValueError("source does not live in the map's domain")
    img = mat_mul(f.matrix, mat_transpose(source.basis))
    return Subspace(f.field, f.codomain_dim, mat_rref(mat_transpose(img)))


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^d."""
    if k < 0 or k > d:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(q: int, d: int) -> int:
    return sum(gaussian_binomial(d, k, q) for k in range(d + 1))


def check_enumeration_guard(q: int, d: int) -> None:
    """Refuse GF(q)^d when q^d exceeds ENUMERATION_GUARD, without building q^d."""
    if power_exceeds(q, d, ENUMERATION_GUARD):
        raise ValueError(f"{q}^{d} exceeds the enumeration guard {ENUMERATION_GUARD}")


def _ambient_field(q: int, d: int) -> PrimeField:
    """GF(q), once d is non-negative, q^d passes the enumeration guard and
    q is a supported prime, checked in that order."""
    if d < 0:
        raise ValueError(f"ambient dimension must be non-negative, got {d}")
    check_enumeration_guard(q, d)
    return PrimeField(q)


def lattice_size(q: int, d: int) -> int:
    """Subspace count of GF(q)^d once it passes the enumeration guard, the
    field check and the join-table guard of :class:`SubspaceLattice`, in
    that order; nothing is enumerated."""
    _ambient_field(q, d)
    size = count_subspaces(q, d)
    if size * size > LATTICE_TABLE_GUARD:
        raise ValueError(
            f"GF({q})^{d} has {size} subspaces; its {size}^2-entry join table "
            f"exceeds the guard {LATTICE_TABLE_GUARD}"
        )
    return size


def _digits(values: np.ndarray, q: int, k: int) -> np.ndarray:
    """The k base-q digits of each value, most significant first."""
    return values[:, None] // q ** np.arange(k - 1, -1, -1) % q


def _rref_bases(q: int, d: int) -> np.ndarray:
    """Every RREF basis of a subspace of GF(q)^d as one ``(n, d, d)``
    array, each basis padded with zero rows below its dimension.

    Order: dimension ascending, pivot columns lexicographic, then free
    entries counted lexicographically with the first free position most
    significant.
    """
    blocks = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, d) if j not in pivots]
            block = np.zeros((q ** len(free), d, d), dtype=np.int64)
            block[:, range(k), list(pivots)] = 1
            if free:
                rows, cols = zip(*free)
                block[:, rows, cols] = _digits(np.arange(q ** len(free)), q, len(free))
            blocks.append(block)
    return np.concatenate(blocks)


def _dims(bases: np.ndarray) -> np.ndarray:
    """Dimension of each padded RREF basis: its count of nonzero rows."""
    return bases.any(axis=2).sum(axis=1, dtype=np.int64)


def enumerate_subspaces(q: int, d: int) -> list[Subspace]:
    """All subspaces of GF(q)^d in a deterministic order, that of
    :func:`_rref_bases`: dimension ascending, pivot columns
    lexicographic, then free entries counted lexicographically with the
    first free position most significant.  Guarded by q^d <= 2^20.
    """
    fld = _ambient_field(q, d)
    bases = _rref_bases(q, d)
    return [
        Subspace(fld, d, mat(fld, basis[:k].tolist(), cols=d))
        for basis, k in zip(bases, _dims(bases))
    ]


@dataclass(frozen=True)
class SubspaceAssignment:
    """Named subspaces sharing one ambient space GF(q)^d."""

    field: PrimeField
    ambient_dim: int
    spaces: dict[str, Subspace]

    def __post_init__(self) -> None:
        for name, s in self.spaces.items():
            if s.field != self.field or s.ambient_dim != self.ambient_dim:
                raise ValueError(f"subspace {name} lives in a different ambient space")


def assignment(q: int, d: int, spaces: Mapping[str, Subspace]) -> SubspaceAssignment:
    return SubspaceAssignment(PrimeField(q), d, dict(spaces))


def entropy(assign: SubspaceAssignment, vars: Iterable[str]) -> int:
    """Rank of the named subspaces' stacked bases, the dimension of their join; 0 for none."""
    bases = []
    for name in vars:
        if name not in assign.spaces:
            raise KeyError(f"unknown variable {name!r}")
        bases.append(assign.spaces[name].basis)
    return mat_rank(mat_stack(*bases)) if bases else 0


def apply_ambient_transform(assign: SubspaceAssignment, m: PrimeFieldMatrix) -> SubspaceAssignment:
    """Apply one invertible coordinate change to every subspace."""
    fld = assign.field
    d = assign.ambient_dim
    f = LinearMapBetweenSubspaces(fld, d, d, m)
    return SubspaceAssignment(
        fld, d, {name: image(f, s) for name, s in assign.spaces.items()}
    )


def _points(q: int, d: int, bases: np.ndarray, starts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The points of every subspace, each named by the index of its line.

    ``bases`` are padded RREF bases in ascending dimension, and those of
    dimension k run from ``starts[k]`` to ``starts[k + 1]``.  A point is
    represented by its vector whose first nonzero entry is 1.  Applied to
    an RREF basis, the coefficient vectors of that form give exactly the
    subspace's vectors of that form, so ``points[k]`` (one row per
    subspace of dimension k) needs no elimination.  Also returns the
    point of each basis row, with 0 (the zero subspace) for padding rows.
    """
    place = q ** np.arange(d - 1, -1, -1)
    codes = bases @ place  # base-q code of every basis row
    line_of = np.zeros(q**d, dtype=np.int64)  # code of a point -> index of its line
    line_of[codes[starts[1] : starts[2], :1]] = np.arange(starts[1], starts[2])[:, None]
    points = [np.zeros((1, 0), dtype=np.int64)]  # the zero subspace has none
    for k in range(1, d + 1):
        # the codes of the vectors of GF(q)^k whose first nonzero entry is 1
        normalized = np.concatenate([np.arange(q**t, 2 * q**t) for t in range(k)])
        coeffs = _digits(normalized, q, k)
        points.append(line_of[(coeffs @ bases[starts[k] : starts[k + 1], :k]) % q @ place])
    return points, line_of[codes]


def _join_table(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimensions and pairwise join table of the subspaces of GF(q)^d, in
    the :func:`_rref_bases` order.

    Row p of a point is j where p lies in j, and otherwise the cover of
    j (a subspace one dimension up) through p.  The covers of j hold the
    points outside j once each, so each cover K of j writes K at its
    points in column j.  Every other row adds the subspace's basis points
    to each column one at a time: A + B = p1 + (p2 + ... + (pk + B)).
    """
    bases = _rref_bases(q, d)
    dims = _dims(bases)
    n = len(dims)
    starts = np.searchsorted(dims, np.arange(d + 3))  # first index of each dimension, or n
    points, basis_points = _points(q, d, bases, starts)
    del bases
    member = np.zeros((n, starts[2]), dtype=bool)  # member[K, p]: point p lies in K
    for k in range(1, d + 1):
        member[np.arange(starts[k], starts[k + 1])[:, None], points[k]] = True
    table = np.empty((n, n), dtype=np.int16)  # n <= 4,096 under the join-table guard
    table[0] = np.arange(n)
    for m in range(d):
        low, mid, high = starts[m : m + 3]
        inner = basis_points[low:mid, :m]
        per = max(1, _BITMAP_BYTES // max(inner.size, 1))
        for start in range(mid, high, per):
            # K contains j when K holds the basis points of j
            covers, parts = np.nonzero(member[start : min(start + per, high)][:, inner].all(axis=2))
            rows, parts, covers = covers + start - mid, parts + low, covers + start
            for column in points[m + 1].T:
                table[column[rows], parts] = covers
    for k in range(1, d + 1):
        own = np.arange(starts[k], starts[k + 1])[:, None]
        table[points[k], own] = own  # p + j = j for the points p of j
    for i in range(starts[2], n):
        row = table[basis_points[i, 0]]
        for p in basis_points[i, 1 : dims[i]]:
            row = table[p].take(row)
        table[i] = row
    return dims, table


class SubspaceLattice:
    """All subspaces of GF(q)^d with a precomputed pairwise join table.

    Indices follow the :func:`enumerate_subspaces` order, so the zero
    subspace is index 0 and dimensions ascend.  ``join_table`` (int16)
    and ``dims`` (int64) are read-only arrays built once from the RREF
    bases as integer arrays (see :func:`_join_table`), with no
    elimination and no :class:`Subspace` objects.  ``join_dims``, the
    int8 dimension of each join (N^2 bytes), is gathered on first use by
    a rank search.  ``spaces``, the subspaces themselves, is enumerated
    on first use: only witnesses and tests read it.
    """

    def __init__(self, q: int, d: int):
        lattice_size(q, d)
        self.q = q
        self.d = d
        self.dims, self.join_table = _join_table(q, d)
        self.dims.flags.writeable = False
        self.join_table.flags.writeable = False

    @cached_property
    def spaces(self) -> list[Subspace]:
        return enumerate_subspaces(self.q, self.d)

    @cached_property
    def join_dims(self) -> np.ndarray:
        """``dims[join_table]`` as a read-only int8 array: the dimension of
        each pairwise join (d <= 20 under the enumeration guard)."""
        out = self.dims.astype(np.int8)[self.join_table]
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        return len(self.dims)

    def join_indices(self, indices: Iterable[int]) -> int:
        acc = 0  # the zero subspace, the identity of join
        for i in indices:
            acc = int(self.join_table[acc, i])
        return acc


_LATTICE_CACHE: dict[tuple[int, int], SubspaceLattice] = {}


def lattice(q: int, d: int) -> SubspaceLattice:
    key = (q, d)
    if key not in _LATTICE_CACHE:
        _LATTICE_CACHE[key] = SubspaceLattice(q, d)
    return _LATTICE_CACHE[key]


# ---------------------------------------------------------------------------
# assignment files


def parse_assignment(text: str) -> SubspaceAssignment:
    """Parse the assignment format::

        ambient GF(2)^3
        A = span (1,0,0)
        W = span (1,1,0) (0,1,1)
        Z = span                        # zero subspace

    Coordinates are comma separated inside parentheses.
    """
    import re

    q = d = None
    spaces: dict[str, Subspace] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        header = re.fullmatch(r"ambient\s+GF\((\d+)\)\^(\d+)", line)
        if header:
            q, d = int(header.group(1)), int(header.group(2))
            continue
        m = re.fullmatch(r"(\w+)\s*=\s*span\b(.*)", line)
        if not m:
            raise ValueError(f"line {lineno}: cannot parse {raw.strip()!r}")
        if q is None or d is None:
            raise ValueError("ambient GF(q)^d header must come first")
        name, rest = m.group(1), m.group(2)
        vectors = []
        for vec in re.findall(r"\(([^)]*)\)", rest):
            coords = [int(tok) for tok in vec.split(",") if tok.strip() != ""]
            vectors.append(coords)
        spaces[name] = subspace_span(q, d, vectors)
    if q is None or d is None:
        raise ValueError("missing ambient GF(q)^d header")
    return SubspaceAssignment(PrimeField(q), d, spaces)


def assignment_to_text(assign: SubspaceAssignment) -> str:
    lines = [f"ambient GF({assign.field.p})^{assign.ambient_dim}"]
    for name in sorted(assign.spaces):
        s = assign.spaces[name]
        vecs = " ".join("(" + ",".join(map(str, row)) + ")" for row in s.basis.entries)
        lines.append(f"{name} = span {vecs}".rstrip())
    return "\n".join(lines) + "\n"
