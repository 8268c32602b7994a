"""Subspaces of GF(q)^d: canonical form, lattice operations, enumeration.

Subspaces stand in for random variables when evaluating linear rank
inequalities: the entropy of a set of subspace-valued variables is the
dimension of the join of their subspaces.  Canonical form is the RREF
of a basis, so equal subspaces are structurally equal, hashable, and
usable as table indices.

For bulk scans, :class:`SubspaceLattice` enumerates all subspaces of an
ambient space once and precomputes the pairwise join table; evaluating
an entropy then folds indices through the table instead of doing linear
algebra per query.  The table is built without pairwise linear algebra:
each subspace is stored as a bitmask of its member vectors and gets one
orthogonal complement, and A + B = (A^perp & B^perp)^perp becomes an
AND of two masks plus a dict lookup.  :func:`lattice_size` owns the
limits of a lattice (the enumeration, join-table and mask guards) and
checks them without enumerating, before any build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from itertools import combinations, groupby, product

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
# Bound on count_subspaces(q, d)^2 * q^d, twice the mask bits ANDed while
# filling the table: GF(7)^4 (3.2e10) builds in ~2 s, GF(43)^3 (1.1e12) in ~41 s.
LATTICE_MASK_GUARD = 2**36
_BITMAP_BYTES = 1 << 22


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

    def vectors(self) -> list[tuple[int, ...]]:
        """All q^dim member vectors (small spaces only)."""
        p = self.field.p
        out = []
        for coeffs in product(range(p), repeat=self.dim):
            v = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis.entries):
                for j, x in enumerate(row):
                    v[j] = (v[j] + c * x) % p
            out.append(tuple(v))
        return out


def subspace_span(q: int, d: int, generators: Iterable[Sequence[int]]) -> Subspace:
    """Canonical subspace spanned by the given vectors of GF(q)^d."""
    fld = PrimeField(q)
    rows = [list(v) for v in generators]
    for v in rows:
        if len(v) != d:
            raise ValueError(f"generator {v} does not have length {d}")
    return Subspace(fld, d, mat_rref(mat(fld, rows, cols=d)))


def zero_subspace(q: int, d: int) -> Subspace:
    return subspace_span(q, d, [])


def full_subspace(q: int, d: int) -> Subspace:
    return subspace_span(q, d, [[1 if i == j else 0 for j in range(d)] for i in range(d)])


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


def lattice_size(q: int, d: int) -> int:
    """Subspace count of GF(q)^d once it passes the enumeration, join-table
    and mask guards of :class:`SubspaceLattice`; nothing is enumerated."""
    check_enumeration_guard(q, d)
    size = count_subspaces(q, d)
    if size * size > LATTICE_TABLE_GUARD:
        raise ValueError(
            f"GF({q})^{d} has {size} subspaces; its {size}^2-entry join table "
            f"exceeds the guard {LATTICE_TABLE_GUARD}"
        )
    if size * size * q**d > LATTICE_MASK_GUARD:
        raise ValueError(
            f"GF({q})^{d} has {size} subspaces of {q}^{d}-bit masks; "
            f"{size}^2 * {q}^{d} exceeds the mask guard {LATTICE_MASK_GUARD}"
        )
    return size


def enumerate_subspaces(q: int, d: int) -> list[Subspace]:
    """All subspaces of GF(q)^d in a deterministic order.

    Enumerates RREF bases directly: dimension ascending, pivot columns
    lexicographic, then free entries counted lexicographically with the
    first free position most significant.  Guarded by q^d <= 2^20.
    """
    fld = PrimeField(q)
    if d < 0:
        raise ValueError(f"ambient dimension must be non-negative, got {d}")
    check_enumeration_guard(q, d)
    out: list[Subspace] = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            pivot_set = set(pivots)
            free_positions = [
                (i, j)
                for i in range(k)
                for j in range(pivots[i] + 1, d)
                if j not in pivot_set
            ]
            for values in product(range(q), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_positions, values):
                    rows[i][j] = v
                basis = mat(fld, rows, cols=d)
                out.append(Subspace(fld, d, basis))
    return out


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

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.spaces))


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


def _member_masks(q: int, d: int, spaces: Sequence[Subspace]) -> list[int]:
    """Bitmask of each subspace's q^dim member vectors.

    Vector v sets bit sum_j v_j q^(d-1-j).  Subspaces of one dimension
    are expanded together with numpy, at most ``_BITMAP_BYTES`` of
    membership bitmap at a time.
    """
    width = q**d
    place = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    rows_per_chunk = max(1, _BITMAP_BYTES // width)
    masks: list[int] = []
    for k, same_dim in groupby(spaces, key=lambda s: s.dim):
        group = list(same_dim)
        coeffs = np.array(list(product(range(q), repeat=k)), dtype=np.int64).reshape(q**k, k)
        for start in range(0, len(group), rows_per_chunk):
            chunk = group[start : start + rows_per_chunk]
            bases = np.array([s.basis.entries for s in chunk], dtype=np.int64)
            codes = ((coeffs @ bases.reshape(len(chunk), k, d)) % q) @ place
            bits = np.zeros((len(chunk), width), dtype=bool)
            np.put_along_axis(bits, codes, True, axis=1)
            packed = np.packbits(bits, axis=1, bitorder="little")
            masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return masks


class SubspaceLattice:
    """All subspaces of GF(q)^d with a precomputed pairwise join table.

    ``spaces`` is the :func:`enumerate_subspaces` order, so the zero
    subspace is index 0; ``masks`` holds their member bitmasks.
    ``join_table`` (int32) and ``dims`` (int64) are read-only arrays
    built once.
    """

    def __init__(self, q: int, d: int):
        size = lattice_size(q, d)
        self.q = q
        self.d = d
        self.spaces = enumerate_subspaces(q, d)
        self.masks = _member_masks(q, d, self.spaces)
        position = {s: i for i, s in enumerate(self.spaces)}
        perp = [position[orthogonal_complement(s)] for s in self.spaces]
        perp_masks = [self.masks[k] for k in perp]
        # mask of X -> index of X^perp; X = A^perp & B^perp gives A + B
        join_of = {self.masks[k]: perp[k] for k in range(size)}
        table = np.empty((size, size), dtype=np.int32)
        for i, pm in enumerate(perp_masks):
            row = np.fromiter(
                map(join_of.__getitem__, map(pm.__and__, perp_masks[i:])),
                dtype=np.int32,
                count=size - i,
            )
            table[i, i:] = row
            table[i:, i] = row
        table.flags.writeable = False
        self.join_table = table
        self.dims = np.array([s.dim for s in self.spaces], dtype=np.int64)
        self.dims.flags.writeable = False

    def __len__(self) -> int:
        return len(self.spaces)

    def join_indices(self, indices: Iterable[int]) -> int:
        acc = 0  # the zero subspace, the identity of join
        for i in indices:
            acc = int(self.join_table[acc, i])
        return acc

    def entropy_of(self, indices: Iterable[int]) -> int:
        return int(self.dims[self.join_indices(indices)])


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
