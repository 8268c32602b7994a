"""Exact linear algebra over prime fields GF(p).

Every higher-level question in this package (can a receiver decode its
demand, what is the dimension of a subspace join, does a rank inequality
hold) reduces to rank / row-reduction / nullspace queries on small dense
matrices over a prime field.  Matrices are immutable and canonical:
entries are Python ints reduced into ``0..p-1``, so equal matrices
compare and hash equal, and matrices of equal subspaces are identical
objects in the structural sense.

Scale is deliberately modest (dimensions well under 100): clarity and
exactness win over asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_MODULUS = 257


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for moduli up to 257."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power_exceeds(base: int, exp: int, bound: int) -> bool:
    """Whether ``base ** exp > bound``, for a base of at least 2 and a
    non-negative bound, without building a power wider than ``bound``:
    once ``exp`` reaches the bit length of ``bound``, the power exceeds it."""
    return base ** min(exp, bound.bit_length()) > bound


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p) for a prime modulus p <= 257.

    The characteristic class partitions fields into ``even`` (p = 2) and
    ``odd`` (every other prime); several bundled codes and inequalities
    are only claimed for one class.
    """

    p: int

    def __post_init__(self) -> None:
        # the bound first: trial division of a huge modulus would not finish
        if self.p > MAX_MODULUS:
            raise ValueError(f"modulus {self.p} exceeds supported bound {MAX_MODULUS}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def characteristic_class(self) -> str:
        return "even" if self.p == 2 else "odd"

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)


GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


@dataclass(frozen=True)
class PrimeFieldMatrix:
    """Immutable row-major matrix over a prime field.

    Zero-row and zero-column matrices are legal everywhere (they appear
    naturally as blocks belonging to zero-rate messages) and have rank 0.
    """

    field: PrimeField
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError("entry rows do not match declared row count")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")
            for x in row:
                if not (0 <= x < self.field.p):
                    raise ValueError(f"entry {x} not reduced mod {self.field.p}")

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)


def mat(field: PrimeField, rows: Iterable[Sequence[int]], cols: int | None = None) -> PrimeFieldMatrix:
    """Build a matrix, reducing entries mod p.

    ``cols`` is only required when ``rows`` is empty; otherwise it is
    inferred (and checked) from the data.
    """
    reduced = tuple(tuple(x % field.p for x in r) for r in rows)
    if reduced:
        width = len(reduced[0])
        if cols is not None and cols != width:
            raise ValueError("declared column count disagrees with data")
        cols = width
    elif cols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return PrimeFieldMatrix(field, len(reduced), cols, reduced)


def mat_zeros(field: PrimeField, rows: int, cols: int) -> PrimeFieldMatrix:
    return mat(field, [[0] * cols for _ in range(rows)], cols=cols)


def mat_stack(*matrices: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Stack matrices vertically; all must share field and column count."""
    if not matrices:
        raise ValueError("nothing to stack")
    field = matrices[0].field
    cols = matrices[0].cols
    rows: list[tuple[int, ...]] = []
    for m in matrices:
        if m.field != field:
            raise ValueError("field mismatch in stack")
        if m.cols != cols:
            raise ValueError("column mismatch in stack")
        rows.extend(m.entries)
    return PrimeFieldMatrix(field, len(rows), cols, tuple(rows))


def mat_mul(a: PrimeFieldMatrix, b: PrimeFieldMatrix) -> PrimeFieldMatrix:
    if a.field != b.field:
        raise ValueError("field mismatch in product")
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    p = a.field.p
    bt = tuple(b.column(j) for j in range(b.cols))
    out = tuple(
        tuple(sum(x * y for x, y in zip(arow, bcol)) % p for bcol in bt)
        for arow in a.entries
    )
    return PrimeFieldMatrix(a.field, a.rows, b.cols, out)


def mat_transpose(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    return PrimeFieldMatrix(
        m.field, m.cols, m.rows, tuple(m.column(j) for j in range(m.cols))
    )


def _rref_core(field: PrimeField, rows_in: Sequence[Sequence[int]], cols: int):
    """Gauss-Jordan elimination; returns (nonzero reduced rows, pivot cols)."""
    p = field.p
    work = [list(r) for r in rows_in]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        scale = field.inv(work[r][c])
        if scale != 1:
            work[r] = [(x * scale) % p for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def mat_rref(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Reduced row echelon form with zero rows removed.

    Pivot columns are strictly increasing, every pivot is 1, and each
    pivot column is zero elsewhere, so the result is a canonical basis
    of the row space.
    """
    reduced, _ = _rref_core(m.field, m.entries, m.cols)
    return PrimeFieldMatrix(m.field, len(reduced), m.cols, tuple(reduced))


def mat_rank(m: PrimeFieldMatrix) -> int:
    """Dimension of the row space; the input matrix is unchanged."""
    _, pivots = _rref_core(m.field, m.entries, m.cols)
    return len(pivots)


def mat_nullspace(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Canonical (RREF) basis of the right kernel {v : m v = 0}.

    The basis has exactly ``cols - rank`` rows (rank-nullity).
    """
    reduced, pivots = _rref_core(m.field, m.entries, m.cols)
    p = m.field.p
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [0] * m.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][fc]) % p
        basis.append(v)
    return mat_rref(mat(m.field, basis, cols=m.cols))


def solve(a: PrimeFieldMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One solution x of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    p = a.field.p
    augmented = [list(row) + [b[i] % p] for i, row in enumerate(a.entries)]
    reduced, pivots = _rref_core(a.field, augmented, a.cols + 1)
    x = [0] * a.cols
    for i, pc in enumerate(pivots):
        if pc == a.cols:
            return None
        x[pc] = reduced[i][-1]
    return tuple(x)
