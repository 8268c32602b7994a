import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncregions.ff import (
    GF2,
    GF3,
    GF5,
    PrimeField,
    mat,
    mat_mul,
    mat_nullspace,
    mat_rank,
    mat_rref,
    mat_stack,
    mat_zeros,
    power_exceeds,
    solve,
)


def mat_identity(field, n):
    return mat(field, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def mat_vec(m, v):
    """Apply m to a column vector, returning the reduced result."""
    if len(v) != m.cols:
        raise ValueError("vector length does not match column count")
    p = m.field.p
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in m.entries)


def rowspace_contains(m, target):
    """True iff every row of ``target`` lies in the row space of ``m``,
    by the rank criterion rank(m) == rank([m; target]): the reference
    for the algebraic verifier's kernel test.  An empty target is
    vacuously contained."""
    if m.field != target.field:
        raise ValueError("field mismatch")
    if m.cols != target.cols:
        raise ValueError("column mismatch")
    if target.rows == 0:
        return True
    return mat_rank(m) == mat_rank(mat_stack(m, target))


def test_field_rejects_composites_and_large_moduli():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(263)
    assert PrimeField(257).p == 257


def test_field_checks_the_bound_before_primality():
    # trial division of 10^18 + 3 would not finish
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^modulus 1000000000000000003 exceeds supported bound 257$"):
        PrimeField(10**18 + 3)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="^modulus 1000 exceeds supported bound 257$"):
        PrimeField(1000)


def test_characteristic_class():
    assert GF2.characteristic_class == "even"
    assert GF3.characteristic_class == "odd"
    assert PrimeField(257).characteristic_class == "odd"


def test_rank_identity():
    assert mat_rank(mat_identity(GF2, 3)) == 3


def test_rank_dependent_rows():
    m = mat(GF2, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    assert mat_rank(m) == 2


def test_rank_zero_matrix():
    assert mat_rank(mat_zeros(GF3, 2, 4)) == 0


def test_rref_scalar_normalization():
    assert mat_rref(mat(GF3, [(2, 2)])).entries == ((1, 1),)


def test_rref_elimination():
    m = mat(GF2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert mat_rref(m).entries == ((1, 0, 1), (0, 1, 1))


def test_rowspace_contains_examples():
    assert rowspace_contains(mat(GF2, [(1, 0, 1), (1, 1, 1)]), mat(GF2, [(0, 1, 0)]))
    assert not rowspace_contains(mat(GF3, [(1, 0, 2), (1, 1, 1)]), mat(GF3, [(0, 1, 0)]))
    # empty target is vacuously contained
    assert rowspace_contains(mat(GF2, [(1, 0)]), mat(GF2, [], cols=2))


def test_rowspace_dimension_mismatch():
    with pytest.raises(ValueError):
        rowspace_contains(mat(GF2, [(1, 0)]), mat(GF2, [(1, 0, 0)]))


def test_nullspace_examples():
    assert mat_nullspace(mat_identity(GF3, 2)).rows == 0
    assert mat_nullspace(mat(GF2, [(1, 1)])).entries == ((1, 1),)
    assert mat_nullspace(mat_zeros(GF2, 1, 3)) == mat_identity(GF2, 3)


def test_solve_and_inconsistency():
    a = mat(GF3, [(1, 1), (0, 1)])
    x = solve(a, (2, 1))
    assert x is not None and mat_vec(a, x) == (2, 1)
    assert solve(mat(GF2, [(1, 1), (1, 1)]), (0, 1)) is None


_small_field = st.sampled_from([GF2, GF3, GF5])


@st.composite
def _random_matrix(draw, max_dim=5):
    fld = draw(_small_field)
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entries = [
        [draw(st.integers(0, fld.p - 1)) for _ in range(cols)] for _ in range(rows)
    ]
    return mat(fld, entries, cols=cols)


@given(_random_matrix())
@settings(max_examples=150)
def test_rref_idempotent_and_rank_preserving(m):
    r = mat_rref(m)
    assert mat_rref(r) == r
    assert mat_rank(r) == mat_rank(m) == r.rows


@given(_random_matrix())
@settings(max_examples=150)
def test_rank_nullity(m):
    assert mat_rank(m) + mat_nullspace(m).rows == m.cols
    # kernel rows really are in the kernel
    for row in mat_nullspace(m).entries:
        assert mat_vec(m, row) == (0,) * m.rows


@given(_random_matrix(), st.data())
@settings(max_examples=150)
def test_rank_subadditive_on_stack(m1, data):
    rows = data.draw(st.integers(0, 4))
    m2 = mat(
        m1.field,
        [
            [data.draw(st.integers(0, m1.field.p - 1)) for _ in range(m1.cols)]
            for _ in range(rows)
        ],
        cols=m1.cols,
    )
    assert mat_rank(mat_stack(m1, m2)) <= mat_rank(m1) + mat_rank(m2)


@given(_random_matrix())
@settings(max_examples=100)
def test_rowspace_contains_own_rref(m):
    assert rowspace_contains(m, mat_rref(m))
    assert rowspace_contains(mat_rref(m), m)


def test_matmul_shapes_and_identity():
    m = mat(GF3, [(1, 2, 0), (0, 1, 1)])
    assert mat_mul(mat_identity(GF3, 2), m) == m
    with pytest.raises(ValueError):
        mat_mul(m, m)


@pytest.mark.parametrize("bound", [0, 1, 8, 9, 2**20, 2**62 - 1])
def test_power_exceeds_matches_the_power(bound):
    for base in (2, 3, 5, 257):
        for exp in range(70):
            assert power_exceeds(base, exp, bound) == (base**exp > bound)
