import random
import tracemalloc
from itertools import combinations, groupby, product

import numpy as np
import pytest

from ncregions import subspace as subspace_mod
from ncregions.ff import GF2, GF3, PrimeField, mat, mat_rank, mat_stack
from ncregions.subspace import (
    LinearMapBetweenSubspaces,
    Subspace,
    apply_ambient_transform,
    assignment,
    assignment_to_text,
    count_subspaces,
    entropy,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    join,
    lattice,
    lattice_size,
    meet,
    orthogonal_complement,
    parse_assignment,
    preimage,
    subspace_span,
)


def _member_vectors(s):
    """All q^dim member vectors of a subspace."""
    p = s.field.p
    out = []
    for coeffs in product(range(p), repeat=s.dim):
        v = [0] * s.ambient_dim
        for c, row in zip(coeffs, s.basis.entries):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % p
        out.append(tuple(v))
    return out


def test_span_examples():
    assert subspace_span(2, 3, [(1, 0, 0)]).dim == 1
    assert subspace_span(2, 3, []).dim == 0
    assert subspace_span(2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]).dim == 2


def test_span_canonical_under_generator_change():
    a = subspace_span(2, 3, [(1, 1, 0), (0, 1, 1)])
    b = subspace_span(2, 3, [(1, 0, 1), (0, 1, 1)])
    assert a == b  # same subspace, different generators


def test_join_examples():
    e1 = subspace_span(2, 3, [(1, 0, 0)])
    e2 = subspace_span(2, 3, [(0, 1, 0)])
    assert join(e1, e2).dim == 2
    w = subspace_span(2, 3, [(1, 1, 0)])
    x = subspace_span(2, 3, [(1, 0, 1)])
    j = join(w, x)
    assert j.dim == 2 and (0, 1, 1) in _member_vectors(j)
    assert join(w, w) == w


def test_meet_examples():
    e1 = subspace_span(2, 3, [(1, 0, 0)])
    e2 = subspace_span(2, 3, [(0, 1, 0)])
    assert meet(e1, e2).dim == 0
    a = subspace_span(2, 3, [(1, 1, 0), (1, 0, 1)])
    b = subspace_span(2, 3, [(1, 0, 0), (0, 1, 0)])
    assert meet(a, b) == subspace_span(2, 3, [(1, 1, 0)])
    assert meet(a, a) == a


def test_meet_ambient_mismatch():
    with pytest.raises(ValueError):
        meet(subspace_span(2, 3, [(1, 0, 0)]), subspace_span(2, 2, [(1, 0)]))


def test_preimage_examples():
    ident = LinearMapBetweenSubspaces(GF2, 2, 2, mat(GF2, [(1, 0), (0, 1)]))
    b = subspace_span(2, 2, [(1, 1)])
    assert preimage(ident, b) == b
    f = LinearMapBetweenSubspaces(GF2, 2, 1, mat(GF2, [(1, 1)]))
    assert preimage(f, subspace_span(2, 1, [])) == subspace_span(2, 2, [(1, 1)])
    zero_map = LinearMapBetweenSubspaces(GF2, 2, 1, mat(GF2, [(0, 0)]))
    assert preimage(zero_map, subspace_span(2, 1, [])) == subspace_span(2, 2, [(1, 0), (0, 1)])


def test_enumeration_counts():
    assert len(enumerate_subspaces(2, 2)) == 5
    assert len(enumerate_subspaces(2, 3)) == 16
    assert len(enumerate_subspaces(3, 3)) == 28
    for q, d in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        assert len(enumerate_subspaces(q, d)) == count_subspaces(q, d)
        assert count_subspaces(q, d) == sum(
            gaussian_binomial(d, k, q) for k in range(d + 1)
        )


def test_enumeration_is_deterministic_and_duplicate_free():
    spaces = enumerate_subspaces(3, 2)
    assert spaces == enumerate_subspaces(3, 2)
    assert len(set(spaces)) == len(spaces)
    assert [s.dim for s in spaces] == sorted(s.dim for s in spaces)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_subspaces(2, 21)
    with pytest.raises(ValueError):
        enumerate_subspaces(2, -1)


@pytest.mark.parametrize("q", [2, 3, 5, 251, 1_048_583])
def test_enumeration_guard_check_is_exact(q):
    for d in range(45):
        if q**d > subspace_mod.ENUMERATION_GUARD:
            with pytest.raises(ValueError, match=f"^{q}\\^{d} exceeds the enumeration guard 1048576$"):
                subspace_mod.check_enumeration_guard(q, d)
        else:
            subspace_mod.check_enumeration_guard(q, d)


def test_lattice_checks_the_enumeration_guard_before_counting(monkeypatch):
    def fail(q, d):
        raise AssertionError("counted despite the guard")

    monkeypatch.setattr(subspace_mod, "count_subspaces", fail)
    monkeypatch.setattr(subspace_mod, "_rref_bases", fail)
    for q, d in [(2, 21), (2, 800), (1_048_583, 1)]:
        for build in (subspace_mod.SubspaceLattice, lattice_size):
            with pytest.raises(ValueError, match="enumeration guard"):
                build(q, d)


def test_dimension_modularity_over_all_pairs():
    spaces = enumerate_subspaces(2, 3)
    for a, b in combinations(spaces, 2):
        assert a.dim + b.dim == join(a, b).dim + meet(a, b).dim


def test_lattice_join_table_matches_direct_joins():
    for q, d in [(2, 0), (2, 2), (2, 3), (3, 3), (5, 2), (2, 4)]:
        lat = lattice(q, d)
        table = lat.join_table
        assert table.dtype == np.int32 and table.shape == (len(lat), len(lat))
        assert np.array_equal(table, table.T)
        assert np.array_equal(np.diagonal(table), np.arange(len(lat)))
        for idx1, s1 in enumerate(lat.spaces):
            for idx2, s2 in enumerate(lat.spaces):
                k = table[idx1, idx2]
                assert lat.spaces[k] == join(s1, s2)
                assert lat.dims[k] == mat_rank(mat_stack(s1.basis, s2.basis))
        assert lat.spaces[0] == subspace_span(q, d, [])
        assert lat.join_indices([]) == 0 and lat.dims[0] == 0


@pytest.mark.parametrize("q,d", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 4)])
def test_lattice_points_are_member_vectors(q, d):
    bases = subspace_mod._rref_bases(q, d)
    starts = np.searchsorted(subspace_mod._dims(bases), np.arange(d + 3))
    points, basis_points = subspace_mod._points(q, d, bases, starts)
    spaces = enumerate_subspaces(q, d)
    line_vector = {i: s.basis.entries[0] for i, s in enumerate(spaces) if s.dim == 1}
    for i, s in enumerate(spaces):
        # a point is the member vector whose first nonzero entry is 1
        normalized = sorted(v for v in _member_vectors(s) if any(v) and next(filter(None, v)) == 1)
        assert sorted(line_vector[p] for p in points[s.dim][i - starts[s.dim]]) == normalized
        assert [line_vector[p] for p in basis_points[i, : s.dim]] == list(s.basis.entries)
        assert not basis_points[i, s.dim :].any()


def test_lattice_table_guard_runs_before_enumeration(monkeypatch):
    def fail(q, d):
        raise AssertionError("enumerated despite the guard")

    monkeypatch.setattr(subspace_mod, "enumerate_subspaces", fail)
    monkeypatch.setattr(subspace_mod, "_rref_bases", fail)
    for q, d in [(2, 7), (101, 3)]:
        assert count_subspaces(q, d) ** 2 > subspace_mod.LATTICE_TABLE_GUARD
        for build in (subspace_mod.SubspaceLattice, lattice_size):
            with pytest.raises(ValueError, match="guard"):
                build(q, d)
    # the spaces the tests, the README and the benchmark use stay admitted
    for q, d in [(2, 6), (3, 5), (7, 4), (2, 5), (3, 4), (11, 3), (13, 3), (5, 3), (43, 3)]:
        assert count_subspaces(q, d) ** 2 <= subspace_mod.LATTICE_TABLE_GUARD
        assert lattice_size(q, d) == count_subspaces(q, d)


def test_largest_admitted_cubic_lattice():
    # built directly, not through lattice(), so the per-process cache
    # does not keep its 55 MB join table
    q, d = 43, 3
    lat = subspace_mod.SubspaceLattice(q, d)
    spaces = lat.spaces
    assert len(lat) == count_subspaces(q, d) == 3788
    assert np.array_equal(lat.dims, [s.dim for s in spaces])
    assert np.bincount(lat.dims).tolist() == [gaussian_binomial(d, k, q) for k in range(d + 1)]
    rng = random.Random(43)
    for _ in range(200):
        a, b = rng.randrange(len(lat)), rng.randrange(len(lat))
        assert spaces[lat.join_table[a, b]] == join(spaces[a], spaces[b])


@pytest.mark.parametrize("q", [-3, 0, 1, 4, 6])
def test_lattice_checks_the_field(q):
    for d in (2, 3):
        for build in (subspace_mod.SubspaceLattice, lattice_size):
            with pytest.raises(ValueError, match=f"^modulus {q} is not prime$"):
                build(q, d)


# ---------------------------------------------------------------------------
# the lattice build used before the point-based one, kept as the reference:
# a product loop over RREF free entries, a bitmask of member vectors per
# subspace, and A + B = (A^perp & B^perp)^perp looked up by mask


def _reference_enumeration(q, d):
    fld = PrimeField(q)
    out = []
    for k in range(d + 1):
        for pivots in combinations(range(d), k):
            free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, d) if j not in pivots]
            for values in product(range(q), repeat=len(free)):
                rows = [[0] * d for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append(Subspace(fld, d, mat(fld, rows, cols=d)))
    return out


def _reference_masks(q, d, spaces):
    """Bitmask of each subspace's member vectors: v sets bit sum_j v_j q^(d-1-j)."""
    place = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    masks = []
    for k, same_dim in groupby(spaces, key=lambda s: s.dim):
        group = list(same_dim)
        coeffs = np.array(list(product(range(q), repeat=k)), dtype=np.int64).reshape(q**k, k)
        bases = np.array([s.basis.entries for s in group], dtype=np.int64)
        codes = ((coeffs @ bases.reshape(len(group), k, d)) % q) @ place
        bits = np.zeros((len(group), q**d), dtype=bool)
        np.put_along_axis(bits, codes, True, axis=1)
        packed = np.packbits(bits, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return masks


def _reference_lattice(q, d):
    spaces = _reference_enumeration(q, d)
    masks = _reference_masks(q, d, spaces)
    position = {s: i for i, s in enumerate(spaces)}
    perp = [position[orthogonal_complement(s)] for s in spaces]
    join_of = {masks[k]: perp[k] for k in range(len(spaces))}  # mask of X -> X^perp
    table = np.array(
        [[join_of[masks[a] & masks[b]] for b in perp] for a in perp], dtype=np.int32
    )
    return spaces, table, np.array([s.dim for s in spaces], dtype=np.int64)


RANK_COLD_SPACES = [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (11, 3), (13, 3), (2, 5)]


@pytest.mark.parametrize("q,d", [(2, 0), (3, 1), (3, 2), (5, 2), *RANK_COLD_SPACES, (23, 3)])
def test_lattice_build_matches_the_mask_build(q, d, monkeypatch):
    spaces, table, dims = _reference_lattice(q, d)
    # the second build gathers the containment test a few bytes at a time
    for chunk in (subspace_mod._BITMAP_BYTES, 64):
        monkeypatch.setattr(subspace_mod, "_BITMAP_BYTES", chunk)
        lat = subspace_mod.SubspaceLattice(q, d)
        assert lat.join_table.dtype == np.int32 and lat.dims.dtype == np.int64
        assert np.array_equal(lat.join_table, table)
        assert np.array_equal(lat.dims, dims)
        assert lat.spaces == spaces


@pytest.mark.parametrize("q,d,parent_peak_mib", [(13, 3, 2.06), (2, 5, 0.85)])
def test_lattice_build_memory(q, d, parent_peak_mib):
    # the bounds are the traced peaks of the earlier mask build
    subspace_mod.SubspaceLattice(q, d)
    tracemalloc.start()
    try:
        subspace_mod.SubspaceLattice(q, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak_mib * 2**20


def test_join_meet_algebra():
    rng = random.Random(11)
    spaces = enumerate_subspaces(3, 3)
    for _ in range(200):
        a, b, c = (spaces[rng.randrange(len(spaces))] for _ in range(3))
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
        assert join(join(a, b), c) == join(a, join(b, c))
        assert meet(meet(a, b), c) == meet(a, meet(b, c))
        assert join(a, a) == a and meet(a, a) == a
        assert orthogonal_complement(orthogonal_complement(a)) == a


def _random_subspace(rng, q, d):
    k = rng.randrange(d + 1)
    vecs = [[rng.randrange(q) for _ in range(d)] for _ in range(k)]
    return subspace_span(q, d, vecs)


@pytest.mark.parametrize("q,d", [(2, 4), (3, 3)])
def test_intersection_codimension_bound(q, d):
    # codim of an intersection is at most the sum of the codimensions
    rng = random.Random(q * 100 + d)
    for _ in range(500):
        parts = [_random_subspace(rng, q, d) for _ in range(3)]
        inter = parts[0]
        for s in parts[1:]:
            inter = meet(inter, s)
        assert inter.codim <= sum(s.codim for s in parts)


def test_preimage_codimension_bound():
    rng = random.Random(99)
    for _ in range(500):
        q = rng.choice([2, 3])
        d_dom = rng.randrange(1, 4)
        d_cod = rng.randrange(1, 4)
        f = LinearMapBetweenSubspaces(
            PrimeField(q),
            d_dom,
            d_cod,
            mat(PrimeField(q), [[rng.randrange(q) for _ in range(d_dom)] for _ in range(d_cod)], cols=d_dom),
        )
        target = _random_subspace(rng, q, d_cod)
        pre = preimage(f, target)
        assert pre.codim <= target.codim


def test_entropy_examples():
    fano = assignment(
        2,
        3,
        {
            "A": subspace_span(2, 3, [(1, 0, 0)]),
            "B": subspace_span(2, 3, [(0, 1, 0)]),
            "C": subspace_span(2, 3, [(0, 0, 1)]),
        },
    )
    assert entropy(fano, ["A", "B", "C"]) == 3
    wxy = assignment(
        2,
        3,
        {
            "W": subspace_span(2, 3, [(1, 1, 0)]),
            "X": subspace_span(2, 3, [(1, 0, 1)]),
            "Y": subspace_span(2, 3, [(0, 1, 1)]),
        },
    )
    assert entropy(wxy, ["W", "X", "Y"]) == 2
    assert entropy(wxy, []) == 0
    with pytest.raises(KeyError):
        entropy(wxy, ["Q"])


def _entropy_by_join_fold(assign, vars):
    """``entropy`` as it stood before it took one rank: a fold of
    pairwise canonical joins."""
    names = list(vars)
    if not names:
        return 0
    current = None
    for name in names:
        if name not in assign.spaces:
            raise KeyError(f"unknown variable {name!r}")
        s = assign.spaces[name]
        current = s if current is None else join(current, s)
    return current.dim


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (5, 2), (2, 4)])
def test_entropy_matches_the_join_fold(q, d):
    rng = random.Random(q * 10 + d)
    names = "ABCDE"
    for _ in range(300):
        assign = assignment(q, d, {v: _random_subspace(rng, q, d) for v in names})
        subset = rng.sample(names, rng.randrange(len(names) + 1))
        assert entropy(assign, subset) == _entropy_by_join_fold(assign, subset)


def test_ambient_transform_preserves_dimensions():
    rng = random.Random(3)
    base = assignment(
        2,
        3,
        {
            "A": subspace_span(2, 3, [(1, 0, 0)]),
            "W": subspace_span(2, 3, [(1, 1, 0), (0, 1, 1)]),
        },
    )
    for _ in range(50):
        while True:
            rows = [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
            m = mat(GF2, rows)
            if mat_rank(m) == 3:
                break
        moved = apply_ambient_transform(base, m)
        assert moved.spaces["A"].dim == 1
        assert moved.spaces["W"].dim == 2


def test_image_of_full_space_is_column_space():
    f = LinearMapBetweenSubspaces(GF3, 2, 3, mat(GF3, [(1, 0), (0, 1), (1, 1)]))
    img = image(f, subspace_span(3, 2, [(1, 0), (0, 1)]))
    assert img.dim == 2


def test_assignment_file_round_trip():
    a = assignment(
        2,
        3,
        {
            "A": subspace_span(2, 3, [(1, 0, 0)]),
            "Z": subspace_span(2, 3, [(1, 1, 1)]),
            "O": subspace_span(2, 3, []),
        },
    )
    text = assignment_to_text(a)
    again = parse_assignment(text)
    assert again == a


def test_assignment_parse_errors():
    with pytest.raises(ValueError):
        parse_assignment("A = span (1,0)")  # missing header
    with pytest.raises(ValueError):
        parse_assignment("ambient GF(2)^2\nA == span (1,0)")
    with pytest.raises(ValueError):
        parse_assignment("ambient GF(2)^2\nA = span (1,0,0)")  # wrong length
    with pytest.raises(ValueError, match="missing ambient"):
        parse_assignment("# no spaces, no header\n")
