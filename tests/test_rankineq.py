import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ncregions import subspace as subspace_mod
from ncregions.ff import GF3, GF5, PrimeField, mat, mat_zeros
from ncregions.rankineq import (
    DEFAULT_BUDGET,
    INEQUALITY_IDS,
    HAtom,
    IAtom,
    RankLemmaInstance,
    SearchOutcome,
    builtin_inequality,
    canonicalize,
    catalog_assignments,
    check_rank_sum_lemma,
    coordinate_assignment,
    evaluate,
    expected_violation,
    expression,
    h,
    i,
    search_violation_detailed,
)
from ncregions import rankineq as rankineq_mod
from ncregions.rankineq import (
    _integer_plan,
    _sample_tiles,
    _slack_dtype,
    _slack_program,
    _term_tables,
)
from ncregions.rateregion import transfer_coefficients
from ncregions.subspace import (
    assignment,
    count_subspaces,
    entropy,
    enumerate_subspaces,
    lattice,
    subspace_span,
)

from test_ff import mat_identity


# ---------------------------------------------------------------------------
# canonicalization and evaluation


def test_canonicalize_conditional_entropy():
    expr = expression([h(1, "A", given=["B"])])
    assert canonicalize(expr) == {
        frozenset("AB"): Fraction(1),
        frozenset("B"): Fraction(-1),
    }


def test_canonicalize_conditional_information():
    expr = expression([i(1, ["A"], ["B"], given=["C"])])
    assert canonicalize(expr) == {
        frozenset("AC"): Fraction(1),
        frozenset("BC"): Fraction(1),
        frozenset("ABC"): Fraction(-1),
        frozenset("C"): Fraction(-1),
    }


def test_oddlri_canonical_coefficient_on_the_triple():
    canon = canonicalize(builtin_inequality("oddLRI"))
    assert canon[frozenset("ABC")] == Fraction(-5)


def test_builtin_term_shapes():
    ing = builtin_inequality("ingleton")
    assert len(ing.terms) == 4
    assert ing.variables() == frozenset("ABCD")

    odd = builtin_inequality("oddLRI")
    assert odd.variables() == frozenset("ABCWXYZ")  # no D
    assert (Fraction(3), HAtom(frozenset("X"), frozenset("WY"))) in odd.terms
    assert (Fraction(5), HAtom(frozenset("W"), frozenset("AB"))) in odd.terms

    even = builtin_inequality("evenLRI")
    assert (Fraction(6), HAtom(frozenset("Z"), frozenset("ABC"))) in even.terms
    assert (Fraction(1), HAtom(frozenset("C"), frozenset("WXY"))) in even.terms

    zy = builtin_inequality("zhang-yeung")
    assert (Fraction(2), IAtom(frozenset("A"), frozenset("B"), frozenset("C"))) in zy.terms

    with pytest.raises(KeyError):
        builtin_inequality("frankl")


# Ingleton and Zhang-Yeung written out atom by atom, in slack orientation:
# the reference for the expressions built from their transfer coefficients.
_REFERENCE = {
    "ingleton": expression([
        i(-1, ["A"], ["B"]),
        i(1, ["A"], ["B"], given=["C"]),
        i(1, ["A"], ["B"], given=["D"]),
        i(1, ["C"], ["D"]),
    ]),
    "zhang-yeung": expression([
        i(-1, ["A"], ["B"]),
        i(2, ["A"], ["B"], given=["C"]),
        i(1, ["A"], ["C"], given=["B"]),
        i(1, ["B"], ["C"], given=["A"]),
        i(1, ["A"], ["B"], given=["D"]),
        i(1, ["C"], ["D"]),
    ]),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE))
def test_four_variable_inequalities_match_their_atoms(name):
    expr = builtin_inequality(name)
    assert expr == _REFERENCE[name]
    assert canonicalize(expr) == canonicalize(_REFERENCE[name])


def test_transfer_slack_reads_every_coefficient_in_its_slot():
    # a1..a10 = 1..10: each slot's atom appears once, with its own weight,
    # including a6, a7, a9 and a10, which Ingleton and Zhang-Yeung leave at 0
    expr = rankineq_mod._transfer_slack(transfer_coefficients(range(1, 11)))
    assert expr == expression([
        i(-1, ["A"], ["B"]),
        i(2, ["A"], ["B"], given=["C"]),
        i(3, ["A"], ["C"], given=["B"]),
        i(4, ["B"], ["C"], given=["A"]),
        i(5, ["A"], ["B"], given=["D"]),
        i(6, ["A"], ["D"], given=["B"]),
        i(7, ["B"], ["D"], given=["A"]),
        i(8, ["C"], ["D"]),
        i(9, ["C"], ["D"], given=["A"]),
        i(10, ["C"], ["D"], given=["B"]),
    ])


def test_violations_of_the_characteristic_dependent_inequalities():
    odd = builtin_inequality("oddLRI")
    even = builtin_inequality("evenLRI")
    assert evaluate(odd, coordinate_assignment(2, 3)) == -1
    assert evaluate(even, coordinate_assignment(3, 3)) == -1
    assert evaluate(even, coordinate_assignment(5, 3)) == -1
    # and the claimed-valid side of each
    assert evaluate(odd, coordinate_assignment(3, 3)) >= 0
    assert evaluate(even, coordinate_assignment(2, 3)) >= 0


def test_self_information_is_dimension():
    expr = expression([i(1, ["A"], ["B"])])
    a = subspace_span(2, 3, [(1, 0, 0)])
    assert evaluate(expr, assignment(2, 3, {"A": a, "B": a})) == 1


def test_evaluate_requires_all_variables():
    with pytest.raises(KeyError):
        evaluate(builtin_inequality("ingleton"), coordinate_assignment(2, 3))


def _random_expression(rng, names):
    terms = []
    for _ in range(rng.randrange(1, 6)):
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        pick = lambda: frozenset(rng.sample(names, rng.randrange(1, 3)))
        maybe = lambda: frozenset(rng.sample(names, rng.randrange(0, 3)))
        if rng.random() < 0.5:
            terms.append((coeff, HAtom(pick(), maybe())))
        else:
            terms.append((coeff, IAtom(pick(), pick(), maybe())))
    return expression(terms)


def _evaluate_atoms(expr, assign):
    """Term-by-term evaluation, with no canonicalization."""
    total = Fraction(0)
    for coeff, atom in expr.terms:
        if isinstance(atom, HAtom):
            value = entropy(assign, atom.subset | atom.given) - entropy(assign, atom.given)
        else:
            value = (
                entropy(assign, atom.left | atom.given)
                + entropy(assign, atom.right | atom.given)
                - entropy(assign, atom.left | atom.right | atom.given)
                - entropy(assign, atom.given)
            )
        total += coeff * value
    return total


def test_atom_and_canonical_evaluation_agree():
    rng = random.Random(17)
    spaces = enumerate_subspaces(2, 3)
    names = ["A", "B", "C", "D"]
    for _ in range(200):
        expr = _random_expression(rng, names)
        assign = assignment(
            2, 3, {n: spaces[rng.randrange(len(spaces))] for n in names}
        )
        assert evaluate(expr, assign) == _evaluate_atoms(expr, assign)


# ---------------------------------------------------------------------------
# search


def _catalog_witness(expr, q, d):
    return search_violation_detailed(expr, q, d, "catalog").witness


def test_catalog_search_finds_both_witnesses():
    odd = builtin_inequality("oddLRI")
    even = builtin_inequality("evenLRI")
    w = _catalog_witness(odd, 2, 3)
    assert w is not None and evaluate(odd, w) < 0
    assert w.spaces == coordinate_assignment(2, 3).spaces
    w = _catalog_witness(even, 3, 3)
    assert w is not None and evaluate(even, w) < 0
    assert _catalog_witness(odd, 3, 3) is None
    assert _catalog_witness(even, 2, 3) is None
    assert catalog_assignments(2, 2) == []


def test_catalog_search_embeds_in_higher_dimension():
    odd = builtin_inequality("oddLRI")
    w = _catalog_witness(odd, 2, 4)
    assert w is not None and w.ambient_dim == 4 and evaluate(odd, w) < 0


@pytest.mark.parametrize(
    "ineq,q,d",
    [("oddLRI", 2, 2), ("oddLRI", 3, 2), ("evenLRI", 2, 2)],
)
def test_exhaustive_scans_find_nothing_in_dimension_two(ineq, q, d):
    out = search_violation_detailed(builtin_inequality(ineq), q, d, "exhaustive")
    assert out.witness is None
    assert out.checked == len(enumerate_subspaces(q, d)) ** 7
    assert out.min_slack == 0  # equality is attained somewhere


def test_ingleton_exhaustive_over_gf2_squared():
    out = search_violation_detailed(builtin_inequality("ingleton"), 2, 2, "exhaustive")
    assert out.witness is None
    assert out.checked == 5**4


def _reference_catalog(expr, q, d):
    """The catalog search as it ran before the modes shared one loop."""
    variables = tuple(sorted(expr.variables()))
    best: Fraction | None = None
    checked = 0
    for assign in catalog_assignments(q, d):
        if not set(variables) <= set(assign.spaces):
            continue
        checked += 1
        slack = evaluate(expr, assign)
        best = slack if best is None else min(best, slack)
        if slack < 0:
            return SearchOutcome(assign, checked, best)
    return SearchOutcome(None, checked, best)


_CATALOG_EXPRESSIONS = {
    **{name: builtin_inequality(name) for name in INEQUALITY_IDS},
    # evenLRI halved: slack -1/2 over odd characteristic, denominator 2
    "evenLRI/2": expression((c / 2, a) for c, a in builtin_inequality("evenLRI").terms),
}


@pytest.mark.parametrize("name", sorted(_CATALOG_EXPRESSIONS))
def test_catalog_search_matches_the_catalog_loop(name, monkeypatch):
    monkeypatch.setattr(subspace_mod, "_LATTICE_CACHE", {})
    expr = _CATALOG_EXPRESSIONS[name]
    for q in (2, 3, 5):
        for d in range(5):
            assert search_violation_detailed(expr, q, d, "catalog") == _reference_catalog(expr, q, d)
    assert subspace_mod._LATTICE_CACHE == {}  # catalog mode builds no lattice


def test_exhaustive_budget():
    with pytest.raises(ValueError):
        search_violation_detailed(
            builtin_inequality("oddLRI"), 2, 3, "exhaustive", budget=1000
        )
    assert 6**7 <= DEFAULT_BUDGET < 16**7


def test_exhaustive_returns_lexicographically_smallest_violator():
    # tiny synthetic expression with known violations: dim(A) >= dim(B)
    # fails as soon as B strictly exceeds A; the first such pair in
    # enumeration order is A = 0, B = the first line
    expr = expression([h(1, "A"), h(-1, "B")])
    out = search_violation_detailed(expr, 2, 2, "exhaustive")
    spaces = enumerate_subspaces(2, 2)
    assert out.witness is not None
    assert out.witness.spaces["A"] == spaces[0]
    assert out.witness.spaces["B"] == spaces[1]
    assert out.checked == 2  # (0,0) then (0,1)


def _reference_exhaustive(expr, q, d, chunk):
    """The chunked per-term gather loop that exhaustive mode used to run:
    decode each chunk of flat indices, walk the join table per term, and
    stop at the first chunk holding a negative slack."""
    variables = tuple(sorted(expr.variables()))
    lat = lattice(q, d)
    plan, denom = _integer_plan(expr, variables)
    size, nvars = len(lat), len(variables)
    total = size**nvars
    min_slack = None
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        block = np.arange(start, stop, dtype=np.int64)
        cols = [(block // size ** (nvars - 1 - k)) % size for k in range(nvars)]
        slack = np.zeros(stop - start, dtype=np.int64)
        for weight, positions in plan:
            acc = cols[positions[0]]
            for p in positions[1:]:
                acc = lat.join_table[acc, cols[p]]
            slack += weight * lat.dims[acc]
        block_min = int(slack.min())
        min_slack = block_min if min_slack is None else min(min_slack, block_min)
        bad = np.nonzero(slack < 0)[0]
        if bad.size:
            g = start + int(bad[0])
            indices = [(g // size ** (nvars - 1 - k)) % size for k in range(nvars)]
            witness = {v: lat.spaces[j] for v, j in zip(variables, indices)}
            return witness, g + 1, Fraction(min_slack, denom)
        start = stop
    return None, total, Fraction(min_slack, denom)


_DIFFERENTIAL_EXPRESSIONS = {
    **{name: builtin_inequality(name) for name in INEQUALITY_IDS},
    # violated at (A, B) = (0, first line): the second assignment
    "h(A)-h(B)": expression([h(1, "A"), h(-1, "B")]),
    # violated first at A = a line, B = C = 0: flat index size**2, so the
    # witness lies past the first chunk for small chunks and inside a
    # slab-splitting chunk of size**2 + 3
    "h(B|C)+h(C)/2-h(A)": expression([h(1, "B", given=["C"]), h(Fraction(1, 2), "C"), h(-1, "A")]),
    # violated at the second assignment, but lowest where A is largest:
    # the witness's chunk reaches slabs with a lower minimum than its own
    "-h(C|B)-2h(A)": expression([h(-1, "C", given=["B"]), h(-2, "A")]),
}


def _differential_cases():
    for name, expr in _DIFFERENTIAL_EXPRESSIONS.items():
        nvars = len(expr.variables())
        for q, d in [(2, 2), (3, 2), (2, 3)]:
            size = count_subspaces(q, d)
            if size**nvars > 300_000:
                continue  # 16^7 is too many for the reference; test_cli pins oddLRI's witness scan
            for chunk in sorted({1, 7, 64, size**2 + 3, 1 << 21}):
                # the reference loop runs once per chunk: keep it to 2,000
                if size**nvars <= 2_000 * chunk:
                    yield pytest.param(name, q, d, chunk, id=f"{name}-GF({q})^{d}-chunk{chunk}")


@pytest.mark.parametrize("name,q,d,chunk", _differential_cases())
def test_exhaustive_scan_matches_the_chunk_loop(name, q, d, chunk, monkeypatch):
    monkeypatch.setattr(rankineq_mod, "_CHUNK", chunk)
    expr = _DIFFERENTIAL_EXPRESSIONS[name]
    out = search_violation_detailed(expr, q, d, "exhaustive")
    witness, checked, min_slack = _reference_exhaustive(expr, q, d, chunk)
    assert (out.witness.spaces if out.witness else None) == witness
    assert out.checked == checked
    assert out.min_slack == min_slack


def test_exhaustive_min_slack_stops_inside_the_witness_slab(monkeypatch):
    # over GF(2)^2 a slab holds the 5 assignments that share A; the first
    # violator, A = the first line and B = 0, is flat index 5, so with
    # chunk 6 its block ends one assignment into its slab, just before
    # B = A, where the slack is lower
    monkeypatch.setattr(rankineq_mod, "_CHUNK", 6)
    expr = expression([h(2, "A", "B"), h(-3, "A"), h(-1, "B")])
    out = search_violation_detailed(expr, 2, 2, "exhaustive")
    assert (out.checked, out.min_slack) == (6, -1)
    assert out.witness.spaces == _reference_exhaustive(expr, 2, 2, 6)[0]
    line = lattice(2, 2).spaces[1]
    assert evaluate(expr, assignment(2, 2, {"A": line, "B": line})) == -2


def _program_slack(plan, lat, idx, limit):
    """Slack of each row of ``idx`` from a compiled program, run twice
    over the same buffers."""
    dtype = _slack_dtype(plan, lat.d)
    tables, large = _term_tables(plan, lat, limit, dtype)
    rows = np.ascontiguousarray(idx.T, dtype=np.int64)
    steps, slack = _slack_program(tables, large, lat, rows, dtype)
    for _ in range(2):
        for step in steps:
            step()
    assert slack.dtype == dtype
    return slack


@pytest.mark.parametrize("ineq", sorted(INEQUALITY_IDS))
def test_slack_program_matches_evaluate(ineq):
    expr = builtin_inequality(ineq)
    variables = tuple(sorted(expr.variables()))
    plan, denom = _integer_plan(expr, variables)
    lat = lattice(3, 3)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(lat), size=(300, len(variables)))
    values = [
        evaluate(expr, assignment(3, 3, {v: lat.spaces[j] for v, j in zip(variables, row)}))
        for row in idx
    ]
    # every term joined, the terms of up to two variables tabulated, every term tabulated
    for limit in (0, 28**2, 28**4):
        slack = _program_slack(plan, lat, idx, limit)
        assert [Fraction(int(x), denom) for x in slack] == values


def _reference_splitmix_block(seed, start_call, count):
    calls = np.arange(start_call, start_call + count, dtype=np.uint64)
    z = (np.uint64(seed % 2**64) + calls * np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _reference_slack_block(plan, lat, idx):
    """Every term walked from its own join prefix, shared prefixes once."""
    jt = lat.join_table.ravel()
    size = len(lat)
    slack = np.zeros(len(idx), dtype=np.int64)
    prefix = ()
    joins = []
    for weight, positions in sorted(plan, key=lambda term: term[1]):
        keep = 0
        while keep < min(len(prefix), len(positions)) and prefix[keep] == positions[keep]:
            keep += 1
        del joins[keep:]
        for p in positions[keep:]:
            joins.append(jt.take(joins[-1] * size + idx[:, p]) if joins else idx[:, p])
        prefix = positions
        slack += weight * lat.dims.take(joins[-1])
    return slack


def _reference_sample(expr, q, d, seed, samples, chunk):
    """The block loop that sample mode used to run: draw a whole block of
    ``chunk // nvars`` trials, walk every term's joins, and stop at the
    first block holding a negative slack."""
    variables = tuple(sorted(expr.variables()))
    lat = lattice(q, d)
    plan, denom = _integer_plan(expr, variables)
    size, nvars = len(lat), len(variables)
    min_slack = None
    done = 0
    while done < samples:
        count = min(max(chunk // max(nvars, 1), 1), samples - done)
        raw = _reference_splitmix_block(seed, done * nvars + 1, count * nvars)
        idx = (raw % np.uint64(size)).astype(np.int64).reshape(count, nvars)
        slack = _reference_slack_block(plan, lat, idx)
        block_min = int(slack.min())
        min_slack = block_min if min_slack is None else min(min_slack, block_min)
        bad = np.nonzero(slack < 0)[0]
        if bad.size:
            t = int(bad[0])
            witness = {v: lat.spaces[j] for v, j in zip(variables, idx[t])}
            return witness, done + t + 1, Fraction(min_slack, denom)
        done += count
    return None, samples, None if min_slack is None else Fraction(min_slack, denom)


def _sample_cases():
    seed = 0
    for name in _DIFFERENTIAL_EXPRESSIONS:
        for q, d in [(2, 2), (3, 3), (5, 3)]:  # GF(5)^3 has 64 subspaces: 64^2 > 3,000 samples
            size = count_subspaces(q, d)
            tabulated = size ** 2 if size ** 2 <= 1_000 else size
            for chunk in (3, 64, 1 << 21):
                if chunk == 3:
                    runs = [(200, None)]  # one trial per block
                elif chunk == 64:
                    runs = [(500, None), (500, 5)]  # blocks of 9 to 32 trials, in tiles of 5
                else:  # the tabulation limit is the sample count: each side of it
                    runs = [(tabulated - 1, None), (tabulated, None), (3_000, 97)]
                for samples, tile in runs:
                    seed += 1
                    yield pytest.param(
                        name, q, d, chunk, samples, tile, seed,
                        id=f"{name}-GF({q})^{d}-chunk{chunk}-samples{samples}-tile{tile}",
                    )


@pytest.mark.parametrize("name,q,d,chunk,samples,tile,seed", _sample_cases())
def test_sample_mode_matches_the_block_loop(name, q, d, chunk, samples, tile, seed, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(rankineq_mod, "_SAMPLE_TILE", tile)
    monkeypatch.setattr(rankineq_mod, "_CHUNK", chunk)
    expr = _DIFFERENTIAL_EXPRESSIONS[name]
    out = search_violation_detailed(expr, q, d, "sample", seed=seed, samples=samples)
    witness, checked, min_slack = _reference_sample(expr, q, d, seed, samples, chunk)
    assert (out.witness.spaces if out.witness else None) == witness
    assert out.checked == checked
    assert out.min_slack == min_slack


@pytest.mark.parametrize("chunk", [3 * 250, 1 << 21], ids=["blocks-of-250", "one-block"])
def test_sample_witness_in_the_middle_of_a_tiled_block(chunk, monkeypatch):
    # violated only where B = C = 0 and A != 0, about 1 trial in 800 over
    # GF(3)^3: with tiles of 100, seed 27 first violates at trial 414, past
    # the first tile and inside its block (the second block of 250 when
    # there are several), and a lower slack follows later in that block
    monkeypatch.setattr(rankineq_mod, "_SAMPLE_TILE", 100)
    monkeypatch.setattr(rankineq_mod, "_CHUNK", chunk)
    expr = expression([h(3, "B"), h(3, "C"), h(-1, "A")])
    out = search_violation_detailed(expr, 3, 3, "sample", seed=27, samples=5_000)
    witness, checked, min_slack = _reference_sample(expr, 3, 3, 27, 5_000, chunk)
    assert out.witness is not None and out.witness.spaces == witness
    assert (out.checked, out.min_slack) == (checked, min_slack)
    assert out.checked > 100 and out.checked % 100 and out.checked % (chunk // 3)
    assert min_slack < evaluate(expr, out.witness)


# (seed, tile, samples): over GF(2)^3, 3 H(B) - H(A) first goes negative at
# trial 14 for seed 3, 17 for seed -1 and 69 for seed 2^64 + 5 (seed 5
# reduced mod 2^64)
_TILE_EDGE_CASES = [
    # tiles of 7, 17 and 23: the witness starts the third, second and
    # fourth tile, and later tiles are drawn over it
    ("first-of-a-later-tile", 3, 7, 35),
    ("first-of-a-later-tile", -1, 17, 51),
    ("first-of-a-later-tile", 2**64 + 5, 23, 115),
    # tiles of 4, 5 and 8: the witness ends a final tile of 3, 3 and 6 trials
    ("last-of-a-short-final-tile", 3, 4, 15),
    ("last-of-a-short-final-tile", -1, 5, 18),
    ("last-of-a-short-final-tile", 2**64 + 5, 8, 70),
]


@pytest.mark.parametrize(
    "edge,seed,tile,samples", _TILE_EDGE_CASES,
    ids=[f"{edge}-seed{seed}" for edge, seed, _, _ in _TILE_EDGE_CASES],
)
def test_sample_witness_at_the_edges_of_a_tile(edge, seed, tile, samples, monkeypatch):
    monkeypatch.setattr(rankineq_mod, "_SAMPLE_TILE", tile)
    expr = expression([h(3, "B"), h(-1, "A")])
    out = search_violation_detailed(expr, 2, 3, "sample", seed=seed, samples=samples)
    witness, checked, min_slack = _reference_sample(expr, 2, 3, seed, samples, rankineq_mod._CHUNK)
    assert out.witness is not None and out.witness.spaces == witness
    assert (out.checked, out.min_slack) == (checked, min_slack)
    g = checked - 1
    if edge == "first-of-a-later-tile":
        assert g % tile == 0 and g >= tile and samples % tile == 0 and samples - g > tile
    else:
        assert g == samples - 1 and samples % tile


def test_sample_mode_with_chunk_below_the_variable_count(monkeypatch):
    # chunk // nvars is 0 here: each block must still draw one trial
    odd = builtin_inequality("oddLRI")
    expr = expression([h(1, "A", given="BCWXY"), h(1, "W"), h(1, "X"), h(-1, "Z")])
    whole_odd = search_violation_detailed(odd, 3, 3, "sample", seed=4, samples=300)
    whole = search_violation_detailed(expr, 2, 3, "sample", seed=0, samples=300)
    monkeypatch.setattr(rankineq_mod, "_CHUNK", 3)
    small = search_violation_detailed(odd, 3, 3, "sample", seed=4, samples=300)
    assert small.witness is None and small.checked == 300
    assert small == whole_odd  # no witness: min_slack is the minimum over every trial
    small = search_violation_detailed(expr, 2, 3, "sample", seed=0, samples=300)
    assert small.witness is not None and small.witness == whole.witness
    assert small.checked == whole.checked == 17
    assert small.min_slack == evaluate(expr, small.witness)


# One expression per slack type; each is violated over GF(2)^3, where a
# dimension reaches 3.  The int32 and int64 weights are past int16 and
# int32, but every slack value fits int64.
_TYPED_EXPRESSIONS = {
    "oddLRI": (builtin_inequality("oddLRI"), np.int16),
    "20000h(A|B)-20000h(C)": (
        expression([h(20_000, "A", given=["B"]), h(-20_000, "C"), h(3, "B", "C")]),
        np.int32,
    ),
    "2^40h(A)-2^40h(B)": (expression([h(2**40, "A"), h(-(2**40), "B")]), np.int64),
}


@pytest.mark.parametrize("name", sorted(_TYPED_EXPRESSIONS))
def test_slack_dtype_is_the_narrowest_the_bound_allows(name):
    expr, dtype = _TYPED_EXPRESSIONS[name]
    plan, _ = _integer_plan(expr, tuple(sorted(expr.variables())))
    assert _slack_dtype(plan, 3) == dtype
    # B = sum |w| * max(d, 1): the same type for d = 0 and d = 1
    assert _slack_dtype(plan, 0) == _slack_dtype(plan, 1)


def test_slack_dtype_boundaries():
    assert _slack_dtype(((32_767, (0,)),), 1) == np.int16
    assert _slack_dtype(((16_384, (0,)), (-16_384, (1,))), 1) == np.int32
    assert _slack_dtype(((2**31 - 1, (0,)),), 1) == np.int32
    assert _slack_dtype(((2**30, (0,)),), 2) == np.int64
    assert _slack_dtype((), 5) == np.int16


def _chain_expression():
    # four-variable terms sharing prefixes of two and three positions,
    # beside a two-variable term on a shared leading pair
    return expression([
        h(1, "A", "B", "C", "D"), h(-2, "A", "B", "C", "E"), h(3, "A", "B", "D", "E"),
        h(-1, "A", "B"), h(1, "B", "C", "D", "E"), h(-1, "C", "E"), h(2, "D"),
    ])


@pytest.mark.parametrize("name", sorted(_TYPED_EXPRESSIONS) + ["chains"])
def test_slack_program_matches_the_reference_gather(name):
    expr = _chain_expression() if name == "chains" else _TYPED_EXPRESSIONS[name][0]
    variables = tuple(sorted(expr.variables()))
    plan, _ = _integer_plan(expr, variables)
    lat = lattice(2, 3)
    size = len(lat)
    idx = np.random.default_rng(11).integers(0, size, size=(500, len(variables)))
    expected = _reference_slack_block(plan, lat, idx)
    # every term large (singletons too), up to pairs tabulated, up to triples, all
    for limit in (0, size - 1, size, size**2, size**3, size ** len(variables)):
        slack = _program_slack(plan, lat, idx, limit)
        assert slack.tolist() == expected.tolist()


def _typed_sample_cases():
    for name in sorted(_TYPED_EXPRESSIONS) + ["chains"]:
        # samples 0 and 1; below the 16 subspaces of GF(2)^3, so every
        # term is large; below one tile; tiles of 97 ending inside
        # blocks of 250 trials (chunk 3 * 250 over 3 variables, fewer
        # trials for more variables)
        for samples, tile, chunk in [(0, None, None), (1, None, None), (10, None, None),
                                     (300, None, None), (3_000, 97, 750)]:
            yield pytest.param(name, samples, tile, chunk, id=f"{name}-samples{samples}-tile{tile}-chunk{chunk}")


@pytest.mark.parametrize("name,samples,tile,chunk", _typed_sample_cases())
def test_sample_mode_of_every_slack_type_matches_the_block_loop(name, samples, tile, chunk, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(rankineq_mod, "_SAMPLE_TILE", tile)
    if chunk is not None:
        monkeypatch.setattr(rankineq_mod, "_CHUNK", chunk)
    expr = _chain_expression() if name == "chains" else _TYPED_EXPRESSIONS[name][0]
    out = search_violation_detailed(expr, 2, 3, "sample", seed=samples, samples=samples)
    witness, checked, min_slack = _reference_sample(expr, 2, 3, samples, samples, rankineq_mod._CHUNK)
    assert (out.witness.spaces if out.witness else None) == witness
    assert (out.checked, out.min_slack) == (checked, min_slack)


def _typed_exhaustive_cases():
    for name, (expr, _) in sorted(_TYPED_EXPRESSIONS.items()):
        q, d = (2, 2) if len(expr.variables()) > 4 else (2, 3)
        for chunk in (1, 7, 16**2 + 3, 1 << 21):
            # chunk 1 makes every term large; the reference loop runs once per chunk
            if count_subspaces(q, d) ** len(expr.variables()) <= 2_000 * chunk:
                yield pytest.param(name, q, d, chunk, id=f"{name}-GF({q})^{d}-chunk{chunk}")


@pytest.mark.parametrize("name,q,d,chunk", _typed_exhaustive_cases())
def test_exhaustive_mode_of_every_slack_type_matches_the_chunk_loop(name, q, d, chunk, monkeypatch):
    monkeypatch.setattr(rankineq_mod, "_CHUNK", chunk)
    expr = _TYPED_EXPRESSIONS[name][0]
    out = search_violation_detailed(expr, q, d, "exhaustive")
    witness, checked, min_slack = _reference_exhaustive(expr, q, d, chunk)
    assert (out.witness.spaces if out.witness else None) == witness
    assert (out.checked, out.min_slack) == (checked, min_slack)


@pytest.mark.parametrize("q,d", [(2, 0), (3, 1), (2, 3), (5, 2), (3, 3)])
def test_join_dims_is_the_dimension_of_every_join(q, d):
    lat = lattice(q, d)
    assert lat.join_dims.dtype == np.int8
    assert not lat.join_dims.flags.writeable
    assert np.array_equal(lat.join_dims, lat.dims[lat.join_table])


def test_sample_tiles_allocate_nothing_per_tile():
    # the traced peak of a sample search does not grow with its tile count
    expr = builtin_inequality("oddLRI")
    search_violation_detailed(expr, 2, 4, "sample", samples=10)  # lattice, join_dims and plan
    peaks = []
    for samples in (40_000, 400_000):
        tracemalloc.start()
        try:
            out = search_violation_detailed(expr, 2, 4, "sample", seed=2, samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert out.witness is None and out.checked == samples
    draws_and_scratch = 2 * 7 * rankineq_mod._SAMPLE_TILE * 8
    assert abs(peaks[1] - peaks[0]) < draws_and_scratch


def test_sample_mode_is_deterministic_and_seed_sensitive():
    expr = expression([h(1, "A"), h(-1, "B")])
    out1 = search_violation_detailed(expr, 2, 3, "sample", seed=7, samples=50)
    out2 = search_violation_detailed(expr, 2, 3, "sample", seed=7, samples=50)
    assert out1 == out2
    assert out1.witness is not None
    # the witness must be reproducible from the documented sequence
    gen = SplitMix64(7)
    spaces = enumerate_subspaces(2, 3)
    for trial in range(out1.checked):
        a_idx = gen.next_below(len(spaces))
        b_idx = gen.next_below(len(spaces))
    assert out1.witness.spaces["A"] == spaces[a_idx]
    assert out1.witness.spaces["B"] == spaces[b_idx]


def test_sampling_valid_regimes_stay_clean():
    for ineq, q in [("oddLRI", 3), ("evenLRI", 2)]:
        out = search_violation_detailed(
            builtin_inequality(ineq), q, 3, "sample", seed=1, samples=20000
        )
        assert out.witness is None and out.checked == 20000


def test_exhaustive_budget_is_checked_before_the_lattice_is_built(monkeypatch):
    monkeypatch.setattr(subspace_mod, "_LATTICE_CACHE", {})
    with pytest.raises(ValueError, match="budget"):
        search_violation_detailed(builtin_inequality("ingleton"), 2, 5, "exhaustive")
    assert (2, 5) not in subspace_mod._LATTICE_CACHE


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        search_violation_detailed(builtin_inequality("ingleton"), 2, 2, "montecarlo")


def test_expected_violation_table():
    assert expected_violation("oddLRI", "even", 3)
    assert not expected_violation("oddLRI", "even", 2)
    assert not expected_violation("oddLRI", "odd", 3)
    assert expected_violation("evenLRI", "odd", 3)
    assert not expected_violation("evenLRI", "even", 5)
    assert not expected_violation("ingleton", "even", 4)
    assert not expected_violation("zhang-yeung", "odd", 4)


@pytest.mark.parametrize("ineq", sorted(rankineq_mod._BUILTINS))
def test_expected_violation_agrees_with_the_catalog_search(ineq):
    expr = builtin_inequality(ineq)
    for q in (2, 3, 5, 7):
        characteristic_class = PrimeField(q).characteristic_class
        for d in range(5):
            found = _catalog_witness(expr, q, d) is not None
            assert expected_violation(ineq, characteristic_class, d) == found, (q, d)


# ---------------------------------------------------------------------------
# splitmix reference sequence


class SplitMix64:
    """The splitmix sequence one call at a time: the i-th output
    (1-based) mixes seed + i * 0x9E3779B97F4A7C15."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.seed = seed & self.MASK
        self.calls = 0

    def next_uint64(self):
        self.calls += 1
        z = (self.seed + self.calls * 0x9E3779B97F4A7C15) & self.MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def next_below(self, bound):
        return self.next_uint64() % bound


def test_splitmix_reference_values():
    # classic splitmix64 outputs for seed 0
    gen = SplitMix64(0)
    assert gen.next_uint64() == 0xE220A8397B1DCDAF
    assert gen.next_uint64() == 0x6E789E6AA1B965F4
    assert gen.next_uint64() == 0x06C45D188009454F


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -1, 2**64 + 5])
def test_sample_tiles_draw_the_splitmix_sequence(seed, monkeypatch):
    # 10 trials in tiles of 4: two whole tiles, then a short final tile of 2
    monkeypatch.setattr(rankineq_mod, "_SAMPLE_TILE", 4)
    expr = builtin_inequality("ingleton")
    variables = tuple(sorted(expr.variables()))
    plan, _ = _integer_plan(expr, variables)
    lat = lattice(2, 3)
    rows, tiles = _sample_tiles(plan, lat, len(variables), seed, 10, 10)
    gen = SplitMix64(seed)
    drawn = []
    for done, slack in tiles:
        assert rows.shape == (4, 4) and rows.dtype == np.int64
        drawn.append((done, len(slack)))
        for t in range(len(slack)):
            expected = [gen.next_below(len(lat)) for _ in variables]
            assert rows[:, t].tolist() == expected
            spaces = {v: lat.spaces[j] for v, j in zip(variables, expected)}
            assert slack[t] == evaluate(expr, assignment(2, 3, spaces))
    assert drawn == [(0, 4), (4, 4), (8, 2)]


# ---------------------------------------------------------------------------
# rank-sum lemma


def test_rank_sum_trivial_equality_case():
    inst = RankLemmaInstance(mat_zeros(GF3, 1, 1), mat_zeros(GF3, 1, 1), (0, 1))
    result = check_rank_sum_lemma(inst)
    assert (result.lhs, result.rhs, result.holds) == (1, 1, True)


def test_rank_sum_identity_case():
    inst = RankLemmaInstance(mat_identity(GF5, 2), mat_identity(GF5, 2), (0, 1))
    result = check_rank_sum_lemma(inst)
    assert (result.lhs, result.rhs, result.holds) == (4, 4, True)


def test_rank_sum_rejects_repeated_scalars():
    with pytest.raises(ValueError):
        RankLemmaInstance(mat_identity(GF3, 2), mat_identity(GF3, 2), (1, 4))  # 4 = 1 mod 3


def test_rank_sum_random_instances():
    rng = random.Random(41)
    for _ in range(1000):
        fld = random.Random(rng.random()).choice([GF3, GF5])
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        m = mat(fld, [[rng.randrange(fld.p) for _ in range(k)] for _ in range(k)])
        n = mat(fld, [[rng.randrange(fld.p) for _ in range(k)] for _ in range(r)], cols=k)
        t = rng.choice([2, 3])
        lams = rng.sample(range(fld.p), t)
        assert check_rank_sum_lemma(RankLemmaInstance(m, n, tuple(lams))).holds


