"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line when its
assertions hold (run with ``pytest -s tests/test_acceptance.py`` to see
them).  All comparisons are exact rational or integer arithmetic; no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from ncregions.codes import (
    builtin_code_specs,
    builtin_codes,
    concatenate_codes,
    instantiate_builtin,
    rate_vector,
    verify_solution,
    verify_solution_exhaustive,
)
from ncregions.ff import (
    GF2,
    GF3,
    GF5,
    PrimeField,
    mat,
    mat_nullspace,
    mat_rank,
    mat_rref,
)
from ncregions.netmodel import NETWORK_IDS, builtin_network
from ncregions.rankineq import (
    HAtom,
    IAtom,
    RankLemmaInstance,
    builtin_inequality,
    check_rank_sum_lemma,
    coordinate_assignment,
    evaluate,
    expression,
    search_violation_detailed,
)
from ncregions.rateregion import (
    INGLETON_COEFFS,
    ZHANG_YEUNG_COEFFS,
    ZHANG_YEUNG_SWAPPED_COEFFS,
    average_capacity,
    builtin_region,
    contains,
    enumerate_vertices,
    tight_constraints,
    transfer_vamos,
    uniform_capacity,
)
from ncregions.subspace import (
    LinearMapBetweenSubspaces,
    apply_ambient_transform,
    assignment,
    enumerate_subspaces,
    meet,
    preimage,
    subspace_span,
)
from test_rateregion import _frac_rank  # the Fraction elimination, as a reference


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS — {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_region_reconstruction():
    expected_counts = {
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
    landmark = {
        ("fano", "linear-odd"): [(Fraction(4, 5),) * 3],
        ("nonfano", "linear-even"): [(1, 1, Fraction(1, 2))],
        ("vamos", "linear"): [
            (1, 1, Fraction(1, 2), 1),
            (1, Fraction(1, 2), 1, 1),
        ],
    }
    for (network, cls), count in sorted(expected_counts.items()):
        h, expected = builtin_region(network, cls)
        got = enumerate_vertices(h)
        assert len(expected) == count, (network, cls)
        assert got.vertices == expected.vertices, (network, cls)
        for point in landmark.get((network, cls), []):
            assert tuple(Fraction(x) for x in point) in got.vertices
    _report(1, "11 cataloged regions enumerate to the expected vertex sets exactly")


def test_criterion_2_capacities():
    cases = [
        ("gbutterfly", "coding", uniform_capacity, Fraction(2, 3)),
        ("gbutterfly", "coding", average_capacity, Fraction(3, 4)),
        ("gbutterfly", "routing", uniform_capacity, Fraction(1, 2)),
        ("gbutterfly", "routing", average_capacity, Fraction(3, 4)),
        ("fano", "coding", uniform_capacity, Fraction(1)),
        ("fano", "linear-odd", uniform_capacity, Fraction(4, 5)),
        ("nonfano", "linear-even", uniform_capacity, Fraction(5, 6)),
        ("nonfano", "linear-even", average_capacity, Fraction(5, 6)),
    ]
    for network, cls, fn, value in cases:
        h, _ = builtin_region(network, cls)
        assert fn(h) == value, (network, cls, fn.__name__)
    _report(2, "uniform and average capacities are exactly the cataloged rationals")


def test_criterion_3_code_verification_and_oracle_agreement():
    start = time.time()
    largest = 0
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for bc in builtin_codes(net_id):
            report = verify_solution(net, bc.code)
            assert report.valid, (net_id, bc.label)
            rates = rate_vector(bc.code)
            point = tuple(rates[m] for m in net.messages)
            for cls in bc.region_classes:
                region, _ = builtin_region(net_id, cls)
                assert contains(region, point), (net_id, bc.label, cls)
            space = bc.code.field.p ** bc.code.rates.total_message_width
            largest = max(largest, space)
            assert space <= 2**20
            exhaustive = verify_solution_exhaustive(net, bc.code)
            assert exhaustive.valid
            assert [s.ok for s in exhaustive.statuses] == [s.ok for s in report.statuses]

    # characteristic-dependence: claimed-odd unit codes must fail over
    # GF(2) and the claimed-even fano code must fail over GF(3)
    fano = builtin_network("fano")
    fano_specs = {s.label: s for s in builtin_code_specs("fano")}
    rejected = verify_solution(fano, instantiate_builtin(fano, fano_specs["(1,1,1)"], GF3).code)
    assert not rejected.valid
    assert (rejected.first_failure().receiver, rejected.first_failure().message) == ("R12", "c")
    nonfano = builtin_network("nonfano")
    nf_specs = {s.label: s for s in builtin_code_specs("nonfano")}
    assert not verify_solution(nonfano, instantiate_builtin(nonfano, nf_specs["(1,1,1)"], GF2).code).valid
    for fld in (GF2, GF3):
        code = instantiate_builtin(nonfano, nf_specs["(1,1,1/2)"], fld).code
        assert verify_solution(nonfano, code).valid
        assert verify_solution_exhaustive(nonfano, code).valid
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    assert largest == 3**12
    _report(3, f"all bundled codes verify, rates sit in their regions, "
               f"exhaustive oracle agrees (largest space 3^12; {elapsed:.1f}s)")


def test_criterion_4_time_sharing():
    net = builtin_network("gbutterfly")
    wanted = ["(1,0,1,1)", "(1,1,0,1)", "(0,1,1,0)"]
    parts = [bc.code for bc in builtin_codes("gbutterfly") if bc.label in wanted]
    assert len(parts) == 3
    combined = concatenate_codes(parts, net)
    assert combined.rates.message_dims == {"a": 2, "b": 2, "c": 2, "d": 2}
    assert combined.rates.edge_dim == 3
    report = verify_solution(net, combined)
    assert report.valid
    assert all(r == Fraction(2, 3) for r in report.rate_vector.values())
    assert verify_solution_exhaustive(net, combined).valid
    _report(4, "concatenating the three unit codes yields a valid (2,2,2,2;3) "
               "code at rate (2/3,2/3,2/3,2/3)")


def test_criterion_5_transfer():
    ingleton = transfer_vamos(INGLETON_COEFFS)
    assert ingleton.reducible
    assert ingleton.rate_coeffs == (1, 2, 2, 1) and ingleton.n_coeff == 5
    linear_region, _ = builtin_region("vamos", "linear")
    assert ingleton.rate_halfspace() in linear_region.halfspaces

    zy = transfer_vamos(ZHANG_YEUNG_COEFFS)
    assert zy.reducible and zy.cy_coeff == 1
    assert zy.rate_coeffs == (4, 4, 2, 1) and zy.n_coeff == 10

    swapped = transfer_vamos(ZHANG_YEUNG_SWAPPED_COEFFS)
    assert swapped.message_coeffs == (1, 2, 4, 4)
    assert swapped.edge_coeffs == (5, 2, 2, 1)
    assert not swapped.reducible
    _report(5, "transfer reproduces the Ingleton plane, the (4,4,2,1)<=10 "
               "bound with I(c;y)=+1, and the non-reducible swapped bound")


def test_criterion_6_rank_inequalities():
    start = time.time()
    odd = builtin_inequality("oddLRI")
    even = builtin_inequality("evenLRI")

    assert evaluate(odd, coordinate_assignment(2, 3)) == -1
    assert evaluate(even, coordinate_assignment(3, 3)) == -1
    out = search_violation_detailed(odd, 2, 3, "catalog")
    assert out.witness is not None and out.min_slack == -1
    out = search_violation_detailed(even, 3, 3, "catalog")
    assert out.witness is not None and out.min_slack == -1

    exhaustive_cases = [(odd, 2, 2), (odd, 3, 2), (even, 2, 2)]
    for expr, q, d in exhaustive_cases:
        out = search_violation_detailed(expr, q, d, "exhaustive")
        assert out.witness is None, (q, d)
        assert out.checked == len(enumerate_subspaces(q, d)) ** 7

    sample_cases = [
        (odd, 3, 3),
        (even, 2, 3),
        (builtin_inequality("ingleton"), 2, 3),
        (builtin_inequality("ingleton"), 3, 3),
        (builtin_inequality("zhang-yeung"), 2, 3),
        (builtin_inequality("zhang-yeung"), 3, 3),
    ]
    for expr, q, d in sample_cases:
        out = search_violation_detailed(expr, q, d, "sample", seed=1, samples=100_000)
        assert out.witness is None, (q, d)
        assert out.checked == 100_000
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"slack -1 witnesses, clean exhaustive scans (<= 6^7) and clean "
               f"100k-sample scans ({elapsed:.1f}s)")


def test_criterion_7_rank_sum_and_codimension_lemmas():
    rng = random.Random(2718)
    for _ in range(10_000):
        fld = GF3 if rng.random() < 0.5 else GF5
        k = rng.randrange(1, 4)
        r = rng.randrange(0, 3)
        m = mat(fld, [[rng.randrange(fld.p) for _ in range(k)] for _ in range(k)])
        n = mat(fld, [[rng.randrange(fld.p) for _ in range(k)] for _ in range(r)], cols=k)
        t = rng.choice([2, 3])
        lams = tuple(rng.sample(range(fld.p), t))
        result = check_rank_sum_lemma(RankLemmaInstance(m, n, lams))
        assert result.holds

    def random_subspace(q, d):
        vecs = [[rng.randrange(q) for _ in range(d)] for _ in range(rng.randrange(d + 1))]
        return subspace_span(q, d, vecs)

    for _ in range(5_000):
        q, d = (2, 4) if rng.random() < 0.5 else (3, 3)
        parts = [random_subspace(q, d) for _ in range(3)]
        inter = parts[0]
        for s in parts[1:]:
            inter = meet(inter, s)
        assert inter.codim <= sum(s.codim for s in parts)

    for _ in range(5_000):
        q = rng.choice([2, 3])
        d_dom, d_cod = rng.randrange(1, 4), rng.randrange(1, 4)
        fld = PrimeField(q)
        f = LinearMapBetweenSubspaces(
            fld, d_dom, d_cod,
            mat(fld, [[rng.randrange(q) for _ in range(d_dom)] for _ in range(d_cod)], cols=d_dom),
        )
        target = random_subspace(q, d_cod)
        assert preimage(f, target).codim <= target.codim
    _report(7, "rank-sum bound holds on 10^4 random instances; codimension "
               "bounds hold on 10^4 random subspace/map instances")


def test_criterion_8_property_suites():
    rng = random.Random(31415)

    # polymatroid nonnegativity of rank atoms on sampled assignments
    for q, d in [(2, 3), (3, 2)]:
        spaces = enumerate_subspaces(q, d)
        names = ["A", "B", "C", "D"]
        for _ in range(2_000):
            assign = assignment(q, d, {n: spaces[rng.randrange(len(spaces))] for n in names})
            pick = lambda: frozenset(rng.sample(names, rng.randrange(1, 3)))
            maybe = lambda: frozenset(rng.sample(names, rng.randrange(0, 3)))
            h_atom = expression([(Fraction(1), HAtom(pick(), maybe()))])
            i_atom = expression([(Fraction(1), IAtom(pick(), pick(), maybe()))])
            assert evaluate(h_atom, assign) >= 0
            assert evaluate(i_atom, assign) >= 0

    # basis invariance of every evaluation under ambient transforms
    odd = builtin_inequality("oddLRI")
    ingleton = builtin_inequality("ingleton")
    for trial in range(1_000):
        q, d = (2, 3) if trial % 2 == 0 else (3, 3)
        fld = PrimeField(q)
        spaces = enumerate_subspaces(q, d)
        expr, names = (odd, sorted(odd.variables())) if trial % 4 < 2 else (ingleton, ["A", "B", "C", "D"])
        assign = assignment(q, d, {n: spaces[rng.randrange(len(spaces))] for n in names})
        while True:
            m = mat(fld, [[rng.randrange(q) for _ in range(d)] for _ in range(d)])
            if mat_rank(m) == d:
                break
        moved = apply_ambient_transform(assign, m)
        assert evaluate(expr, moved) == evaluate(expr, assign)

    # rref idempotence and rank-nullity over GF(2), GF(3), GF(5)
    for _ in range(1_500):
        fld = (GF2, GF3, GF5)[rng.randrange(3)]
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 5)
        m = mat(fld, [[rng.randrange(fld.p) for _ in range(cols)] for _ in range(rows)], cols=cols)
        r = mat_rref(m)
        assert mat_rref(r) == r
        assert mat_rank(m) + mat_nullspace(m).rows == cols

    # vertex extremality and capacity ordering across the whole catalog
    for network, cls in [
        ("gbutterfly", "coding"), ("gbutterfly", "routing"),
        ("fano", "coding"), ("fano", "linear-odd"), ("fano", "routing"),
        ("nonfano", "coding"), ("nonfano", "linear-even"), ("nonfano", "routing"),
        ("vamos", "routing"), ("vamos", "shannon-outer"), ("vamos", "linear"),
        ("vamos", "zy-outer"),
    ]:
        h, _ = builtin_region(network, cls)
        for v in enumerate_vertices(h):
            tights = tight_constraints(h, v)
            assert _frac_rank([h.halfspaces[k].coeffs for k in tights]) == h.dim
        assert uniform_capacity(h) <= average_capacity(h)
    _report(8, "polymatroid nonnegativity, basis invariance, rref idempotence, "
               "rank-nullity, vertex extremality and capacity ordering all hold")
