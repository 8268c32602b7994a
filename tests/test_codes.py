import json
from fractions import Fraction

import pytest

from ncregions.codes import (
    GuardExceededError,
    LinearCode,
    TableCode,
    builtin_code_specs,
    builtin_codes,
    concatenate_codes,
    evaluate_code,
    instantiate_builtin,
    is_routing,
    rate_spec,
    rate_vector,
    read_code_file,
    to_table_code,
    verify_solution,
    verify_solution_exhaustive,
    write_code_file,
    zero_fix,
)
from ncregions.ff import GF2, GF3, GF5, mat
from ncregions.netmodel import NETWORK_IDS, builtin_network
from ncregions.rateregion import builtin_region, contains

from conftest import DATA_DIR


def _builtin(net_id, label, fld=None):
    net = builtin_network(net_id)
    spec = next(s for s in builtin_code_specs(net_id) if s.label == label)
    return net, instantiate_builtin(net, spec, fld).code


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_gbutterfly_crossing_code():
    net, code = _builtin("gbutterfly", "(0,1,1,0)")
    res = evaluate_code(net, code, {"b": (1,), "c": (1,)})
    assert res.edges["x"] == (1,)
    assert res.edges["y"] == (0,)
    assert res.edges["z"] == (1,)
    assert res.decoded[("R5", "c")] == (1,)
    assert res.decoded[("R6", "b")] == (1,)


def test_evaluate_all_zero_messages_gives_all_zero_edges():
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for bc in builtin_codes(net_id):
            assignment = {m: (0,) * k for m, k in bc.code.rates.message_dims.items()}
            res = evaluate_code(net, bc.code, assignment)
            assert all(all(x == 0 for x in v) for v in res.edges.values())


def test_evaluate_nonfano_unit_code_over_gf3():
    net, code = _builtin("nonfano", "(1,1,1)")
    res = evaluate_code(net, code, {"a": (1,), "b": (2,), "c": (1,)})
    assert res.edges == {"w": (0,), "x": (2,), "y": (0,), "z": (1,)}
    assert res.decoded[("R15", "c")] == (1,)


def test_evaluate_rejects_bad_dimensions():
    net, code = _builtin("nonfano", "(1,1,1)")
    with pytest.raises(ValueError):
        evaluate_code(net, code, {"a": (1, 0), "b": (2,), "c": (1,)})


def test_synthesized_decoders_recover_messages():
    net, code = _builtin("fano", "(4/5,4/5,4/5)")
    assignment = {"a": (1, 2, 0, 1), "b": (2, 2, 1, 0), "c": (0, 1, 1, 2)}
    res = evaluate_code(net, code, assignment)
    for (node, msg), value in res.decoded.items():
        assert value == assignment[msg], (node, msg)


# ---------------------------------------------------------------------------
# verification of the bundled catalog


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_builtin_codes_verify_over_their_claimed_class(net_id):
    net = builtin_network(net_id)
    for bc in builtin_codes(net_id):
        report = verify_solution(net, bc.code)
        assert report.valid, (net_id, bc.label, report.first_failure())


def test_builtin_any_codes_also_verify_over_gf3_and_gf5():
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for spec in builtin_code_specs(net_id):
            if spec.characteristic != "any":
                continue
            for fld in (GF3, GF5):
                code = instantiate_builtin(net, spec, fld).code
                assert verify_solution(net, code).valid, (net_id, spec.label, fld.p)


def test_fano_unit_code_fails_only_in_odd_characteristic():
    net, code = _builtin("fano", "(1,1,1)", GF3)
    report = verify_solution(net, code)
    assert not report.valid
    failure = report.first_failure()
    assert (failure.receiver, failure.message) == ("R12", "c")
    assert failure.witness is not None
    # witness: nonzero demanded message, receiver inputs identical to zero
    res = evaluate_code(net, code, failure.witness)
    zero = evaluate_code(net, code, {m: (0,) * k for m, k in code.rates.message_dims.items()})
    assert res.edges["x"] == zero.edges["x"]
    assert failure.witness["c"] != (0,)

    _, even = _builtin("fano", "(1,1,1)", GF2)
    assert verify_solution(net, even).valid


def test_nonfano_unit_code_odd_only():
    net, odd = _builtin("nonfano", "(1,1,1)", GF3)
    assert verify_solution(net, odd).valid
    _, over2 = _builtin("nonfano", "(1,1,1)", GF2)
    report = verify_solution(net, over2)
    assert not report.valid
    failure = report.first_failure()
    assert (failure.receiver, failure.message) == ("R15", "c")


def test_characteristic_claims_hold_across_odd_primes():
    # "odd" claims mean every odd-characteristic prime field, not just GF(3)
    from ncregions.ff import PrimeField

    gf7 = PrimeField(7)
    fano = builtin_network("fano")
    fano_specs = {s.label: s for s in builtin_code_specs("fano")}
    for fld in (GF5, gf7):
        assert not verify_solution(
            fano, instantiate_builtin(fano, fano_specs["(1,1,1)"], fld).code
        ).valid
        for label in ("(1,2/3,2/3)", "(2/3,2/3,1)", "(4/5,4/5,4/5)"):
            code = instantiate_builtin(fano, fano_specs[label], fld).code
            assert verify_solution(fano, code).valid, (label, fld.p)
    nonfano = builtin_network("nonfano")
    unit = {s.label: s for s in builtin_code_specs("nonfano")}["(1,1,1)"]
    for fld in (GF5, gf7):
        assert verify_solution(nonfano, instantiate_builtin(nonfano, unit, fld).code).valid


def test_nonfano_half_rate_code_works_over_both_characteristics():
    for fld in (GF2, GF3):
        net, code = _builtin("nonfano", "(1,1,1/2)", fld)
        assert verify_solution(net, code).valid
        assert verify_solution_exhaustive(net, code).valid


def test_supplied_decoder_mismatch_is_detected():
    from ncregions.ff import mat

    net, code = _builtin("nonfano", "(1,1,1)")
    wrong = mat(GF3, [[1, 1]])  # y + z = a + 2b + 2c, not a
    broken = LinearCode(
        code.network,
        code.field,
        code.rates,
        code.edge_functions,
        {**code.decoders, ("R14", "a"): wrong},
    )
    report = verify_solution(net, broken)
    assert not report.valid
    failure = report.first_failure()
    assert (failure.receiver, failure.message) == ("R14", "a")
    assert failure.reason == "supplied decoder does not reproduce the demand"


# ---------------------------------------------------------------------------
# exhaustive verification


def test_exhaustive_fano_unit_code_counts_assignments():
    net, code = _builtin("fano", "(1,1,1)", GF2)
    report = verify_solution_exhaustive(net, code)
    assert report.valid and report.assignments_checked == 8


def test_exhaustive_gbutterfly_uniform_code():
    net, code = _builtin("gbutterfly", "(2/3,2/3,2/3,2/3)", GF2)
    report = verify_solution_exhaustive(net, code)
    assert report.valid and report.assignments_checked == 256


def test_exhaustive_agrees_with_algebraic_on_all_builtins():
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for bc in builtin_codes(net_id):
            algebraic = verify_solution(net, bc.code)
            exhaustive = verify_solution_exhaustive(net, bc.code)
            assert algebraic.valid == exhaustive.valid
            assert [s.ok for s in algebraic.statuses] == [s.ok for s in exhaustive.statuses]


def test_exhaustive_agrees_on_invalid_codes():
    net, code = _builtin("fano", "(1,1,1)", GF3)
    algebraic = verify_solution(net, code)
    exhaustive = verify_solution_exhaustive(net, code)
    assert not exhaustive.valid
    assert [s.ok for s in algebraic.statuses] == [s.ok for s in exhaustive.statuses]
    failure = exhaustive.first_failure()
    assert (failure.receiver, failure.message) == ("R12", "c")
    # witness property: an earlier assignment exists with identical
    # receiver inputs but a different demanded value
    w = failure.witness
    assert w is not None

    def receiver_view(assignment):
        res = evaluate_code(net, code, assignment)
        return assignment["a"], res.edges["x"]

    import itertools

    w_tuple = w["a"] + w["b"] + w["c"]
    earlier_conflict = False
    for bits in itertools.product(range(3), repeat=3):
        if bits >= tuple(w_tuple):
            break
        other = {"a": bits[:1], "b": bits[1:2], "c": bits[2:]}
        if receiver_view(other) == receiver_view(w) and other["c"] != w["c"]:
            earlier_conflict = True
            break
    assert earlier_conflict
    # determinism: a second run reproduces the same witness
    assert verify_solution_exhaustive(net, code).first_failure().witness == w


def test_oracle_equivalence_on_random_codes():
    # the two verifiers are independent routes; they must agree demand by
    # demand on arbitrary codes, valid or not
    import random

    from ncregions.codes import LinearCode, node_input_width, rate_spec
    from ncregions.ff import mat

    rng = random.Random(424242)
    agreements = invalid_seen = 0
    for _ in range(120):
        net_id = rng.choice(list(NETWORK_IDS))
        net = builtin_network(net_id)
        fld = rng.choice([GF2, GF3])
        dims = {m: rng.randrange(0, 2) for m in net.messages}
        n = rng.randrange(1, 3)
        rates = rate_spec(net, dims, n)
        if fld.p ** rates.total_message_width > 3**8:
            continue
        functions = {}
        for label in net.coded_labels():
            edge = net.edge_by_id(net.named_edges[label])
            width = node_input_width(net, rates, edge.tail)
            functions[label] = mat(
                fld,
                [[rng.randrange(fld.p) for _ in range(width)] for _ in range(n)],
                cols=width,
            )
        code = LinearCode(net.name, fld, rates, functions)
        algebraic = verify_solution(net, code)
        exhaustive = verify_solution_exhaustive(net, code)
        assert algebraic.valid == exhaustive.valid
        assert [s.ok for s in algebraic.statuses] == [s.ok for s in exhaustive.statuses]
        agreements += 1
        if not algebraic.valid:
            invalid_seen += 1
            failure = algebraic.first_failure()
            # the algebraic witness is indistinguishable from zero at the
            # receiver yet carries a nonzero demanded message
            w = failure.witness
            assert w is not None and any(x for x in w[failure.message])

            def receiver_view(assignment):
                from ncregions.codes import node_symbols

                res = evaluate_code(net, code, assignment)
                view = []
                for kind, name in node_symbols(net, failure.receiver):
                    if kind == "m":
                        view.append(tuple(assignment[name]))
                    else:
                        view.append(res.edges[net.edge_by_id(name).label])
                return tuple(view)

            zeros = {m: (0,) * k for m, k in rates.message_dims.items()}
            assert receiver_view(w) == receiver_view(zeros)
    assert agreements >= 80
    assert invalid_seen >= 20  # random codes are mostly invalid


def test_exhaustive_guard():
    net, code = _builtin("fano", "(4/5,4/5,4/5)")
    with pytest.raises(GuardExceededError):
        verify_solution_exhaustive(net, code, guard=1000)


def test_corrupted_decoder_table_is_caught_with_witness():
    net, code = _builtin("nonfano", "(1,1,1)", GF3)
    table = to_table_code(net, code)
    assert verify_solution_exhaustive(net, table).valid
    key = ("R15", "c")
    rows = list(table.decoder_tables[key])
    target = 5  # some mid-table entry
    original = rows[target][0]
    rows[target] = ((original + 1) % 3,)
    corrupted = TableCode(
        table.network,
        table.alphabet,
        table.rates,
        table.edge_tables,
        {**table.decoder_tables, key: tuple(rows)},
    )
    report = verify_solution_exhaustive(net, corrupted)
    assert not report.valid
    failure = report.first_failure()
    assert (failure.receiver, failure.message) == ("R15", "c")
    assert failure.witness is not None
    # the witness assignment really does hit the corrupted entry
    res = evaluate_code(net, corrupted, failure.witness)
    assert res.decoded[("R15", "c")] != failure.witness["c"]


# ---------------------------------------------------------------------------
# routing detection


def test_routing_examples():
    _, routing = _builtin("gbutterfly", "(2,0,0,1)")
    assert is_routing(routing)
    _, coded = _builtin("gbutterfly", "(0,1,1,0)")
    assert not is_routing(coded)


def test_empty_code_is_routing():
    net = builtin_network("vamos")
    spec = next(s for s in builtin_code_specs("vamos") if s.label == "(0,0,0,0)")
    code = instantiate_builtin(net, spec).code
    assert is_routing(code)
    assert verify_solution(net, code).valid


def test_routing_verdict_is_field_oblivious():
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for spec in builtin_code_specs(net_id):
            if "routing" not in spec.region_classes:
                continue
            verdicts = set()
            for fld in (GF2, GF3, GF5):
                code = instantiate_builtin(net, spec, fld).code
                assert is_routing(code)
                verdicts.add(verify_solution(net, code).valid)
            assert verdicts == {True}


def test_routing_table_code():
    net, code = _builtin("gbutterfly", "(1/2,1/2,1/2,1/2)")
    table = to_table_code(net, code)
    assert is_routing(table, net)
    _, mixing = _builtin("gbutterfly", "(0,1,1,0)")
    assert not is_routing(to_table_code(net, mixing), net)


# ---------------------------------------------------------------------------
# rates, concatenation, zero-fix


def test_rate_vector_examples():
    _, code = _builtin("fano", "(4/5,4/5,4/5)")
    assert rate_vector(code) == {"a": Fraction(4, 5), "b": Fraction(4, 5), "c": Fraction(4, 5)}
    _, half = _builtin("nonfano", "(1,1,1/2)")
    assert rate_vector(half) == {"a": 1, "b": 1, "c": Fraction(1, 2)}
    net = builtin_network("vamos")
    spec = next(s for s in builtin_code_specs("vamos") if s.label == "(0,0,0,0)")
    assert set(rate_vector(instantiate_builtin(net, spec).code).values()) == {0}


def test_builtin_rates_lie_in_their_cataloged_regions():
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for bc in builtin_codes(net_id):
            rates = rate_vector(bc.code)
            point = tuple(rates[m] for m in net.messages)
            for cls in bc.region_classes:
                h, _ = builtin_region(net_id, cls)
                assert contains(h, point), (net_id, bc.label, cls)


def test_concatenation_achieves_the_uniform_point():
    net = builtin_network("gbutterfly")
    labels = ["(1,0,1,1)", "(1,1,0,1)", "(0,1,1,0)"]
    parts = [c.code for c in builtin_codes("gbutterfly") if c.label in labels]
    assert len(parts) == 3
    combined = concatenate_codes(parts, net)
    assert combined.rates.edge_dim == 3
    assert combined.rates.message_dims == {"a": 2, "b": 2, "c": 2, "d": 2}
    report = verify_solution(net, combined)
    assert report.valid
    assert set(report.rate_vector.values()) == {Fraction(2, 3)}
    assert verify_solution_exhaustive(net, combined).valid


def test_concatenation_adds_rate_numerators_and_denominators():
    net = builtin_network("fano")
    parts = [c.code for c in builtin_codes("fano") if c.label in ("(0,1,1)", "(1,0,1)")]
    combined = concatenate_codes(parts, net)
    assert combined.rates.message_dims == {"a": 1, "b": 1, "c": 2}
    assert combined.rates.edge_dim == 2
    assert verify_solution(net, combined).valid


def test_concatenating_a_single_code_returns_it():
    net = builtin_network("fano")
    code = builtin_codes("fano")[0].code
    assert concatenate_codes([code], net) == code


def test_concatenation_rejects_mixed_fields_or_networks():
    net, a2 = _builtin("fano", "(0,1,1)", GF2)
    _, a3 = _builtin("fano", "(0,1,1)", GF3)
    with pytest.raises(ValueError):
        concatenate_codes([a2, a3], net)
    _, other = _builtin("nonfano", "(1,0,0)", GF2)
    with pytest.raises(ValueError):
        concatenate_codes([a2, other], net)


def test_zero_fix_keeps_validity_and_shrinks_rates():
    net, code = _builtin("nonfano", "(1,1,1/2)")
    fixed = zero_fix(net, code, ["c"])
    assert rate_vector(fixed) == {"a": 1, "b": 1, "c": 0}
    assert verify_solution(net, fixed).valid
    assert verify_solution_exhaustive(net, fixed).valid
    # zero-rate demand passes vacuously
    all_zero = zero_fix(net, code, ["a", "b", "c"])
    report = verify_solution(net, all_zero)
    assert report.valid and all(st.ok for st in report.statuses)


# ---------------------------------------------------------------------------
# code files


def test_code_file_round_trip(tmp_path):
    for net_id, label in [("fano", "(4/5,4/5,4/5)"), ("gbutterfly", "(2/3,2/3,2/3,2/3)")]:
        net, code = _builtin(net_id, label)
        path = tmp_path / "code.json"
        write_code_file(path, net, code)
        net2, loaded = read_code_file(path)
        assert net2.name == net.name
        assert loaded == code


def test_table_code_file_round_trip(tmp_path):
    net, code = _builtin("nonfano", "(1,1,1)", GF3)
    table = to_table_code(net, code)
    path = tmp_path / "table.json"
    write_code_file(path, net, table)
    _, loaded = read_code_file(path)
    assert loaded == table
    assert verify_solution_exhaustive(net, loaded).valid


def test_code_file_permutes_listed_inputs(tmp_path):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    path = tmp_path / "c.json"
    write_code_file(path, net, code)
    doc = json.loads(path.read_text())
    # list w's inputs backwards and swap the matrix columns to match
    entry = doc["edges"]["w"]
    assert entry["inputs"] == ["a", "b"]
    entry["inputs"] = ["b", "a"]
    entry["matrix"] = [[row[1], row[0]] for row in entry["matrix"]]
    path.write_text(json.dumps(doc))
    _, loaded = read_code_file(path)
    assert loaded == code


def test_code_file_for_custom_network(tmp_path):
    net_text = "message a@src\nedge e1 src dst\ndemand dst a\n"
    (tmp_path / "relay.net").write_text(net_text)
    doc = {
        "network": "relay",
        "network_file": "relay.net",
        "field": {"modulus": 2},
        "message_dims": {"a": 1},
        "edge_dim": 1,
        "edges": {"e1": {"inputs": ["a"], "matrix": [[1]]}},
    }
    path = tmp_path / "relay_code.json"
    path.write_text(json.dumps(doc))
    net, code = read_code_file(path)
    assert net.name == "relay"
    assert verify_solution(net, code).valid


def test_bundled_code_files_load(tmp_path):
    net, code = read_code_file(DATA_DIR / "codes" / "fano_45_odd.json")
    assert code.field.p == 3
    assert verify_solution(net, code).valid
    net, bad = read_code_file(DATA_DIR / "codes" / "fano_111_gf3.json")
    assert not verify_solution(net, bad).valid


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("edges"),
        lambda d: d["edges"].pop("w"),
        lambda d: d["edges"]["w"].update(matrix=[[1]]),  # wrong width
        lambda d: d.update(field={"characteristic": "prime"}),
        lambda d: d["edges"]["w"].update(inputs=["a", "c"]),  # not w's inputs
        # R12 demands c from (a, x); a valid decoder is [[1, 1]]
        lambda d: d.update(decoders={"R12/a": {"inputs": ["a", "x"], "matrix": [[1, 1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": [[1, 1], [1, 1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": [[1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": []}}),
        # wrongly typed JSON fields
        lambda d: d.update(edges=[]),
        lambda d: d.update(edge_dim=None),
        lambda d: d["edges"]["w"].update(matrix="11"),
    ],
)
def test_code_file_rejects_malformed_documents(tmp_path, mutate):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    path = tmp_path / "c.json"
    write_code_file(path, net, code)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises((ValueError, KeyError)):
        read_code_file(path)


@pytest.mark.parametrize(
    "mutate",
    [
        # w = a + b over GF(2) tabulates as ["0", "1", "1", "0"]
        lambda d: d["edges"]["w"].update(table=["0", "z", "3", "0"]),
        lambda d: d["edges"]["w"].update(table=["0", "1", "1", "2"]),
        lambda d: d["edges"]["w"].update(table=["0", "1", "1"]),
        lambda d: d["edges"]["w"].update(table=["00", "1", "1", "0"]),
        lambda d: d.update(decoders={"R12/a": {"inputs": ["a", "x"], "table": ["0", "1", "1", "0"]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["0", "1", "1"]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["00", "11", "11", "00"]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["0", "1", "1", "2"]}}),
    ],
)
def test_table_code_file_rejects_malformed_tables(tmp_path, mutate):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    path = tmp_path / "t.json"
    write_code_file(path, net, to_table_code(net, code))
    doc = json.loads(path.read_text())
    assert doc["edges"]["w"]["table"] == ["0", "1", "1", "0"]
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        read_code_file(path)


def test_mis_shaped_decoder_is_rejected_by_both_verifiers():
    # a 2-row decoder for a 1-symbol demand used to pass the exhaustive
    # verifier (numpy broadcast the comparison) while failing the algebraic one
    net, code = _builtin("fano", "(1,1,1)", GF2)
    bad = LinearCode(
        code.network, code.field, code.rates, code.edge_functions,
        {("R12", "c"): mat(GF2, [[1, 1], [1, 1]], cols=2)},
    )
    with pytest.raises(ValueError):
        verify_solution(net, bad)
    with pytest.raises(ValueError):
        verify_solution_exhaustive(net, bad)


def test_rate_spec_validation():
    net = builtin_network("fano")
    with pytest.raises(ValueError):
        rate_spec(net, {"a": 1}, 0)
    with pytest.raises(ValueError):
        rate_spec(net, {"zz": 1}, 1)
    with pytest.raises(ValueError):
        rate_spec(net, {"a": -1}, 1)
    spec = rate_spec(net, {"a": 1}, 1)
    assert spec.message_dims == {"a": 1, "b": 0, "c": 0}
