import hashlib
import json
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ncregions.codes as codes_module
from ncregions.codes import (
    DEFAULT_ENUMERATION_GUARD,
    DemandStatus,
    GuardExceededError,
    LinearCode,
    TableCode,
    VerificationReport,
    _alphabet_size,
    _functions,
    _input_layout,
    _propagate,
    _tail,
    _transfer,
    build_code,
    builtin_code_specs,
    builtin_codes,
    code_to_json,
    concatenate_codes,
    formulas_to_matrix,
    RateSpec,
    instantiate_builtin,
    is_routing,
    node_input_width,
    rate_spec,
    rate_vector,
    read_code_file,
    to_table_code,
    validate_code,
    verify_solution,
    verify_solution_exhaustive,
    write_code_file,
    zero_fix,
)
from ncregions.ff import GF2, GF3, GF5, PrimeField, PrimeFieldMatrix, mat, solve
from ncregions.netmodel import (
    NETWORK_IDS,
    Network,
    builtin_network,
    parse_network,
    topological_order,
)
from ncregions.rateregion import builtin_region, contains

from conftest import DATA_DIR
from test_ff import mat_vec, rowspace_contains
from test_netmodel import network_to_text


def _builtin(net_id, label, fld=None):
    net = builtin_network(net_id)
    spec = next(s for s in builtin_code_specs(net_id) if s.label == label)
    return net, instantiate_builtin(net, spec, fld).code


# ---------------------------------------------------------------------------
# evaluation of one assignment, the witness oracle of the verifier tests:
# it walks topological_order itself, so it checks independently the walk
# that both verifiers share


def _synthesize_decoder(t_matrix, sel):
    """Solve D . T = sel row by row; None when no decoder exists."""
    t_t = mat(t_matrix.field, [t_matrix.column(j) for j in range(t_matrix.cols)], cols=t_matrix.rows)
    decoder_rows = []
    for i in range(sel.rows):
        x = solve(t_t, sel.entries[i])
        if x is None:
            return None
        decoder_rows.append(x)
    return mat(t_matrix.field, decoder_rows, cols=t_matrix.rows)


@dataclass(frozen=True)
class _Evaluation:
    edges: dict  # label -> its symbols
    decoded: dict  # (receiver, message) -> the decoded symbols


def _evaluate(net, code, assignment):
    """Push one message assignment through the network: the symbols of
    every edge label, and each demand decoded by its stored decoder or,
    for a linear code, by one synthesized from the transfer matrices
    when the demand is decodable."""
    validate_code(net, code)
    base = _alphabet_size(code)
    linear = isinstance(code, LinearCode)
    messages = {}
    for m in net.messages:
        messages[m] = tuple(int(x) % base for x in assignment.get(m, ()))
        assert len(messages[m]) == code.rates.message_dims[m], m

    def apply(fn, vec, width):
        if linear:
            return mat_vec(fn, vec)
        key = 0
        for s in vec:
            key = key * base + s
        out = int(fn[key])  # the output's radix key, first symbol most significant
        return tuple(out // base ** (width - 1 - j) % base for j in range(width))

    edges = {}

    def inputs(node):
        blocks = [messages[m] for m in net.attached(node)] + [edges[e.label] for e in net.in_edges(node)]
        return tuple(x for block in blocks for x in block)

    functions, decoders = _functions(code)
    for node in topological_order(net):
        for e in net.out_edges(node):
            edges[e.label] = apply(functions[e.label], inputs(node), code.rates.edge_dim)
    decoded = {}
    transfer = None  # built for the first demand without a stored decoder
    for node, msg in net.demands:
        dec = decoders.get((node, msg))
        if dec is None and linear:
            if transfer is None:
                transfer, select = _transfer(net, code)
            dec = _synthesize_decoder(transfer[node], select(msg))
        if dec is not None:
            decoded[(node, msg)] = apply(dec, inputs(node), code.rates.message_dims[msg])
    return _Evaluation(edges, decoded)


def test_synthesized_decoders_recover_messages():
    net, code = _builtin("fano", "(4/5,4/5,4/5)")
    assignment = {"a": (1, 2, 0, 1), "b": (2, 2, 1, 0), "c": (0, 1, 1, 2)}
    res = _evaluate(net, code, assignment)
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


@pytest.mark.parametrize(
    "net_id, receivers", [("gbutterfly", 2), ("fano", 3), ("nonfano", 4), ("vamos", 5)]
)
def test_algebraic_verifier_eliminates_once_per_receiver(net_id, receivers, monkeypatch):
    # one kernel per receiver, however many demands and decoders it has:
    # the receivers of gbutterfly (4 demands) and vamos (8) demand several messages
    calls = []
    nullspace = codes_module.mat_nullspace
    monkeypatch.setattr(codes_module, "mat_nullspace", lambda m: calls.append(m) or nullspace(m))
    net = builtin_network(net_id)
    assert len({node for node, _ in net.demands}) == receivers
    for bc in builtin_codes(net_id):
        calls.clear()
        assert verify_solution(net, bc.code).valid
        assert len(calls) == receivers, bc.label


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
    res = _evaluate(net, code, failure.witness)
    zero = _evaluate(net, code, {m: (0,) * k for m, k in code.rates.message_dims.items()})
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
        res = _evaluate(net, code, assignment)
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
            edge = net.edge_by_id(label)
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
                res = _evaluate(net, code, assignment)
                view = []
                for kind, name in _node_blocks(net, failure.receiver):
                    if kind == "m":
                        view.append(tuple(assignment[name]))
                    else:
                        view.append(res.edges[name])
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
    keys = table.decoder_tables[key].copy()  # one symbol per output: its key
    target = 5  # some mid-table entry
    keys[target] = (keys[target] + 1) % 3
    corrupted = TableCode(
        table.network,
        table.alphabet,
        table.rates,
        table.edge_tables,
        {**table.decoder_tables, key: keys},
    )
    report = verify_solution_exhaustive(net, corrupted)
    assert not report.valid
    failure = report.first_failure()
    assert (failure.receiver, failure.message) == ("R15", "c")
    assert failure.witness is not None
    # the witness assignment really does hit the corrupted entry
    res = _evaluate(net, corrupted, failure.witness)
    assert res.decoded[("R15", "c")] != failure.witness["c"]


# ---------------------------------------------------------------------------
# differential checks of the exhaustive verifier


def _ref_radix_key(block, base):
    n_rows, width = block.shape
    if width == 0:
        return np.zeros(n_rows, dtype=np.int64)
    if base**width >= 2**62:
        raise GuardExceededError("input block too wide for exhaustive keying")
    radix = np.array([base ** (width - 1 - i) for i in range(width)], dtype=np.int64)
    return block.astype(np.int64) @ radix


def _ref_enumerate_assignments(total, base):
    count = base**total
    idx = np.arange(count, dtype=np.int64)
    out = np.empty((count, total), dtype=np.int16)
    for j in range(total):
        out[:, j] = (idx // base ** (total - 1 - j)) % base
    return out


def _ref_apply_array(code, fn, block, width):
    base = _alphabet_size(code)
    if isinstance(code, LinearCode):
        weights = np.array(fn.entries, dtype=np.int64).reshape(fn.rows, fn.cols)
        return ((block.astype(np.int64) @ weights.T) % base).astype(np.int16)
    # a table maps input keys to output keys: split each output key into its symbols
    out = np.asarray(fn, dtype=np.int64)[_ref_radix_key(block, base)]
    places = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (out[:, None] // places % base).astype(np.int16)


# The parent revision's layout helpers, kept verbatim as references for
# the offset code that replaced them.


def _symbol_width(rates: RateSpec, kind: str, name: str) -> int:
    if kind == "m":
        return rates.message_dims[name]
    return rates.edge_dim


def _message_offsets(net: Network, rates: RateSpec) -> dict[str, int]:
    offsets = {}
    pos = 0
    for m in net.messages:
        offsets[m] = pos
        pos += rates.message_dims[m]
    return offsets


def _node_blocks(net: Network, node: str) -> list[tuple[str, str]]:
    """A node's input blocks as (kind, name): attached messages (kind
    ``m``) in network message order, then in-edges (kind ``e``, named by
    label) in network edge order."""
    return [("m", m) for m in net.attached(node)] + [("e", e.label) for e in net.in_edges(node)]


def _tail_symbol_layout(net: Network, rates: RateSpec, node: str) -> list[tuple[str, int]]:
    layout = []
    for kind, name in _node_blocks(net, node):
        if kind == "m":
            layout.append((name, rates.message_dims[name]))
        else:
            layout.append((name, rates.edge_dim))
    return layout


def _reference_exhaustive(net, code, guard=DEFAULT_ENUMERATION_GUARD):
    """The row-block exhaustive verifier (one int16 row of symbols per
    assignment) that the keyed verifier replaced, kept as its oracle."""
    validate_code(net, code)
    rates = code.rates
    base = _alphabet_size(code)
    total = rates.total_message_width
    count = base**total
    if count > guard:
        raise GuardExceededError(
            f"{base}^{total} assignments exceed the enumeration guard {guard}"
        )
    offsets = _message_offsets(net, rates)
    assignments = _ref_enumerate_assignments(total, base)

    def message_block(msg):
        return assignments[:, offsets[msg] : offsets[msg] + rates.message_dims[msg]]

    functions, decoders = _functions(code)
    receiver_inputs = {}
    _propagate(
        net,
        message_block,
        lambda label, block: _ref_apply_array(code, functions[label], block, rates.edge_dim),
        lambda blocks: np.hstack(blocks) if blocks else np.zeros((count, 0), dtype=np.int16),
        receiver_inputs.__setitem__,
    )

    statuses = []
    for node, msg in net.demands:
        inputs = receiver_inputs[node]
        k = rates.message_dims[msg]
        msg_block = message_block(msg)
        fail_index = None
        reason = None

        if (node, msg) in decoders and k > 0:
            decoded = _ref_apply_array(code, decoders[(node, msg)], inputs, k)
            bad = np.nonzero((decoded != msg_block).any(axis=1))[0]
            if bad.size:
                fail_index = int(bad[0])
                reason = "decoder output differs from the message"
        elif k > 0:
            key = _ref_radix_key(inputs, base)
            mkey = _ref_radix_key(msg_block, base)
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            group_start = np.empty(count, dtype=bool)
            group_start[0] = True
            group_start[1:] = sorted_key[1:] != sorted_key[:-1]
            group_id = np.cumsum(group_start) - 1
            first_of_group = order[np.flatnonzero(group_start)]
            reference = mkey[first_of_group][group_id]
            mismatch = mkey[order] != reference
            if mismatch.any():
                fail_index = int(order[mismatch].min())
                reason = "two assignments share receiver inputs but differ in the demand"

        if fail_index is None:
            statuses.append(DemandStatus(node, msg, True))
        else:
            witness = {
                m: tuple(int(x) for x in assignments[fail_index, offsets[m] : offsets[m] + width])
                for m, width in rates.message_dims.items()
            }
            statuses.append(DemandStatus(node, msg, False, reason, witness))

    return VerificationReport(
        valid=all(s.ok for s in statuses),
        statuses=tuple(statuses),
        rate_vector=rate_vector(code),
        assignments_checked=count,
    )


def _paths(net, code):
    """Which ways the keyed verifier takes on a code: ``dense`` or
    ``sort`` grouping of a receiver without a decoder, ``wide`` for a
    linear function applied to digits instead of its table."""
    base = _alphabet_size(code)
    count = base**code.rates.total_message_width
    _, decoders = _functions(code)
    wide = lambda node: base ** node_input_width(net, code.rates, node) > count
    paths = set()
    for node, msg in net.demands:
        if (node, msg) not in decoders and code.rates.message_dims[msg] > 0:
            paths.add("sort" if wide(node) else "dense")
    linear = isinstance(code, LinearCode)
    nodes = [e.tail for e in net.edges] + [node for node, _ in decoders]
    if linear and any(wide(node) for node in nodes):
        paths.add("wide")
    return paths


def _random_linear_code(net, fld, dims, n, rng):
    rates = rate_spec(net, dims, n)
    functions = {}
    for label in net.coded_labels():
        width = node_input_width(net, rates, net.edge_by_id(label).tail)
        functions[label] = mat(
            fld, [[rng.randrange(fld.p) for _ in range(width)] for _ in range(n)], cols=width
        )
    return LinearCode(net.name, fld, rates, functions)


def test_exhaustive_matches_the_reference_on_bundled_and_catalog_codes():
    cases = [read_code_file(path) for path in sorted((DATA_DIR / "codes").glob("*.json"))]
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for bc in builtin_codes(net_id):
            if all(bc.code != code for _, code in cases):  # fano_45_odd is both
                cases.append((net, bc.code))
    assert len(cases) > 20
    for net, code in cases:
        for variant in (code, to_table_code(net, code)):
            assert verify_solution_exhaustive(net, variant) == _reference_exhaustive(net, variant)


# (network, p) -> (message dim, edge dim): the random codes the catalog
# benchmark verifies, then shapes whose edges are wider than the scan
_BENCH_SHAPES = {
    ("gbutterfly", 2): (3, 4), ("gbutterfly", 3): (2, 3), ("gbutterfly", 5): (1, 2),
    ("fano", 2): (4, 5), ("fano", 3): (3, 4), ("fano", 5): (2, 3),
    ("nonfano", 2): (4, 5), ("nonfano", 3): (3, 4), ("nonfano", 5): (2, 3),
    ("vamos", 2): (3, 4), ("vamos", 3): (2, 3), ("vamos", 5): (1, 2),
}
_WIDE_SHAPES = {("gbutterfly", 2): (1, 3), ("fano", 3): (1, 2), ("nonfano", 2): (1, 2)}


def test_exhaustive_matches_the_reference_on_benchmark_shaped_codes():
    rng = random.Random(20240601)
    paths = set()
    for shapes in (_BENCH_SHAPES, _WIDE_SHAPES):
        for (net_id, p), (k, n) in shapes.items():
            net = builtin_network(net_id)
            for _ in range(2):
                code = _random_linear_code(net, PrimeField(p), dict.fromkeys(net.messages, k), n, rng)
                paths |= _paths(net, code)
                report = verify_solution_exhaustive(net, code)
                assert report == _reference_exhaustive(net, code), (net_id, p)
                assert [s.ok for s in report.statuses] == [
                    s.ok for s in verify_solution(net, code).statuses
                ]
    assert paths == {"dense", "sort", "wide"}


def test_exhaustive_matches_the_reference_on_wrong_decoders():
    net, code = _builtin("nonfano", "(1,1,1)", GF3)
    table = to_table_code(net, code)
    key = ("R15", "c")
    keys = table.decoder_tables[key].copy()
    keys[5] = (keys[5] + 1) % 3
    corrupted_table = TableCode(
        table.network, table.alphabet, table.rates, table.edge_tables,
        {**table.decoder_tables, key: keys},
    )
    corrupted_linear = LinearCode(
        code.network, code.field, code.rates, code.edge_functions,
        {**code.decoders, ("R14", "a"): mat(GF3, [[1, 1]])},
    )
    for broken in (corrupted_table, corrupted_linear):
        report = verify_solution_exhaustive(net, broken)
        assert not report.valid
        assert report.first_failure().reason == "decoder output differs from the message"
        assert report == _reference_exhaustive(net, broken)


def test_exhaustive_never_tabulates_inputs_wider_than_the_scan():
    # 2 assignments; m joins two 20-symbol edges (2^40 input keys) and
    # feeds e3, so a table or first-occurrence array over m's keys
    # could not be allocated
    net = parse_network(
        "message a@s\nedge e1 s m\nedge e2 s m\nedge e3 m r\ndemand m a\ndemand r a\n",
        name="wide",
    )
    rng = random.Random(7)
    for _ in range(5):
        code = _random_linear_code(net, GF2, {"a": 1}, 20, rng)
        assert _paths(net, code) == {"sort", "wide"}
        assert verify_solution_exhaustive(net, code) == _reference_exhaustive(net, code)


def test_exhaustive_guard_on_input_keys_comes_before_any_array(monkeypatch):
    # 2 assignments, but the receiver joins two 31-symbol edges: 2^62 keys
    net = parse_network("message a@s\nedge e1 s r\nedge e2 s r\ndemand r a\n", name="wide")
    code = _random_linear_code(net, GF2, {"a": 1}, 31, random.Random(1))
    monkeypatch.setattr(codes_module, "np", None)  # any numpy call would fail
    with pytest.raises(GuardExceededError, match="too wide"):
        verify_solution_exhaustive(net, code)


@pytest.mark.parametrize("p, k, n", [(2, 0, 15), (2, 1, 15), (7, 1, 5), (11, 1, 4)])
def test_exhaustive_matches_the_reference_across_the_int32_key_limit(p, k, n):
    # r joins message b and two n-symbol edges, p^(k + 2n) input keys:
    # 2^30 and 7^11 are just below 2^31, 2^31 and 11^9 just above it
    net = parse_network(
        "message a@s\nmessage b@r\nedge e1 s r\nedge e2 s r\ndemand r a\n", name="keys"
    )
    rng = random.Random(p * 100 + k)
    fld = PrimeField(p)
    code = _random_linear_code(net, fld, {"a": 1, "b": k}, n, rng)
    blind = LinearCode(code.network, fld, code.rates, {
        label: mat(fld, [[0] * fn.cols] * fn.rows, cols=fn.cols)
        for label, fn in code.edge_functions.items()
    })
    transfer, select = _transfer(net, code)
    # decoders on r read its inputs digit by digit: one reproduces a, its double gives 2a
    decoder = _synthesize_decoder(transfer["r"], select("a"))
    decoders = [decoder, mat(fld, [[2 * x % p for x in decoder.entries[0]]], cols=decoder.cols)]
    cases = [code, blind] + [
        LinearCode(code.network, fld, code.rates, code.edge_functions, {("r", "a"): decoder})
        for decoder in decoders
    ]
    reports = [verify_solution_exhaustive(net, case) for case in cases]
    assert reports == [_reference_exhaustive(net, case) for case in cases]
    assert [report.valid for report in reports] == [True, False, True, False]


def test_exhaustive_matches_the_reference_across_the_int32_key_limit_in_blocks_of_p(monkeypatch):
    # one symbol per block: int64 keys and decoders over several blocks,
    # and tables built from one-symbol lookup tables
    monkeypatch.setattr(codes_module, "_EXHAUSTIVE_BLOCK", 1)
    for p, k, n in [(2, 1, 15), (7, 1, 5), (11, 1, 4)]:
        test_exhaustive_matches_the_reference_across_the_int32_key_limit(p, k, n)


def test_exhaustive_matches_the_reference_on_a_label_read_by_a_relay_and_a_receiver():
    # e1 fans out to m, a relay that is also a receiver, and to r, which
    # joins it after m has
    net = parse_network(
        "message a@s\nmessage b@s\nedge e1 s m\nedge e1 s r\nedge e2 m r\n"
        "demand m b\ndemand r a\n",
        name="relay",
    )
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(6):
            code = _random_linear_code(net, PrimeField(p), {"a": 2, "b": 1}, 2, rng)
            assert verify_solution_exhaustive(net, code) == _reference_exhaustive(net, code)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the bytes traced at its peak, above those traced
    before the call."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _traced_peak_per_assignment(net, code, guard=DEFAULT_ENUMERATION_GUARD) -> float:
    """Bytes traced at the peak of one exhaustive verification, per
    assignment."""
    report, peak = _traced_peak(verify_solution_exhaustive, net, code, guard)
    return peak / report.assignments_checked


def test_exhaustive_traced_peak_per_assignment():
    # A code that spans several blocks keeps its tables, compact, and
    # one block's arrays; a receiver grouped by a sort collects its
    # int32 keys, four bytes per assignment, until the walk is done.
    fano_45_odd = read_code_file(DATA_DIR / "codes" / "fano_45_odd.json")
    net = builtin_network("fano")
    rng = random.Random(3)
    dense = _random_linear_code(net, GF2, dict.fromkeys(net.messages, 6), 7, rng)  # 2^18
    wide = _random_linear_code(net, GF2, dict.fromkeys(net.messages, 5), 9, rng)  # 2^15
    assert _paths(*fano_45_odd) == _paths(net, dense) == {"dense"}
    assert _paths(net, wide) == {"dense", "sort", "wide"}
    for case, bound in ((fano_45_odd, 8), ((net, dense), 12), ((net, wide), 64)):
        assert _traced_peak_per_assignment(*case) <= bound
    # 2^21 assignments, twice the default guard, in a few MiB: memory
    # no longer grows with the assignment count
    net = builtin_network("gbutterfly")
    big = _random_linear_code(net, GF2, {"a": 6, "b": 5, "c": 5, "d": 5}, 6, rng)
    assert _paths(net, big) == {"dense"}
    assert _traced_peak_per_assignment(net, big, 2**21) * 2**21 < 4 * 2**20


def _assignment_index(net, base, witness) -> int:
    """The radix-``base`` number of a witness assignment's symbols."""
    index = 0
    for msg in net.messages:
        for symbol in witness[msg]:
            index = index * base + symbol
    return index


def _first_failures_by_block(net, code, block) -> dict:
    """(receiver, message) -> the block of its witness, for each failing
    demand of the reference verifier."""
    report = _reference_exhaustive(net, code)
    base = _alphabet_size(code)
    return {
        (s.receiver, s.message): _assignment_index(net, base, s.witness) // block
        for s in report.statuses
        if not s.ok
    }


_TWO_MESSAGES = "message a@s\nmessage b@s\n"


@pytest.mark.parametrize(
    "text, edge_dim, formulas, decoders, blocks",
    [
        # e forgets a1: a = 10 repeats a = 00's inputs, first in block 2
        (_TWO_MESSAGES + "edge e s r\ndemand r a\n", 2, {"e": ["a2", "0"]}, None,
         {("r", "a"): 2}),
        # the same conflict on the sort path: r has 2^6 input keys for 2^4 assignments
        (_TWO_MESSAGES + "edge e1 s r\nedge e2 s r\ndemand r a\n", 3,
         {"e1": ["a2", "0", "0"], "e2": ["0", "0", "0"]}, None, {("r", "a"): 2}),
        # a linear decoder is right on block 0 (a = 00); this one first fails at a = 10
        (_TWO_MESSAGES + "edge e s r\ndemand r a\n", 2, {"e": ["a1", "a2"]},
         {("r", "a"): ["e1", "e1+e2"]}, {("r", "a"): 2}),
        # r demands a and b; e forgets b1 (fails in block 2) and a1 (block 8)
        (_TWO_MESSAGES + "message c@s\nedge e s r\ndemand r a\ndemand r b\n", 2,
         {"e": ["a2", "b2"]}, None, {("r", "a"): 8, ("r", "b"): 2}),
    ],
    ids=["dense", "sort", "decoder", "two-demands"],
)
def test_exhaustive_matches_the_reference_when_a_demand_first_fails_in_a_later_block(
    monkeypatch, text, edge_dim, formulas, decoders, blocks
):
    monkeypatch.setattr(codes_module, "_EXHAUSTIVE_BLOCK", 4)  # 2^2 assignments
    net = parse_network(text, name="blocks")
    code = build_code(net, GF2, dict.fromkeys(net.messages, 2), edge_dim, formulas, decoders)
    assert _first_failures_by_block(net, code, 4) == blocks
    for variant in (code, to_table_code(net, code)):
        assert verify_solution_exhaustive(net, variant) == _reference_exhaustive(net, variant)


def test_exhaustive_matches_the_reference_on_benchmark_shaped_codes_over_small_blocks(monkeypatch):
    # every code spans many blocks: 2^6 assignments, or 3^3 or 5^2
    monkeypatch.setattr(codes_module, "_EXHAUSTIVE_BLOCK", 2**6)
    rng = random.Random(20240602)
    paths = set()
    for shapes in (_BENCH_SHAPES, _WIDE_SHAPES):
        for (net_id, p), (k, n) in shapes.items():
            net = builtin_network(net_id)
            code = _random_linear_code(net, PrimeField(p), dict.fromkeys(net.messages, k), n, rng)
            paths |= _paths(net, code)
            report = verify_solution_exhaustive(net, code)
            assert report == _reference_exhaustive(net, code), (net_id, p)
    assert paths == {"dense", "sort", "wide"}


@st.composite
def _fuzz_networks(draw):
    """A builtin network (these have fan-outs) or a small random DAG."""
    if draw(st.booleans()):
        return builtin_network(draw(st.sampled_from(NETWORK_IDS)))
    size = draw(st.integers(2, 5))
    messages = "abc"[: draw(st.integers(1, 3))]
    lines = [f"message {m}@v{draw(st.integers(0, size - 2))}" for m in messages]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for e, (i, j) in enumerate(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5))):
        lines.append(f"edge e{e} v{i} v{j}")
    for _ in range(draw(st.integers(1, 3))):
        demand = f"demand v{draw(st.integers(1, size - 1))} {draw(st.sampled_from(messages))}"
        if demand not in lines:  # a network file names each demand once
            lines.append(demand)
    return parse_network("\n".join(lines) + "\n", name="fuzz")


def _random_decoders(net, code, rng):
    """Decoders for some demands: synthesized when the demand is
    decodable, sometimes with one entry changed, else random."""
    transfer, select = _transfer(net, code)
    decoders = {}
    for node, msg in net.demands:
        k = code.rates.message_dims[msg]
        if rng.random() < 0.5:
            continue
        dec = _synthesize_decoder(transfer[node], select(msg))
        width = node_input_width(net, code.rates, node)
        rows = [list(r) for r in dec.entries] if dec is not None else [
            [rng.randrange(code.field.p) for _ in range(width)] for _ in range(k)
        ]
        if rows and width and rng.random() < 0.3:
            rows[rng.randrange(k)][rng.randrange(width)] += 1
        decoders[(node, msg)] = mat(code.field, rows, cols=width)
    return decoders


def _redrawn(fn, outputs, rng, share):
    """A table with one output key, and each other one with probability
    ``share``, drawn again at random from ``range(outputs)``."""
    keys = fn.copy()
    for i in {rng.randrange(len(keys))} | {i for i in range(len(keys)) if rng.random() < share}:
        keys[i] = rng.randrange(outputs)
    return keys


@given(net=_fuzz_networks(), data=st.data())
def test_fuzz_exhaustive_against_algebraic_and_reference(net, data):
    table = data.draw(st.booleans(), label="table")
    p = data.draw(st.sampled_from((2, 3) if table else (2, 3, 5)), label="p")
    dims = {m: data.draw(st.integers(0, 2), label=f"k_{m}") for m in net.messages}
    n = data.draw(st.integers(1, 2), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # keep the scan, and for table codes every table, small
    limit = 4096
    while True:
        rates = rate_spec(net, dims, n)
        widths = [node_input_width(net, rates, node) for node in net.nodes]
        if p ** rates.total_message_width <= limit and (not table or p ** max(widths) <= limit):
            break
        if n > 1:
            n -= 1
        else:
            big = max(dims, key=dims.get)
            dims[big] -= 1
    code = _random_linear_code(net, PrimeField(p), dims, n, rng)
    if data.draw(st.booleans(), label="decoders"):
        code = LinearCode(code.network, code.field, code.rates, code.edge_functions,
                          _random_decoders(net, code, rng))
    if table:
        code = to_table_code(net, code)
        share = rng.choice((None, 0.0, 1.0))  # linear, one output changed, or random
        if share is not None:
            code = TableCode(
                code.network, p, code.rates,
                {label: _redrawn(fn, p**n, rng, share) for label, fn in code.edge_tables.items()},
                {
                    key: _redrawn(fn, p ** code.rates.message_dims[key[1]], rng, share)
                    for key, fn in code.decoder_tables.items()
                },
            )
    report = verify_solution_exhaustive(net, code)
    assert report == _reference_exhaustive(net, code)
    if not table:
        assert [s.ok for s in report.statuses] == [
            s.ok for s in verify_solution(net, code).statuses
        ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_verdict_matches_the_rank_criterion(p):
    # verify_solution decides a demand from the receiver's kernel; the
    # reference decides it by rank(T) == rank([T; selector])
    rng = random.Random(4100 + p)
    fld = PrimeField(p)
    verdicts = set()
    for net_id in NETWORK_IDS:
        net = builtin_network(net_id)
        for trial in range(16):
            dims = {m: rng.randrange(3) for m in net.messages}
            code = _random_linear_code(net, fld, dims, rng.randrange(1, 3), rng)
            if trial % 2:
                code = LinearCode(code.network, fld, code.rates, code.edge_functions,
                                  _random_decoders(net, code, rng))
            transfer, select = _transfer(net, code)
            for status in verify_solution(net, code).statuses:
                t_matrix = transfer[status.receiver]
                decodable = rowspace_contains(t_matrix, select(status.message))
                verdicts.add((decodable, (status.receiver, status.message) in code.decoders))
                if decodable:
                    assert status.ok or status.reason == "supplied decoder does not reproduce the demand"
                    continue
                assert not status.ok
                assert status.reason == "demand is not a function of the receiver inputs"
                # the witness is a kernel vector that is nonzero on the message
                vector = [x for m in net.messages for x in status.witness[m]]
                assert not any(mat_vec(t_matrix, vector))
                assert any(status.witness[status.message])
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


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


def test_routing_refuses_a_table_code():
    net, code = _builtin("gbutterfly", "(1/2,1/2,1/2,1/2)")
    with pytest.raises(TypeError, match="linear codes"):
        is_routing(to_table_code(net, code))


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
# column layout: concatenation, zero-fixing and listed input orders against
# the parent revision's column arithmetic, kept verbatim (renamed) below


def _ref_concatenate_codes(
    codes: Sequence[LinearCode], net: Network | None = None
) -> LinearCode:
    """Time sharing: block-diagonal combination of codes on one network.

    Message and edge dimensions add; every block computes exactly what
    its component code computed, so validity is preserved.
    """
    if not codes:
        raise ValueError("nothing to concatenate")
    first = codes[0]
    net = net or builtin_network(first.network)
    for c in codes:
        if c.network != first.network:
            raise ValueError("codes are for different networks")
        if c.field != first.field:
            raise ValueError("codes are over different fields")
        validate_code(net, c)

    fld = first.field
    total_dims = {
        m: sum(c.rates.message_dims[m] for c in codes) for m in net.messages
    }
    total_n = sum(c.rates.edge_dim for c in codes)
    combined_rates = rate_spec(net, total_dims, total_n)

    def combine(symbols, matrices, out_rows_per_code) -> PrimeFieldMatrix:
        total_cols = sum(_symbol_width(combined_rates, k, n) for k, n in symbols)
        total_rows = sum(out_rows_per_code)
        grid = [[0] * total_cols for _ in range(total_rows)]
        row_base = 0
        for j, code in enumerate(codes):
            m = matrices[j]
            col_base = 0
            local = 0
            for kind, name in symbols:
                pre = sum(_symbol_width(codes[jj].rates, kind, name) for jj in range(j))
                w = _symbol_width(code.rates, kind, name)
                for r in range(out_rows_per_code[j]):
                    for cc in range(w):
                        grid[row_base + r][col_base + pre + cc] = m.entries[r][local + cc]
                local += w
                col_base += _symbol_width(combined_rates, kind, name)
            row_base += out_rows_per_code[j]
        return mat(fld, grid, cols=total_cols)

    edge_functions = {}
    for label in net.coded_labels():
        edge = net.edge_by_id(label)
        symbols = _node_blocks(net, edge.tail)
        edge_functions[label] = combine(
            symbols,
            [c.edge_functions[label] for c in codes],
            [c.rates.edge_dim for c in codes],
        )

    decoders = {}
    shared_keys = set(codes[0].decoders)
    for c in codes[1:]:
        shared_keys &= set(c.decoders)
    for node, msg in shared_keys:
        symbols = _node_blocks(net, node)
        decoders[(node, msg)] = combine(
            symbols,
            [c.decoders[(node, msg)] for c in codes],
            [c.rates.message_dims[msg] for c in codes],
        )

    return LinearCode(first.network, fld, combined_rates, edge_functions, decoders)

def _ref_zero_fix(net: Network, code: LinearCode, zero_messages: Iterable[str]) -> LinearCode:
    """Fix some messages to rate zero, keeping everything else.

    Dropping a message deletes its columns from every edge and decoder
    matrix (and the rows of its own decoders); a valid code stays valid
    because the deleted inputs were free to be zero all along.
    """
    zero = set(zero_messages)
    unknown = zero - set(net.messages)
    if unknown:
        raise ValueError(f"unknown messages {sorted(unknown)}")
    rates = code.rates
    new_rates = rate_spec(
        net,
        {m: (0 if m in zero else k) for m, k in rates.message_dims.items()},
        rates.edge_dim,
    )

    def surviving_columns(node: str) -> list[int]:
        cols = []
        pos = 0
        for kind, name in _node_blocks(net, node):
            width = _symbol_width(rates, kind, name)
            if not (kind == "m" and name in zero):
                cols.extend(range(pos, pos + width))
            pos += width
        return cols

    edge_functions = {}
    for label, m in code.edge_functions.items():
        edge = net.edge_by_id(label)
        cols = surviving_columns(edge.tail)
        rows = [[r[c] for c in cols] for r in m.entries]
        edge_functions[label] = mat(code.field, rows, cols=len(cols))
    decoders = {}
    for (node, msg), m in code.decoders.items():
        cols = surviving_columns(node)
        source_rows = () if msg in zero else m.entries
        rows = [[r[c] for c in cols] for r in source_rows]
        decoders[(node, msg)] = mat(code.field, rows, cols=len(cols))
    return LinearCode(code.network, code.field, new_rates, edge_functions, decoders)

def _ref_permute_columns(
    matrix_rows: list[list[int]],
    listed: list[tuple[str, int]],
    structural: list[tuple[str, int]],
) -> list[list[int]]:
    if [name for name, _ in listed] == [name for name, _ in structural]:
        return matrix_rows
    if sorted(listed) != sorted(structural):
        raise ValueError(
            f"listed inputs {[n for n, _ in listed]} do not match the node's "
            f"available symbols {[n for n, _ in structural]}"
        )
    listed_offsets = {}
    pos = 0
    for name, width in listed:
        listed_offsets[name] = pos
        pos += width
    out = []
    for row in matrix_rows:
        new_row = []
        for name, width in structural:
            start = listed_offsets[name]
            new_row.extend(row[start : start + width])
        out.append(new_row)
    return out


def _codes_over(net_id, fld):
    net = builtin_network(net_id)
    return [instantiate_builtin(net, spec, fld).code for spec in builtin_code_specs(net_id)]


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_concatenation_matches_the_reference_on_every_bundled_pair(net_id):
    net = builtin_network(net_id)
    with_decoders = 0
    for fld in (GF2, GF3):
        codes = _codes_over(net_id, fld)
        for first in codes:
            for second in codes:
                combined = concatenate_codes([first, second], net)
                assert combined == _ref_concatenate_codes([first, second], net)
                with_decoders += bool(combined.decoders)
        for run in (codes, codes[::-1]):
            assert concatenate_codes(run, net) == _ref_concatenate_codes(run, net)
    # gbutterfly (0,1,1,0) and nonfano (1,1,1) carry decoders
    assert (with_decoders > 0) == (net_id in ("gbutterfly", "nonfano"))


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_zero_fix_matches_the_reference_on_every_message_subset(net_id):
    net = builtin_network(net_id)
    for bc in builtin_codes(net_id):
        for size in range(len(net.messages) + 1):
            for zero in combinations(net.messages, size):
                assert zero_fix(net, bc.code, zero) == _ref_zero_fix(net, bc.code, zero)


@pytest.mark.parametrize("net_id, label", [("fano", "(4/5,4/5,4/5)"), ("nonfano", "(1,1,1/2)")])
def test_code_file_loads_multi_width_inputs_listed_in_every_order(tmp_path, net_id, label):
    net, code = _builtin(net_id, label)
    path = tmp_path / "c.json"
    write_code_file(path, net, code)
    doc = json.loads(path.read_text())
    orders = 0
    for edge_label, entry in doc["edges"].items():
        tail = net.edge_by_id(edge_label).tail
        layout = _tail_symbol_layout(net, code.rates, tail)
        assert entry["inputs"] == [name for name, _ in layout]
        widths = dict(layout)
        starts = dict(zip(widths, accumulate([0] + list(widths.values())[:-1])))
        for order in permutations(widths):
            listed = [(name, widths[name]) for name in order]
            rows = [
                [x for name in order for x in row[starts[name] : starts[name] + widths[name]]]
                for row in entry["matrix"]
            ]
            assert _ref_permute_columns(rows, listed, layout) == entry["matrix"]
            permuted = json.loads(json.dumps(doc))
            permuted["edges"][edge_label] = {"inputs": list(order), "matrix": rows}
            path.write_text(json.dumps(permuted))
            assert read_code_file(path)[1] == code, (edge_label, order)
            orders += 1
    # fano: four two-block edges; nonfano: w, x, y with two blocks and z = (a, b, c)
    assert orders == {"fano": 8, "nonfano": 12}[net_id]


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
    # one-symbol outputs over GF(3), then multi-symbol lines over GF(2)
    for net, code in (
        _builtin("nonfano", "(1,1,1)", GF3),
        _builtin("gbutterfly", "(2/3,2/3,2/3,2/3)", GF2),
    ):
        table = to_table_code(net, code)
        path = tmp_path / "table.json"
        write_code_file(path, net, table)
        _, loaded = read_code_file(path)
        assert (loaded.network, loaded.alphabet, loaded.rates) == (
            table.network, table.alphabet, table.rates
        )
        for stored, written in ((loaded.edge_tables, table.edge_tables),
                                (loaded.decoder_tables, table.decoder_tables)):
            assert stored.keys() == written.keys()
            for key, keys in stored.items():
                assert not keys.flags.writeable and np.array_equal(keys, written[key])
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


# What the columns of a code file depend on, pinned for the four bundled
# networks: the label order, each label's tail and, at unit rates, the
# input blocks of every tail and receiver.  A change to any of them
# changes the meaning of existing code files.
_CODE_FILE_LAYOUTS = {
    "gbutterfly": (
        "u v y x z",
        {"u": "S1", "v": "S2", "y": "M", "x": "S1", "z": "S2"},
        {"S1": "a b", "S2": "c d", "M": "u v", "R5": "y x", "R6": "y z"},
    ),
    "fano": (
        "w y x z",
        {"w": "NW", "y": "NY", "x": "NX", "z": "NZ"},
        {
            "NW": "a b", "NY": "b c", "NX": "w y", "NZ": "c w",
            "R12": "a x", "R13": "x z", "R14": "z y",
        },
    ),
    "nonfano": (
        "w x y z",
        {"w": "NW", "x": "NX", "y": "NY", "z": "NZ"},
        {
            "NW": "a b", "NX": "a c", "NY": "b c", "NZ": "a b c",
            "R12": "w z", "R13": "x z", "R14": "y z", "R15": "w x y",
        },
    ),
    "vamos": (
        "w x y z",
        {"w": "NW", "x": "NX", "y": "NY", "z": "NZ"},
        {
            "NW": "a b c d", "NX": "a b c d", "NY": "a b c d", "NZ": "a b c d",
            "R1": "b c d z", "R2": "a b c y", "R3": "a d w z", "R4": "c d x z", "R5": "a b w y",
        },
    ),
}


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_code_file_layouts_of_the_bundled_networks(net_id):
    net = builtin_network(net_id)
    labels, tails, layouts = _CODE_FILE_LAYOUTS[net_id]
    assert net.coded_labels() == tuple(labels.split())
    assert {label: _tail(net, label) for label in net.coded_labels()} == tails
    rates = rate_spec(net, {m: 1 for m in net.messages}, 1)
    nodes = dict.fromkeys(list(tails.values()) + [node for node, _ in net.demands])
    assert {node: " ".join(name for name, _ in _input_layout(net, rates, node)) for node in nodes} == layouts


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_bundled_code_verifies_alike_against_its_network_file(tmp_path, net_id):
    net = builtin_network(net_id)
    (tmp_path / f"{net_id}.net").write_text(network_to_text(net))
    for i, bc in enumerate(builtin_codes(net_id)):
        doc = {**code_to_json(net, bc.code), "network_file": f"{net_id}.net"}
        path = tmp_path / f"code{i}.json"
        path.write_text(json.dumps(doc))
        from_file, code = read_code_file(path)
        assert from_file == net and code == bc.code
        assert verify_solution(from_file, code) == verify_solution(net, bc.code)
        if _alphabet_size(code) ** code.rates.total_message_width <= 3**8:
            assert verify_solution_exhaustive(from_file, code) == verify_solution_exhaustive(net, bc.code)


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


def test_code_file_is_written_only_for_a_bundled_network(tmp_path):
    # a code read against a network-file copy of a bundled network is
    # written for, and reads back as, the bundled network
    fano = builtin_network("fano")
    (tmp_path / "fano.net").write_text(network_to_text(fano))
    _, code = _builtin("fano", "(1,1,1)")
    (tmp_path / "copy.json").write_text(
        json.dumps({**code_to_json(fano, code), "network_file": "fano.net"})
    )
    write_code_file(tmp_path / "out.json", *read_code_file(tmp_path / "copy.json"))
    assert read_code_file(tmp_path / "out.json") == (fano, code)
    # a file naming any other network would load a bundled one, or none
    relay = parse_network("message a@src\nedge e1 src dst\ndemand dst a\n", name="relay")
    impostor = parse_network(network_to_text(fano).replace("demand R14 a\n", ""), name="fano")
    for net in (relay, impostor):
        code = _random_linear_code(net, GF2, dict.fromkeys(net.messages, 1), 1, random.Random(0))
        with pytest.raises(ValueError, match=f"^network '{net.name}' is not a bundled network"):
            write_code_file(tmp_path / "refused.json", net, code)
    assert not (tmp_path / "refused.json").exists()


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
        lambda d: d["edges"]["w"].update(inputs=["b", "a"], matrix=[[1]]),  # short, permuted
        lambda d: d["edges"]["w"].update(inputs=["b", "a"], matrix=[[1, 0, 1, 1]]),  # long, permuted
        # R12 demands c from (a, x); a valid decoder is [[1, 1]]
        lambda d: d.update(decoders={"R12/a": {"inputs": ["a", "x"], "matrix": [[1, 1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": [[1, 1], [1, 1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": [[1]]}}),
        lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "matrix": []}}),
        # wrongly typed JSON fields
        lambda d: d.update(edges=[]),
        lambda d: d.update(edge_dim=None),
        lambda d: d["edges"]["w"].update(matrix="11"),
        lambda d: d["edges"].update(q=d["edges"]["w"]),  # no edge is labelled q
        lambda d: d["edges"]["w"].pop("matrix"),
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


@pytest.mark.parametrize("inputs", [["a", "b"], ["b", "a"]])
def test_code_file_refuses_a_long_row_in_either_input_order(tmp_path, inputs):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    path = tmp_path / "c.json"
    write_code_file(path, net, code)
    doc = json.loads(path.read_text())
    doc["edges"]["w"].update(inputs=inputs, matrix=[[1, 0, 1, 1]])
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="declared column count disagrees with data"):
        read_code_file(path)


@pytest.mark.parametrize(
    "mutate, error",
    [
        # w = a + b over GF(2) tabulates as ["0", "1", "1", "0"]
        (lambda d: d["edges"]["w"].update(table=["0", "z", "3", "0"]),
         "edge 'w' table has a symbol outside the alphabet"),
        (lambda d: d["edges"]["w"].update(table=["0", "1", "1", "2"]),
         "edge 'w' table has a symbol outside the alphabet"),
        (lambda d: d["edges"]["w"].update(table=["0", "1", "1"]),
         "edge 'w' table has wrong domain size"),
        (lambda d: d["edges"]["w"].update(table=["00", "1", "1", "0"]),
         "edge 'w' table has wrong output width"),
        (lambda d: d.update(decoders={"R12/a": {"inputs": ["a", "x"], "table": ["0", "1", "1", "0"]}}),
         "decoder R12/a is not a demand of the network"),
        (lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["0", "1", "1"]}}),
         "decoder R12/c table has wrong domain size"),
        (lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["00", "11", "11", "00"]}}),
         "decoder R12/c table has wrong output width"),
        (lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": ["0", "1", "1", "2"]}}),
         "decoder R12/c table has a symbol outside the alphabet"),
        (lambda d: d["edges"]["w"].update(inputs=["b", "a"]),  # out of layout order
         "table inputs ['b', 'a'] must be listed in the node's input order ['a', 'b']"),
        # the first bad line after many repeats of good ones is named
        (lambda d: d["edges"]["w"].update(table=["0", "1"] * 1000 + ["!", "?"]),
         "edge 'w' table line '!' is not digits and lowercase letters"),
        (lambda d: d["edges"]["w"].update(table=[]), "edge 'w' table has wrong domain size"),
        (lambda d: d.update(decoders={"R12/c": {"inputs": ["a", "x"], "table": []}}),
         "decoder R12/c table has wrong domain size"),
    ],
    ids=[
        "symbol-z", "symbol-2", "short", "wide-line", "not-a-demand", "decoder-short",
        "decoder-wide", "decoder-symbol-2", "inputs-order", "bad-line-after-repeats",
        "empty", "decoder-empty",
    ],
)
def test_table_code_file_rejects_malformed_tables(tmp_path, mutate, error):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    path = tmp_path / "t.json"
    write_code_file(path, net, to_table_code(net, code))
    doc = json.loads(path.read_text())
    assert doc["edges"]["w"]["table"] == ["0", "1", "1", "0"]
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as raised:
        read_code_file(path)
    assert str(raised.value) == error


@pytest.mark.parametrize("line", [1, None, ["1"], {"table": ["1"]}])
def test_table_code_file_names_a_table_line_that_is_not_a_string(tmp_path, line):
    # after many copies of the good lines, the first entry that is not a
    # string is named, even when it holds a table of its own
    net, code = _builtin("fano", "(1,1,1)", GF2)
    doc = code_to_json(net, to_table_code(net, code))
    doc["edges"]["w"]["table"] = doc["edges"]["w"]["table"] * 1000 + ["0", "1", line, 2.5]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    kind = {int: "an integer", type(None): "null", list: "a list", dict: "an object"}[type(line)]
    with pytest.raises(ValueError) as raised:
        read_code_file(path)
    assert str(raised.value) == f"an entry of edge 'w' table must be a string, not {kind}"


@pytest.mark.parametrize("table", [["0", "1", "1", "0"], ["!"], [1], "0110"])
def test_linear_code_file_ignores_a_table_key(tmp_path, table):
    net, code = _builtin("fano", "(1,1,1)", GF2)
    doc = code_to_json(net, code)
    doc["edges"]["w"]["table"] = table
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert read_code_file(path) == (net, code)


def test_table_code_file_loads_in_its_text_plus_one_table(tmp_path):
    # four equal tables of 2^12 lines, at most 16 of them distinct: each
    # table is cut to its distinct lines as its JSON object closes, so a
    # load never holds two tables' lines at once
    net = builtin_network("vamos")
    code = _random_linear_code(net, GF2, dict.fromkeys(net.messages, 3), 4, random.Random(5))
    table_code = to_table_code(net, code)
    path = tmp_path / "t.json"
    write_code_file(path, net, table_code)
    text = path.read_text()
    tables = [entry["table"] for entry in json.loads(text)["edges"].values()]
    assert [len(table) for table in tables] == [2**12] * 4
    one_table = json.dumps(tables[0])
    del tables
    _, table_peak = _traced_peak(json.loads, one_table)
    (_, loaded), load_peak = _traced_peak(read_code_file, path)
    for label, keys in table_code.edge_tables.items():
        assert np.array_equal(loaded.edge_tables[label], keys)
    assert load_peak < len(text) + 2 * table_peak


def test_zero_rate_decoder_tabulates_to_zero_keys_and_round_trips(tmp_path):
    # with c at rate zero, the decoders of c have no rows: every input
    # has the empty output, key 0, written as the line ""
    net, code = _builtin("nonfano", "(1,1,1)", GF3)
    fixed = zero_fix(net, code, ["c"])
    table = to_table_code(net, fixed)
    for key in (("R12", "c"), ("R15", "c")):
        assert fixed.decoders[key].rows == 0
        keys = table.decoder_tables[key]
        assert len(keys) == 3 ** fixed.decoders[key].cols and not keys.any()
    path = tmp_path / "zero.json"
    write_code_file(path, net, table)
    assert set(json.loads(path.read_text())["decoders"]["R12/c"]["table"]) == {""}
    _, loaded = read_code_file(path)
    assert not loaded.decoder_tables[("R12", "c")].any()
    assert verify_solution_exhaustive(net, loaded) == _reference_exhaustive(net, loaded)
    assert verify_solution_exhaustive(net, loaded).valid


def test_benchmark_table_fixture_bytes(tmp_path):
    # perfbench's verify-table job reads this table copy of fano_45_odd
    # from a cache, and its goldens key the job by the file's digest: a
    # change in the written bytes must show here, not only in a fresh checkout
    net, code = read_code_file(DATA_DIR / "codes" / "fano_45_odd.json")
    path = tmp_path / "fano_45_odd_table.json"
    write_code_file(path, net, to_table_code(net, code))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4d5fd6c92a38b983411995170a9ca544dc96c1a97958be5a4657d93c5deb461e"
    )


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


def _gf3_edge(code):
    """The code with its first edge matrix moved to GF(3)."""
    label, fn = next(iter(code.edge_functions.items()))
    return LinearCode(code.network, code.field, code.rates, {
        **code.edge_functions, label: mat(GF3, fn.entries, cols=fn.cols)
    })


def _key_out_of_range(net, code):
    """The tabulated code with one edge table entry of 2^n, one past its keys."""
    table = to_table_code(net, code)
    label, fn = next(iter(table.edge_tables.items()))
    bad = fn.copy()
    bad[0] = table.alphabet**table.rates.edge_dim
    return TableCode(table.network, table.alphabet, table.rates, {**table.edge_tables, label: bad})


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda net, code: TableCode(code.network, 1, code.rates, {}),
            ValueError, "alphabet size must be at least 2", id="alphabet-1",
        ),
        pytest.param(
            lambda net, code: validate_code(builtin_network("vamos"), code),
            ValueError, "code is for network 'fano', not 'vamos'", id="other-network",
        ),
        pytest.param(
            lambda net, code: validate_code(net, LinearCode(
                code.network, code.field, RateSpec({"a": 1}, 1), code.edge_functions
            )),
            ValueError, "rate spec does not cover the network messages", id="rates-short",
        ),
        pytest.param(
            lambda net, code: validate_code(net, LinearCode(
                code.network, code.field, code.rates, code.edge_functions,
                {("R12", "a"): mat(GF2, [[0] * 3], cols=3)},
            )),
            ValueError, "decoder R12/a is not a demand of the network", id="decoder-not-demand",
        ),
        pytest.param(
            lambda net, code: validate_code(net, _gf3_edge(code)),
            ValueError, "edge 'w' matrix is over the wrong field", id="wrong-field",
        ),
        pytest.param(
            lambda net, code: validate_code(net, _key_out_of_range(net, code)),
            ValueError, "edge 'w' table has an output key out of range", id="key-out-of-range",
        ),
        pytest.param(
            lambda net, code: verify_solution(net, to_table_code(net, code)),
            TypeError, "verify_solution handles linear codes", id="verify-table-code",
        ),
        pytest.param(
            lambda net, code: concatenate_codes([], net),
            ValueError, "nothing to concatenate", id="concatenate-none",
        ),
        pytest.param(
            lambda net, code: zero_fix(net, code, ["a", "q"]),
            ValueError, r"unknown messages \['q'\]", id="zero-fix-unknown",
        ),
    ],
)
def test_codes_built_in_the_library_are_refused_with_a_message(call, error, message):
    # these checks are reached only through the library: the code-file
    # loader refuses a bad code first, with its own messages
    net, code = _builtin("fano", "(1,1,1)", GF2)
    with pytest.raises(error, match=message):
        call(net, code)


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


@pytest.mark.parametrize("char,p", [("even", 2), ("odd", 3)])
def test_code_file_names_its_field_by_characteristic(tmp_path, char, p):
    doc = json.loads((DATA_DIR / "codes" / "fano_45_odd.json").read_text())
    doc["field"] = {"characteristic": char}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    _, code = read_code_file(path)
    assert code.field == PrimeField(p)


def test_formulas_name_a_width_one_symbol_bare():
    layout = [("a", 1), ("w", 2)]
    assert formulas_to_matrix(GF3, ["a+2w2", "-a"], layout) == mat(GF3, [[1, 0, 2], [2, 0, 0]])
    with pytest.raises(ValueError, match="symbol 'w' has width 2; use an index"):
        formulas_to_matrix(GF3, ["a+w"], layout)
