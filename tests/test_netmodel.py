import random

import pytest

from ncregions.netmodel import (
    NETWORK_IDS,
    Edge,
    Network,
    NetworkCycleError,
    builtin_network,
    parse_network,
    topological_order,
    validate_network,
)


def network_to_text(net):
    """The network in parse_network's format: message lines grouped by
    message in network message order, then one line per edge and per
    demand, so parsing the text gives the same messages, edges and
    demands in the same orders."""
    lines = [
        f"message {msg}@{node}"
        for msg in net.messages
        for node in net.nodes
        if msg in net.source_attachments.get(node, ())
    ]
    lines += [f"edge {e.label} {e.tail} {e.head}" for e in net.edges]
    lines += [f"demand {node} {msg}" for node, msg in net.demands]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_builtins_satisfy_invariants(net_id):
    assert validate_network(builtin_network(net_id)) == []


def test_builtin_shapes():
    gb = builtin_network("gbutterfly")
    assert gb.messages == ("a", "b", "c", "d")
    assert len({node for node, _ in gb.demands}) == 2
    assert gb.attached("S1") == ("a", "b")
    assert gb.demands == (("R5", "a"), ("R5", "c"), ("R6", "b"), ("R6", "d"))

    fano = builtin_network("fano")
    assert fano.messages == ("a", "b", "c")
    assert fano.demands == (("R12", "c"), ("R13", "b"), ("R14", "a"))
    assert fano.attached("R12") == ("a",)

    vamos = builtin_network("vamos")
    assert len({node for node, _ in vamos.demands}) == 5
    assert vamos.attached("NW") == ("a", "b", "c", "d")
    assert ("R3", "b") in vamos.demands and ("R3", "c") in vamos.demands


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin_network("petersen")


def test_gbutterfly_topological_order():
    gb = builtin_network("gbutterfly")
    order = topological_order(gb)
    pos = {n: i for i, n in enumerate(order)}
    assert pos["S1"] < pos["M"] and pos["S2"] < pos["M"]
    assert pos["M"] < pos["R5"] and pos["M"] < pos["R6"]


def test_single_node_topological_order():
    net = Network("one", (), ("only",), (), {}, ())
    assert topological_order(net) == ["only"]


def test_cycle_detection():
    net = Network(
        "loop",
        ("a",),
        ("p", "q"),
        (Edge("p", "q", "e1"), Edge("q", "p", "e2")),
        {"p": frozenset({"a"})},
        (),
    )
    with pytest.raises(NetworkCycleError):
        topological_order(net)
    kinds = {v.kind for v in validate_network(net)}
    assert "acyclicity" in kinds


def test_reachability_violation():
    net = Network(
        "stray",
        ("a",),
        ("s", "t", "u"),
        (Edge("t", "u", "e"),),
        {"s": frozenset({"a"})},
        (),
    )
    kinds = [v.kind for v in validate_network(net)]
    assert kinds == ["reachability"]


def test_demand_generation_violation():
    net = Network(
        "nogen",
        ("a", "b"),
        ("s", "t"),
        (Edge("s", "t", "e"),),
        {"s": frozenset({"a"})},
        (("t", "b"),),
    )
    kinds = [v.kind for v in validate_network(net)]
    assert kinds == ["demand-generation"]


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_topological_order_is_permutation_respecting_edges(net_id):
    net = builtin_network(net_id)
    order = topological_order(net)
    assert sorted(order) == sorted(net.nodes)
    pos = {n: i for i, n in enumerate(order)}
    for e in net.edges:
        assert pos[e.tail] < pos[e.head]


def test_topological_order_on_random_dags():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randrange(2, 10)
        names = [f"n{i}" for i in range(n)]
        shuffled = names[:]
        rng.shuffle(shuffled)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    eid = f"e{i}_{j}"
                    edges.append(Edge(shuffled[i], shuffled[j], eid))
        net = Network("rand", ("a",), tuple(names), tuple(edges), {shuffled[0]: frozenset({"a"})}, ())
        order = topological_order(net)
        pos = {x: i for i, x in enumerate(order)}
        assert sorted(order) == sorted(names)
        for e in edges:
            assert pos[e.tail] < pos[e.head]


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_demanded_messages_reach_their_receivers(net_id):
    # sanity of the reconstructions: each demanded message is attached at
    # the receiver or some path from a node holding it reaches the receiver
    net = builtin_network(net_id)
    for node, msg in net.demands:
        if msg in net.source_attachments.get(node, frozenset()):
            continue
        holders = {n for n, msgs in net.source_attachments.items() if msg in msgs}
        frontier = set(holders)
        seen = set(holders)
        while frontier:
            nxt = set()
            for e in net.edges:
                if e.tail in frontier and e.head not in seen:
                    nxt.add(e.head)
                    seen.add(e.head)
            frontier = nxt
        assert node in seen, (net_id, node, msg)


def test_parse_and_serialize_round_trip():
    text = """
    # tiny relay; e1 fans out to mid and dst
    message a@src
    message b@src
    edge e1 src mid
    edge e2 mid dst
    edge e1 src dst
    demand dst a
    demand dst b
    """
    net = parse_network(text, name="relay")
    assert net.messages == ("a", "b")
    assert net.demands == (("dst", "a"), ("dst", "b"))
    assert net.edges == (Edge("src", "mid", "e1"), Edge("mid", "dst", "e2"), Edge("src", "dst", "e1"))
    assert net.coded_labels() == ("e1", "e2")
    assert net.in_edges("dst") == (Edge("mid", "dst", "e2"), Edge("src", "dst", "e1"))
    again = parse_network(network_to_text(net), name="relay")
    assert again == net


@pytest.mark.parametrize("net_id", NETWORK_IDS)
def test_bundled_network_text_round_trips(net_id):
    net = builtin_network(net_id)
    assert parse_network(network_to_text(net), net.name) == net


def _random_network_text(rng: random.Random) -> str:
    """A network file with messages attached in shuffled node order,
    fan-outs (a label repeated from its tail) and demands."""
    size = rng.randrange(2, 7)
    nodes = [f"v{i}" for i in range(size)]
    messages = [f"m{i}" for i in range(rng.randrange(1, 5))]
    lines = []
    for msg in messages:
        for node in rng.sample(nodes, rng.randrange(1, size)):
            lines.append(f"message {msg}@{node}")
    for i in range(size - 1):
        for label in range(rng.randrange(3)):
            heads = rng.sample(nodes[i + 1 :], rng.randrange(1, size - i))
            lines += [f"edge e{i}_{label} v{i} {head}" for head in heads]
    lines += sorted({f"demand {rng.choice(nodes)} {rng.choice(messages)}" for _ in range(3)})
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_random_networks_round_trip_through_text():
    rng = random.Random(14)
    for _ in range(200):
        net = parse_network(_random_network_text(rng))
        again = parse_network(network_to_text(net))
        assert again.messages == net.messages
        assert again.edges == net.edges
        assert again.source_attachments == net.source_attachments
        assert again.demands == net.demands


@pytest.mark.parametrize(
    "bad, error",
    [
        pytest.param(bad, error, id=bad)
        for bad, error in [
            ("message a", "line 1: cannot parse 'message a'"),  # missing @node
            ("message @s", "line 1: malformed message directive"),  # empty message name
            ("message a@", "line 1: malformed message directive"),  # empty node name
            ("edge e1 src", "line 1: cannot parse 'edge e1 src'"),  # wrong arity
            ("demand dst", "line 1: cannot parse 'demand dst'"),  # wrong arity
            ("frobnicate x y", "line 1: cannot parse 'frobnicate x y'"),
            ("edge e1 a b\nedge e1 a b", "line 2: duplicate edge id e1"),  # same label, tail, head
            ("edge w s t\nedge w u v", "line 2: edge w leaves s, not u"),  # one label, two tails
            ("message a@s\ndemand t a\ndemand t a", "line 3: duplicate demand a at t"),
        ]
    ],
)
def test_parse_rejects_malformed_lines(bad, error):
    with pytest.raises(ValueError) as info:
        parse_network(bad)
    assert str(info.value) == error


@pytest.mark.parametrize(
    "text, error",
    [
        ("message a@s\nedge a s t\n", "line 2: edge id a is also a message name"),
        ("edge a s t\n# a comment\nmessage a@s\n", "line 3: message a is also an edge id"),
    ],
)
def test_parse_rejects_an_edge_id_that_is_also_a_message_name(text, error):
    with pytest.raises(ValueError) as info:
        parse_network(text)
    assert str(info.value) == error


@pytest.mark.parametrize(
    "text, error",
    [
        ("message a@s\nedge e s t\ndemand t q\n", "line 3: demand of undeclared message q at t"),
        ("demand t q\nmessage a@s\nedge e s t\n", "line 1: demand of undeclared message q at t"),
        # a message declared after its demand is declared all the same
        ("demand t b\ndemand t q\nmessage b@s\n", "line 2: demand of undeclared message q at t"),
    ],
)
def test_parse_rejects_a_demand_of_an_undeclared_message(text, error):
    with pytest.raises(ValueError) as info:
        parse_network(text)
    assert str(info.value) == error
