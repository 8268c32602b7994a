"""Network model: directed acyclic multigraphs with messages and demands.

A network couples a DAG with message generation (``source_attachments``
says which messages are available at which nodes), unit-capacity edges
(every edge carries n alphabet symbols under a given code), and demands
(receiver node, message) pairs.

Edges come in two kinds.  *Coded* edges carry a function chosen by a
code and are addressed by their label (w, x, y, z, ...).  *Copy* edges
model fan-out behind a bottleneck: a coded edge has a single head node,
and when several consumers need its symbols the head node forwards them
verbatim on copy edges that reuse the coded edge's label.  Keeping the
bottleneck explicit is what makes capacity constraints structural: the
n symbols of w are computed once, and everything downstream sees only
those n symbols.

Four networks are built in: ``gbutterfly``, ``fano``, ``nonfano`` and
``vamos``.  User-defined networks can be described in a small text
format (see :func:`parse_network`), in which every edge is coded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

NETWORK_IDS = ("gbutterfly", "fano", "nonfano", "vamos")


class NetworkCycleError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    id: str
    label: str
    coded: bool = True


@dataclass(frozen=True)
class Network:
    name: str
    messages: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source_attachments: dict[str, frozenset[str]]
    demands: tuple[tuple[str, str], ...]
    named_edges: dict[str, str] = field(default_factory=dict)

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.head == node)

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.tail == node)

    def attached(self, node: str) -> tuple[str, ...]:
        have = self.source_attachments.get(node, frozenset())
        return tuple(m for m in self.messages if m in have)

    def coded_labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges if e.coded)

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    def receivers(self) -> tuple[str, ...]:
        seen: list[str] = []
        for node, _ in self.demands:
            if node not in seen:
                seen.append(node)
        return tuple(seen)


@dataclass(frozen=True)
class Violation:
    kind: str  # acyclicity | reachability | demand-generation
    detail: str


def _copies(label: str, tail: str, heads: list[str]) -> list[Edge]:
    return [Edge(tail, h, f"{label}->{h}", label, coded=False) for h in heads]


def _net(name, messages, attachments, edges, demands) -> Network:
    nodes: list[str] = []
    for n in list(attachments):
        if n not in nodes:
            nodes.append(n)
    for e in edges:
        for n in (e.tail, e.head):
            if n not in nodes:
                nodes.append(n)
    named = {e.label: e.id for e in edges if e.coded}
    return Network(
        name=name,
        messages=tuple(messages),
        nodes=tuple(nodes),
        edges=tuple(edges),
        source_attachments={k: frozenset(v) for k, v in attachments.items()},
        demands=tuple(demands),
        named_edges=named,
    )


def _gbutterfly() -> Network:
    # Two two-message sources feed a shared bottleneck y through feeder
    # edges u, v; each receiver also has a direct side edge (x or z).
    edges = [
        Edge("S1", "M", "u", "u"),
        Edge("S2", "M", "v", "v"),
        Edge("M", "F", "y", "y"),
        *_copies("y", "F", ["R5", "R6"]),
        Edge("S1", "R5", "x", "x"),
        Edge("S2", "R6", "z", "z"),
    ]
    return _net(
        "gbutterfly",
        ["a", "b", "c", "d"],
        {"S1": {"a", "b"}, "S2": {"c", "d"}},
        edges,
        [("R5", "a"), ("R5", "c"), ("R6", "b"), ("R6", "d")],
    )


def _fano() -> Network:
    # w = f(a,b), y = f(b,c), x = f(w,y), z = f(w,c);
    # receivers: (a,x) -> c, (x,z) -> b, (z,y) -> a.
    edges = [
        Edge("NW", "HW", "w", "w"),
        Edge("NY", "HY", "y", "y"),
        *_copies("w", "HW", ["NX", "NZ"]),
        *_copies("y", "HY", ["NX"]),
        Edge("NX", "HX", "x", "x"),
        Edge("NZ", "HZ", "z", "z"),
        *_copies("x", "HX", ["R12", "R13"]),
        *_copies("z", "HZ", ["R13", "R14"]),
        *_copies("y", "HY", ["R14"]),
    ]
    return _net(
        "fano",
        ["a", "b", "c"],
        {"NW": {"a", "b"}, "NY": {"b", "c"}, "NZ": {"c"}, "R12": {"a"}},
        edges,
        [("R12", "c"), ("R13", "b"), ("R14", "a")],
    )


def _nonfano() -> Network:
    # w = f(a,b), x = f(a,c), y = f(b,c), z = f(a,b,c);
    # receivers: (w,z) -> c, (x,z) -> b, (y,z) -> a, (w,x,y) -> c.
    edges = [
        Edge("NW", "HW", "w", "w"),
        Edge("NX", "HX", "x", "x"),
        Edge("NY", "HY", "y", "y"),
        Edge("NZ", "HZ", "z", "z"),
        *_copies("w", "HW", ["R12", "R15"]),
        *_copies("x", "HX", ["R13", "R15"]),
        *_copies("y", "HY", ["R14", "R15"]),
        *_copies("z", "HZ", ["R12", "R13", "R14"]),
    ]
    return _net(
        "nonfano",
        ["a", "b", "c"],
        {"NW": {"a", "b"}, "NX": {"a", "c"}, "NY": {"b", "c"}, "NZ": {"a", "b", "c"}},
        edges,
        [("R12", "c"), ("R13", "b"), ("R14", "a"), ("R15", "c")],
    )


def _vamos() -> Network:
    # Encoders are permissive (each may use every message); the five
    # receivers encode the decoding constraints
    #   (z,b,c,d) -> a,  (y,a,b,c) -> d,  (w,z,a,d) -> b,c,
    #   (x,z,c,d) -> a,b,  (w,y,a,b) -> c,d.
    all_msgs = {"a", "b", "c", "d"}
    edges = [
        Edge("NW", "HW", "w", "w"),
        Edge("NX", "HX", "x", "x"),
        Edge("NY", "HY", "y", "y"),
        Edge("NZ", "HZ", "z", "z"),
        *_copies("w", "HW", ["R3", "R5"]),
        *_copies("x", "HX", ["R4"]),
        *_copies("y", "HY", ["R2", "R5"]),
        *_copies("z", "HZ", ["R1", "R3", "R4"]),
    ]
    return _net(
        "vamos",
        ["a", "b", "c", "d"],
        {
            "NW": all_msgs,
            "NX": all_msgs,
            "NY": all_msgs,
            "NZ": all_msgs,
            "R1": {"b", "c", "d"},
            "R2": {"a", "b", "c"},
            "R3": {"a", "d"},
            "R4": {"c", "d"},
            "R5": {"a", "b"},
        },
        edges,
        [
            ("R1", "a"),
            ("R2", "d"),
            ("R3", "b"),
            ("R3", "c"),
            ("R4", "a"),
            ("R4", "b"),
            ("R5", "c"),
            ("R5", "d"),
        ],
    )


_BUILDERS = {
    "gbutterfly": _gbutterfly,
    "fano": _fano,
    "nonfano": _nonfano,
    "vamos": _vamos,
}

_CACHE: dict[str, Network] = {}


def builtin_network(net_id: str) -> Network:
    """Return one of the four bundled networks by id."""
    if net_id not in _BUILDERS:
        raise KeyError(f"unknown network {net_id!r}; expected one of {NETWORK_IDS}")
    if net_id not in _CACHE:
        _CACHE[net_id] = _BUILDERS[net_id]()
    return _CACHE[net_id]


def topological_order(net: Network) -> list[str]:
    """Node order respecting every edge; ties broken by node id.

    Raises :class:`NetworkCycleError` when the edge relation has a cycle.
    """
    indeg = {n: 0 for n in net.nodes}
    for e in net.edges:
        indeg[e.head] += 1
    ready = [n for n in net.nodes if indeg[n] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for e in net.out_edges(node):
            indeg[e.head] -= 1
            if indeg[e.head] == 0:
                heapq.heappush(ready, e.head)
    if len(order) != len(net.nodes):
        stuck = sorted(n for n in net.nodes if indeg[n] > 0)
        raise NetworkCycleError(f"cycle through nodes {stuck}")
    return order


def validate_network(net: Network) -> list[Violation]:
    """Check the structural invariants; an empty list means all hold.

    - the edge relation is acyclic;
    - every edge is reachable by some source message (its tail either
      has messages attached or receives a reachable edge);
    - every demanded message is generated somewhere.
    """
    violations: list[Violation] = []
    try:
        topological_order(net)
    except NetworkCycleError as exc:
        violations.append(Violation("acyclicity", str(exc)))

    sourced = {n for n, msgs in net.source_attachments.items() if msgs}
    reachable_edges: set[str] = set()
    changed = True
    while changed:  # fixpoint; safe even when the graph is cyclic
        changed = False
        for e in net.edges:
            if e.id in reachable_edges:
                continue
            if e.tail in sourced or any(
                f.id in reachable_edges for f in net.in_edges(e.tail)
            ):
                reachable_edges.add(e.id)
                changed = True
    for e in net.edges:
        if e.id not in reachable_edges:
            violations.append(
                Violation("reachability", f"edge {e.id} is unreachable from every source")
            )

    generated = frozenset().union(*net.source_attachments.values()) if net.source_attachments else frozenset()
    for node, msg in net.demands:
        if msg not in generated:
            violations.append(
                Violation("demand-generation", f"demand {msg} at {node} is never generated")
            )
    return violations


def parse_network(text: str, name: str = "custom") -> Network:
    """Parse the line-oriented network description format.

    Directives (whitespace separated, ``#`` starts a comment):

    - ``message <id>@<node>`` attaches message <id> at <node>;
    - ``edge <id> <tail> <head>`` declares a coded edge;
    - ``demand <node> <message>`` adds a demand.

    An edge id must differ from every message name: code files name a
    node's input blocks by message name and edge id alike.  A demand
    must name a message declared somewhere in the file.
    """
    messages: list[str] = []
    attachments: dict[str, set[str]] = {}
    edges: list[Edge] = []
    demands: list[tuple[str, str]] = []
    demand_lines: list[int] = []
    nodes: list[str] = []

    def touch(node: str) -> None:
        if node not in nodes:
            nodes.append(node)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "message" and len(parts) == 2 and "@" in parts[1]:
            msg, node = parts[1].split("@", 1)
            if not msg or not node:
                raise ValueError(f"line {lineno}: malformed message directive")
            if any(e.id == msg for e in edges):
                raise ValueError(f"line {lineno}: message {msg} is also an edge id")
            if msg not in messages:
                messages.append(msg)
            touch(node)
            attachments.setdefault(node, set()).add(msg)
        elif kind == "edge" and len(parts) == 4:
            eid, tail, head = parts[1], parts[2], parts[3]
            if any(e.id == eid for e in edges):
                raise ValueError(f"line {lineno}: duplicate edge id {eid}")
            if eid in messages:
                raise ValueError(f"line {lineno}: edge id {eid} is also a message name")
            touch(tail)
            touch(head)
            edges.append(Edge(tail, head, eid, eid))
        elif kind == "demand" and len(parts) == 3:
            node, msg = parts[1], parts[2]
            touch(node)
            demands.append((node, msg))
            demand_lines.append(lineno)
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw.strip()!r}")
    for lineno, (node, msg) in zip(demand_lines, demands):
        if msg not in messages:
            raise ValueError(f"line {lineno}: demand of undeclared message {msg} at {node}")

    return Network(
        name=name,
        messages=tuple(messages),
        nodes=tuple(nodes),
        edges=tuple(edges),
        source_attachments={k: frozenset(v) for k, v in attachments.items()},
        demands=tuple(demands),
        named_edges={e.label: e.id for e in edges},
    )


def network_to_text(net: Network) -> str:
    lines = []
    for node in net.nodes:
        for msg in net.attached(node):
            lines.append(f"message {msg}@{node}")
    for e in net.edges:
        if e.coded:
            lines.append(f"edge {e.id} {e.tail} {e.head}")
    for node, msg in net.demands:
        lines.append(f"demand {node} {msg}")
    return "\n".join(lines) + "\n"
