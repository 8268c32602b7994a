"""Network model: directed acyclic multigraphs with messages and demands.

A network couples a DAG with message generation (``source_attachments``
says which messages are available at which nodes), unit-capacity edges
(every edge carries n alphabet symbols under a given code), and demands
(receiver node, message) pairs.

An edge is one delivery of a labelled block of n symbols: a code
assigns each label (w, x, y, z, ...) one function of the inputs at the
label's tail.  Edges that share a label share their tail, and together
they are one fan-out: the n symbols of w are computed once and every
head of w receives the same n symbols.  Keeping the bottleneck in one
label is what makes capacity constraints structural.

Four networks are built in: ``gbutterfly``, ``fano``, ``nonfano`` and
``vamos``.  They are written in the text format of
:func:`parse_network`, which also describes user-defined networks.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass


class NetworkCycleError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    label: str


@dataclass(frozen=True)
class Network:
    name: str
    messages: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    source_attachments: dict[str, frozenset[str]]
    demands: tuple[tuple[str, str], ...]

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return self._incidence[0].get(node, ())

    def out_edges(self, node: str) -> tuple[Edge, ...]:
        return self._incidence[1].get(node, ())

    def attached(self, node: str) -> tuple[str, ...]:
        return self._incidence[2].get(node, ())

    @functools.cached_property
    def _incidence(self) -> tuple[dict, dict, dict]:
        """Each node's in-edges and out-edges in edge order, and its
        attached messages in message order, found once: the verifiers
        ask for them at every node of every walk."""
        ins: dict[str, tuple[Edge, ...]] = {}
        outs: dict[str, tuple[Edge, ...]] = {}
        for e in self.edges:
            ins[e.head] = ins.get(e.head, ()) + (e,)
            outs[e.tail] = outs.get(e.tail, ()) + (e,)
        attached = {
            node: tuple(m for m in self.messages if m in have)
            for node, have in self.source_attachments.items()
        }
        return ins, outs, attached

    def coded_labels(self) -> tuple[str, ...]:
        """The distinct edge labels, in edge order."""
        return tuple(dict.fromkeys(e.label for e in self.edges))

    @property
    def named_edges(self) -> dict[str, str]:
        """Each edge label mapped to itself: an edge is named by its label."""
        return {label: label for label in self.coded_labels()}

    def edge_by_id(self, label: str) -> Edge:
        """The first edge carrying ``label``."""
        for e in self.edges:
            if e.label == label:
                return e
        raise KeyError(label)


@dataclass(frozen=True)
class Violation:
    kind: str  # acyclicity | reachability | demand-generation
    detail: str


# The bundled networks, each in parse_network's format: message lines
# grouped by message, then one line per edge, listed so that every node's
# in-edges come in the order its code-file columns name them.
_BUNDLED = {
    # Two two-message sources feed a shared bottleneck y through feeder
    # edges u, v; each receiver also has a direct side edge (x or z).
    "gbutterfly": """
message a@S1
message b@S1
message c@S2
message d@S2
edge u S1 M
edge v S2 M
edge y M R5
edge y M R6
edge x S1 R5
edge z S2 R6
demand R5 a
demand R5 c
demand R6 b
demand R6 d
""",
    # w = f(a,b), y = f(b,c), x = f(w,y), z = f(w,c);
    # receivers: (a,x) -> c, (x,z) -> b, (z,y) -> a.
    "fano": """
message a@NW
message a@R12
message b@NW
message b@NY
message c@NY
message c@NZ
edge w NW NX
edge w NW NZ
edge y NY NX
edge x NX R12
edge x NX R13
edge z NZ R13
edge z NZ R14
edge y NY R14
demand R12 c
demand R13 b
demand R14 a
""",
    # w = f(a,b), x = f(a,c), y = f(b,c), z = f(a,b,c);
    # receivers: (w,z) -> c, (x,z) -> b, (y,z) -> a, (w,x,y) -> c.
    "nonfano": """
message a@NW
message a@NX
message a@NZ
message b@NW
message b@NY
message b@NZ
message c@NX
message c@NY
message c@NZ
edge w NW R12
edge w NW R15
edge x NX R13
edge x NX R15
edge y NY R14
edge y NY R15
edge z NZ R12
edge z NZ R13
edge z NZ R14
demand R12 c
demand R13 b
demand R14 a
demand R15 c
""",
    # Encoders are permissive (each may use every message); the five
    # receivers encode the decoding constraints
    #   (z,b,c,d) -> a,  (y,a,b,c) -> d,  (w,z,a,d) -> b,c,
    #   (x,z,c,d) -> a,b,  (w,y,a,b) -> c,d.
    "vamos": """
message a@NW
message a@NX
message a@NY
message a@NZ
message a@R2
message a@R3
message a@R5
message b@NW
message b@NX
message b@NY
message b@NZ
message b@R2
message b@R5
message b@R1
message c@NW
message c@NX
message c@NY
message c@NZ
message c@R2
message c@R1
message c@R4
message d@NW
message d@NX
message d@NY
message d@NZ
message d@R3
message d@R1
message d@R4
edge w NW R3
edge w NW R5
edge x NX R4
edge y NY R2
edge y NY R5
edge z NZ R1
edge z NZ R3
edge z NZ R4
demand R1 a
demand R2 d
demand R3 b
demand R3 c
demand R4 a
demand R4 b
demand R5 c
demand R5 d
""",
}
NETWORK_IDS = tuple(_BUNDLED)


@functools.cache
def builtin_network(net_id: str) -> Network:
    """Return one of the four bundled networks by id."""
    if net_id not in _BUNDLED:
        raise KeyError(f"unknown network {net_id!r}; expected one of {NETWORK_IDS}")
    return parse_network(_BUNDLED[net_id], name=net_id)


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
    reachable: set[str] = set()  # labels; a label's edges share a tail
    changed = True
    while changed:  # fixpoint; safe even when the graph is cyclic
        changed = False
        for e in net.edges:
            if e.label in reachable:
                continue
            if e.tail in sourced or any(
                f.label in reachable for f in net.in_edges(e.tail)
            ):
                reachable.add(e.label)
                changed = True
    for label in net.coded_labels():
        if label not in reachable:
            violations.append(
                Violation("reachability", f"edge {label} is unreachable from every source")
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
    - ``edge <label> <tail> <head>`` delivers the block <label> from
      <tail> to <head>;
    - ``demand <node> <message>`` adds a demand.

    Repeating an edge label with the same tail and a new head is a
    fan-out: every head receives the same block, computed once at the
    tail.  A label must differ from every message name: code files name
    a node's input blocks by message name and edge label alike.  A
    demand must name a message declared somewhere in the file, once.
    """
    messages: list[str] = []
    attachments: dict[str, set[str]] = {}
    edges: list[Edge] = []
    tails: dict[str, str] = {}
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
            if msg in tails:
                raise ValueError(f"line {lineno}: message {msg} is also an edge id")
            if msg not in messages:
                messages.append(msg)
            touch(node)
            attachments.setdefault(node, set()).add(msg)
        elif kind == "edge" and len(parts) == 4:
            edge = Edge(parts[2], parts[3], parts[1])
            if edge in edges:
                raise ValueError(f"line {lineno}: duplicate edge id {edge.label}")
            if tails.setdefault(edge.label, edge.tail) != edge.tail:
                raise ValueError(
                    f"line {lineno}: edge {edge.label} leaves {tails[edge.label]}, not {edge.tail}"
                )
            if edge.label in messages:
                raise ValueError(f"line {lineno}: edge id {edge.label} is also a message name")
            touch(edge.tail)
            touch(edge.head)
            edges.append(edge)
        elif kind == "demand" and len(parts) == 3:
            node, msg = parts[1], parts[2]
            if (node, msg) in demands:
                raise ValueError(f"line {lineno}: duplicate demand {msg} at {node}")
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
    )
