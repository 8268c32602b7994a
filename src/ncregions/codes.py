"""Fractional codes on networks: representation and verification.

A (k_1,...,k_m, n) fractional code assigns every edge label a function
from its tail node's input symbols to n alphabet symbols; every edge
with that label delivers the same n symbols.  Linear codes store a
matrix per label; table codes store a full lookup table of radix keys
per label and work over arbitrary alphabets.

A node's inputs are its attached messages (network message order, k_m
symbols each) then its in-edges (network edge order, n symbols each).
:func:`_input_layout` lists these blocks as (name, width) pairs, a
message by its name and an in-edge by its label, and :func:`_offsets`
gives each block's (start, width): every column offset below comes from
these two helpers.

Both verifiers push values through the network by one shared walk,
:func:`_propagate`, which hands each receiver's inputs to the verifier
as soon as it joins them, and both report through :func:`_report`.
The two routes stay independent in how they decide a demand:

- :func:`verify_solution` is algebraic: the walk composes edge matrices
  into transfer matrices from the full message vector and keeps each
  receiver's, whose kernel is computed once; a demand passes iff every
  vector of that kernel is zero on the demanded message's symbols.
- :func:`verify_solution_exhaustive` is operational: the walk pushes
  the message assignments through the edge functions one aligned block
  at a time, and each receiver's inputs must determine its demands (or
  match its decoder tables).  Every value is one radix key per
  assignment, int32 unless the widest key needs int64; each edge
  function and decoder is tabulated once over its input keys and
  gathered in every block, and receivers group equal input keys by a
  first-occurrence table kept across blocks (or by a stable sort of
  their collected keys when the table would outgrow the scan).  A
  block's arrays stay within a core's L2 cache, so apart from the
  tables and the sorted receivers' keys the verifier's memory does not
  grow with the number of assignments.  It uses no linear algebra, so
  it is the brute-force oracle for the algebraic path, and it is the
  only route for nonlinear table codes.

Bundled with the four networks is the catalog of achieving codes for
the cataloged regions, each tagged with the field characteristic class
(``even``, ``odd`` or ``any``) it is claimed for.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .ff import (
    GF2,
    GF3,
    PrimeField,
    PrimeFieldMatrix,
    mat,
    mat_mul,
    mat_nullspace,
    mat_stack,
    mat_zeros,
    power_exceeds,
)
from .netmodel import NETWORK_IDS, Network, builtin_network, parse_network, topological_order

DEFAULT_ENUMERATION_GUARD = 2**20
# entries of the algebraic verifier's transfer matrices: one row per
# input symbol of every tail and receiver, one column per message symbol
TRANSFER_ENTRY_GUARD = 2**20
# assignments per block of the exhaustive verifier's walk: the few
# int32 arrays of one block fit in a core's L2 cache
_EXHAUSTIVE_BLOCK = 1 << 16


class GuardExceededError(ValueError):
    pass


class CoefficientUnavailableError(ValueError):
    """A rational coefficient has no image in the requested field."""


@dataclass(frozen=True)
class RateSpec:
    """Message dimensions k_i (symbols per message) and edge dimension n."""

    message_dims: dict[str, int]
    edge_dim: int

    def __post_init__(self) -> None:
        if self.edge_dim < 1:
            raise ValueError("edge dimension n must be at least 1")
        for msg, k in self.message_dims.items():
            if k < 0:
                raise ValueError(f"negative dimension for message {msg}")

    @property
    def total_message_width(self) -> int:
        return sum(self.message_dims.values())


def rate_spec(net: Network, dims: Mapping[str, int], edge_dim: int) -> RateSpec:
    """Normalize dims to cover every network message, in network order."""
    unknown = set(dims) - set(net.messages)
    if unknown:
        raise ValueError(f"dims mention unknown messages {sorted(unknown)}")
    return RateSpec({m: int(dims.get(m, 0)) for m in net.messages}, int(edge_dim))


@dataclass(frozen=True)
class LinearCode:
    network: str
    field: PrimeField
    rates: RateSpec
    edge_functions: dict[str, PrimeFieldMatrix]
    decoders: dict[tuple[str, str], PrimeFieldMatrix] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class TableCode:
    """Lookup-table code over an arbitrary alphabet {0, ..., A-1}.

    ``edge_tables[label]`` is a read-only integer array, uint8 or uint16
    where the keys fit, whose entry i is the radix-A key of the output
    for input key i, first symbol most significant.  Decoder tables are
    keyed the same way over the receiver's input symbols.
    """

    network: str
    alphabet: int
    rates: RateSpec
    edge_tables: dict[str, np.ndarray]
    decoder_tables: dict[tuple[str, str], np.ndarray] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.alphabet < 2:
            raise ValueError("alphabet size must be at least 2")
        for table in [*self.edge_tables.values(), *self.decoder_tables.values()]:
            table.flags.writeable = False


Code = LinearCode | TableCode


@dataclass(frozen=True)
class DemandStatus:
    receiver: str
    message: str
    ok: bool
    reason: str | None = None
    witness: dict[str, tuple[int, ...]] | None = None


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    statuses: tuple[DemandStatus, ...]
    rate_vector: dict[str, Fraction]
    assignments_checked: int | None = None

    def first_failure(self) -> DemandStatus | None:
        for st in self.statuses:
            if not st.ok:
                return st
        return None


# ---------------------------------------------------------------------------
# symbol layout


def _input_layout(net: Network, rates: RateSpec, node: str) -> list[tuple[str, int]]:
    """(name, width) of a node's input blocks: its attached messages in
    network message order, then its in-edges in network edge order, a
    message named by its name and an in-edge by its label."""
    return [(m, rates.message_dims[m]) for m in net.attached(node)] + [
        (e.label, rates.edge_dim) for e in net.in_edges(node)
    ]


def _message_layout(net: Network, rates: RateSpec) -> list[tuple[str, int]]:
    """The full message vector's blocks, in network message order."""
    return [(m, rates.message_dims[m]) for m in net.messages]


def _offsets(layout: Iterable[tuple[Hashable, int]]) -> dict[Hashable, tuple[int, int]]:
    """(start, width) of each named block of a layout."""
    offsets = {}
    pos = 0
    for name, width in layout:
        if name in offsets:
            raise ValueError(f"duplicate symbol {name!r} in layout")
        offsets[name] = (pos, width)
        pos += width
    return offsets


def _columns(offsets: Mapping[Hashable, tuple[int, int]], names: Iterable[Hashable]) -> list[int]:
    """The columns of the named blocks, in the order named."""
    cols = []
    for name in names:
        start, width = offsets[name]
        cols += range(start, start + width)
    return cols


def _tail(net: Network, label: str) -> str:
    """The node whose inputs an edge label's function reads."""
    return net.edge_by_id(label).tail


def node_input_width(net: Network, rates: RateSpec, node: str) -> int:
    return sum(width for _, width in _input_layout(net, rates, node))


def _joined(net: Network) -> dict[str, None]:
    """The nodes whose inputs a verifier joins: every label's tail, then
    every receiver."""
    return dict.fromkeys([e.tail for e in net.edges] + [node for node, _ in net.demands])


def _propagate(net: Network, message_value, apply_edge, concat, visit) -> None:
    """Push values through the network once, in topological order.

    A node's inputs are ``concat`` of its blocks in :func:`_input_layout`
    order, ``message_value(name)`` for a message and the label's value
    for an in-edge, joined once for every tail and receiver.  A
    receiver's inputs go to ``visit(node, inputs)`` as soon as they are
    joined, before its own labels are applied.  Each label carries
    ``apply_edge(label, inputs)`` of its tail's inputs, computed once for
    all of its edges, and is dropped once the last tail or receiver that
    reads it has joined it.
    """
    joined = _joined(net)
    receivers = {node for node, _ in net.demands}
    # how many joining nodes have yet to read each label
    unread = Counter(e.label for e in net.edges if e.head in joined)
    values = {}
    for node in topological_order(net):
        if node not in joined:
            continue
        inputs = concat(
            [message_value(m) for m in net.attached(node)]
            + [values[e.label] for e in net.in_edges(node)]
        )
        for e in net.in_edges(node):
            unread[e.label] -= 1
            if not unread[e.label]:
                del values[e.label]
        if node in receivers:
            visit(node, inputs)
        for label in dict.fromkeys(e.label for e in net.out_edges(node)):
            values[label] = apply_edge(label, inputs)
        del inputs  # free them before the next node joins its own


def _functions(code: Code) -> tuple[dict, dict]:
    """The edge functions and the decoders of a linear or table code."""
    if isinstance(code, LinearCode):
        return code.edge_functions, code.decoders
    return code.edge_tables, code.decoder_tables


def _function_slots(net: Network, code: Code):
    """(description, function, input node, output width) of every edge
    function and decoder of a code."""
    functions, decoders = _functions(code)
    for label, fn in functions.items():
        yield f"edge {label!r}", fn, _tail(net, label), code.rates.edge_dim
    for (node, msg), fn in decoders.items():
        yield f"decoder {node}/{msg}", fn, node, code.rates.message_dims[msg]


def validate_code(net: Network, code: Code) -> None:
    if code.network != net.name:
        raise ValueError(f"code is for network {code.network!r}, not {net.name!r}")
    if set(code.rates.message_dims) != set(net.messages):
        raise ValueError("rate spec does not cover the network messages")
    linear = isinstance(code, LinearCode)
    functions, decoders = _functions(code)
    for label in net.coded_labels():
        if label not in functions:
            raise ValueError(f"no function for coded edge {label!r}")
    for node, msg in decoders:
        if (node, msg) not in net.demands:
            raise ValueError(f"decoder {node}/{msg} is not a demand of the network")
    for what, fn, node, out_width in _function_slots(net, code):
        width = node_input_width(net, code.rates, node)
        if linear:
            if fn.rows != out_width or fn.cols != width:
                raise ValueError(
                    f"{what} matrix is {fn.rows}x{fn.cols}, expected {out_width}x{width}"
                )
            if fn.field != code.field:
                raise ValueError(f"{what} matrix is over the wrong field")
        else:
            if power_exceeds(code.alphabet, width, len(fn)) or code.alphabet**width != len(fn):
                raise ValueError(f"{what} table has wrong domain size")
            if fn.min() < 0 or not power_exceeds(code.alphabet, out_width, int(fn.max())):
                raise ValueError(f"{what} table has an output key out of range")


# ---------------------------------------------------------------------------
# algebraic verification


def _transfer(net: Network, code: LinearCode):
    """``transfer[node]``: the matrix from the full message vector to a
    receiver's inputs, kept as the walk joins the receiver;
    ``select(msg)``: the selector of one message.

    Refused before any matrix is built when the matrices of every tail
    and receiver together would exceed ``TRANSFER_ENTRY_GUARD`` entries.
    """
    fld = code.field
    rates = code.rates
    total = rates.total_message_width
    rows = sum(node_input_width(net, rates, node) for node in _joined(net))
    if rows * total > TRANSFER_ENTRY_GUARD:
        raise GuardExceededError(
            f"transfer matrices of {rows} input symbols by {total} message symbols "
            f"exceed the guard of {TRANSFER_ENTRY_GUARD} entries"
        )
    offsets = _offsets(_message_layout(net, rates))

    def select(msg: str) -> PrimeFieldMatrix:
        start, width = offsets[msg]
        return mat(fld, [[int(j == start + i) for j in range(total)] for i in range(width)], cols=total)

    transfer = {}
    _propagate(
        net,
        select,
        lambda label, inputs: mat_mul(code.edge_functions[label], inputs),
        lambda blocks: mat_stack(*blocks) if blocks else mat_zeros(fld, 0, total),
        transfer.__setitem__,
    )
    return transfer, select


def _report(net: Network, code: Code, failures: Mapping, checked: int | None = None) -> VerificationReport:
    """A verifier's report, one status per demand in network order:
    ``failures`` maps each failed demand to its reason and its witness,
    a full message vector of symbols in network message order."""
    offsets = _offsets(_message_layout(net, code.rates))
    statuses = []
    for node, msg in net.demands:
        if (node, msg) in failures:
            reason, vector = failures[(node, msg)]
            witness = {m: tuple(vector[start : start + k]) for m, (start, k) in offsets.items()}
            statuses.append(DemandStatus(node, msg, False, reason, witness))
        else:
            statuses.append(DemandStatus(node, msg, True))
    return VerificationReport(all(s.ok for s in statuses), tuple(statuses), rate_vector(code), checked)


def verify_solution(net: Network, code: LinearCode) -> VerificationReport:
    """Algebraic verification of a linear code.

    The walk keeps each receiver's input transfer matrix as it joins the
    receiver, and each matrix's kernel is computed once.  A demand
    (r, m) passes iff every vector of r's kernel is zero on m's columns:
    over GF(p) the row space is the kernel's annihilator.  The witness
    is the first kernel vector nonzero on m.  A supplied decoder must in
    addition reproduce the selector exactly from the same matrix.
    """
    if not isinstance(code, LinearCode):
        raise TypeError("verify_solution handles linear codes; use the exhaustive verifier")
    validate_code(net, code)
    total = code.rates.total_message_width
    offsets = _offsets(_message_layout(net, code.rates))
    transfer, select = _transfer(net, code)
    kernels = {node: mat_nullspace(matrix) for node, matrix in transfer.items()}
    failures = {}
    for node, msg in net.demands:
        start, k = offsets[msg]
        row = next((row for row in kernels[node].entries if any(row[start : start + k])), None)
        if row is not None:
            failures[(node, msg)] = "demand is not a function of the receiver inputs", row
        elif (node, msg) in code.decoders:
            sel = select(msg)
            product = mat_mul(code.decoders[(node, msg)], transfer[node])
            if product != sel:
                # the unit assignment of the first message symbol it gets wrong
                j = next(j for j in range(total) if product.column(j) != sel.column(j))
                unit = [int(i == j) for i in range(total)]
                failures[(node, msg)] = "supplied decoder does not reproduce the demand", unit
    return _report(net, code, failures)


# ---------------------------------------------------------------------------
# exhaustive verification (brute force over all message assignments)


def _alphabet_size(code: Code) -> int:
    return code.field.p if isinstance(code, LinearCode) else code.alphabet


def _reduce(values: np.ndarray, modulus: int) -> None:
    """``values %= modulus`` for non-negative values, as a mask for a
    power of two and else as ``values -= values // modulus * modulus``:
    numpy's floor division by a scalar is several times faster than its
    remainder."""
    if not modulus & (modulus - 1):
        values &= modulus - 1
        return
    quotient = values // modulus
    quotient *= modulus
    values -= quotient


def _forms(keys: np.ndarray, weights: np.ndarray, base: int) -> np.ndarray:
    """``weights @ digits`` of each radix key, mod base."""
    width = weights.shape[1]
    digits = keys[:, None] // base ** np.arange(width - 1, -1, -1, dtype=keys.dtype) % base
    return digits @ weights.T % base


def _compact(limit: int, dtype):
    """uint8 or uint16 where keys below ``limit`` fit, else ``dtype``."""
    return np.uint8 if limit <= 2**8 else np.uint16 if limit <= 2**16 else dtype


def _linear_table(fn: PrimeFieldMatrix, count: int, dtype, lookups: dict) -> np.ndarray:
    """A linear function's output key for each input key, in uint8 or
    uint16 where they fit, else ``dtype``: the outer sum of its forms on
    the input digits' high and low halves, written in radix ``2*p - 1``
    so that output symbols add without carries, each digit reduced mod p
    by a lookup table no longer than ``count`` or one block (kept in
    ``lookups``) for as many output symbols at a time as it covers."""
    base, width = fn.field.p, fn.cols
    compact = _compact(base**fn.rows, dtype)
    if not fn.rows:  # every input has the empty output, key 0
        return np.zeros(base**width, compact)
    weights = np.array(fn.entries, dtype=np.int64).reshape(fn.rows, width)
    half = width // 2
    high = _forms(np.arange(base ** (width - half)), weights[:, : width - half], base)
    low = _forms(np.arange(base**half), weights[:, width - half :], base)
    radix = 2 * base - 1
    chunk = 1
    while chunk < fn.rows and radix ** (chunk + 1) <= min(count, _EXHAUSTIVE_BLOCK):
        chunk += 1
    for first in range(0, fn.rows, chunk):
        symbols = min(chunk, fn.rows - first)
        if (symbols, compact) not in lookups:
            digit = (np.arange(radix) % base).astype(compact)
            lookup = digit
            for _ in range(symbols - 1):
                lookup = np.add.outer(lookup * base, digit).ravel()
            lookups[(symbols, compact)] = lookup
        places = radix ** np.arange(symbols - 1, -1, -1)
        part = slice(first, first + symbols)
        sums = np.add.outer(high[:, part] @ places, low[:, part] @ places).ravel()
        keys = lookups[(symbols, compact)].take(sums)
        if first:
            table *= base**symbols
            table += keys
        else:
            table = keys
    return table


def _tabulate(code: Code, fn, out_width: int, count: int, dtype, lookups: dict):
    """An edge function or decoder as a gather from input keys to output
    keys: the ``take`` of a table code's stored keys or of
    :func:`_linear_table`, in uint8 or uint16 where they fit, or for a
    linear function whose table would outgrow the ``count`` assignments,
    a sum over each key's digits, one output symbol and digit at a time."""
    base = _alphabet_size(code)
    if isinstance(code, TableCode):
        return fn.astype(_compact(base**out_width, dtype), copy=False).take
    width = fn.cols
    if base**width > count:

        def digitwise(keys: np.ndarray) -> np.ndarray:
            out = np.zeros(len(keys), dtype)
            for row in fn.entries:
                symbol = np.zeros(len(keys), dtype)
                for j, weight in enumerate(row):
                    if weight:
                        digit = keys // base ** (width - 1 - j)
                        _reduce(digit, base)
                        digit *= weight
                        symbol += digit
                _reduce(symbol, base)
                out *= base
                out += symbol
            return out

        return digitwise
    return _linear_table(fn, count, dtype, lookups).take


def verify_solution_exhaustive(
    net: Network, code: Code, guard: int = DEFAULT_ENUMERATION_GUARD
) -> VerificationReport:
    """Brute-force verification over all |A|^K message assignments.

    Without stored decoders, a demand passes iff no two assignments give
    the receiver identical inputs but different demanded values; with
    decoders, the decoder output must equal the message everywhere.  On
    failure the witness is the lexicographically smallest assignment
    that conflicts with an earlier one (or fails its decoder).

    Assignment ``a`` is the radix-``|A|`` number of its symbols, and
    every value (a message, an edge's symbols, a node's joined inputs)
    is one radix key per assignment: int32 when every key and
    assignment index is below 2^31, else int64.  The walk runs once per
    aligned block of assignments, in order: a block fixes the leading
    symbols and enumerates the trailing ones, so a message's keys in it
    are a constant plus a ramp.  Each edge function and decoder is
    tabulated once and gathered in every block.  A receiver's demands
    are checked in each block as soon as its inputs are joined, against
    first-occurrence tables kept across blocks; a receiver with more
    input keys than assignments collects its keys instead, and they are
    sorted once the walk is done.  A label's keys are dropped once every
    node that reads them has joined them.
    """
    validate_code(net, code)
    rates = code.rates
    base = _alphabet_size(code)
    total = rates.total_message_width
    if power_exceeds(base, total, guard):
        raise GuardExceededError(
            f"{base}^{total} assignments exceed the enumeration guard {guard}"
        )
    count = base**total
    # every key is below base^widest: a label's below base^edge_dim,
    # and a message's or a decoder output's below base^total
    widest = max(total, rates.edge_dim)
    widths = {}
    for node in _joined(net):
        widths[node] = width = node_input_width(net, rates, node)
        if power_exceeds(base, width, 2**62 - 1):
            raise GuardExceededError(
                f"inputs of node {node} ({base}^{width} values) are too wide "
                "for exhaustive keying"
            )
        widest = max(widest, width)
    dtype = np.int64 if power_exceeds(base, widest, 2**31 - 1) else np.int32
    offsets = _offsets(_message_layout(net, rates))

    # A block enumerates the last ``span`` symbols of an assignment, at
    # least one and at most _EXHAUSTIVE_BLOCK assignments where it can.
    span = min(total, 1)
    while span < total and base ** (span + 1) <= _EXHAUSTIVE_BLOCK:
        span += 1
    size = base**span
    local = {}  # message -> its (start, width) among a block's enumerated symbols
    for msg, (start, k) in offsets.items():
        lo = max(0, start - total + span)
        local[msg] = lo, max(0, start + k - total + span) - lo
    first_index = 0  # of the current block
    ramps = {}  # message -> its keys in the current block, as by_message broadcasts them

    def by_message(keys: np.ndarray, msg: str) -> tuple[np.ndarray, np.ndarray]:
        """``keys`` of a block viewed as (base^start, base^k, rest),
        where an assignment's middle index is the varying part of its
        key of ``msg``, and that message's keys, which broadcast over
        the view."""
        start, k = local[msg]
        return keys.reshape(base**start, base**k, -1), ramps[msg]

    def concat(blocks):  # a message's block is its name, a label's its keys
        key, width = np.zeros(size, dtype), 0
        for block in blocks:
            message = isinstance(block, str)
            block_width = offsets[block][1] if message else rates.edge_dim
            if width:
                key *= base**block_width
            if message:
                view, ramp = by_message(key, block)
                view += ramp
            else:
                key += block
            width += block_width
        return key, width

    def first_differing(keys: np.ndarray, msg: str) -> int | None:
        """The first assignment whose ``keys`` differ from its key of ``msg``."""
        view, ramp = by_message(keys, msg)
        bad = view != ramp
        return first_index + int(bad.argmax()) if bad.any() else None

    functions, decoders = _functions(code)
    lookups = {}
    gathers = {
        label: _tabulate(code, fn, rates.edge_dim, count, dtype, lookups)
        for label, fn in functions.items()
    }
    decoding: dict[str, list] = {}  # receiver -> (message, decode) of its decoders
    demanded: dict[str, list[str]] = {}  # receiver -> its demands without a decoder
    for node, msg in net.demands:
        if not offsets[msg][1]:
            continue
        if (node, msg) in decoders:
            decode = _tabulate(code, decoders[(node, msg)], offsets[msg][1], count, dtype, lookups)
            decoding.setdefault(node, []).append((msg, decode))
        else:
            demanded.setdefault(node, []).append(msg)
    lookups.clear()
    # Each assignment is compared with the first one that gives the
    # receiver the same inputs: first[v] is the first assignment so far
    # with input key v, updated with a block's assignments before they
    # are compared.  A receiver with more input keys than assignments
    # collects its keys over the blocks and groups them by a sort.
    firsts, collected = {}, {}
    for node in demanded:
        if base ** widths[node] <= count:
            firsts[node] = np.full(base ** widths[node], count, dtype=dtype)
        else:
            collected[node] = np.empty(count, dtype)
    failures = {}  # (receiver, message) -> (reason, first failing assignment)
    conflict = "two assignments share receiver inputs but differ in the demand"

    def check(node: str, inputs) -> None:
        key, _ = inputs
        for msg, decode in decoding.get(node, ()):
            if (node, msg) not in failures:
                a = first_differing(decode(key), msg)
                if a is not None:
                    failures[(node, msg)] = "decoder output differs from the message", a
        if node not in demanded:
            return
        if node not in firsts:  # grouped by a sort once the walk is done
            collected[node][first_index : first_index + size] = key
            return
        pending = [msg for msg in demanded[node] if (node, msg) not in failures]
        if not pending:
            return
        first = firsts[node]
        np.minimum.at(first, key, np.arange(first_index, first_index + size, dtype=dtype))
        # divide the table or the block's gather from it, whichever is shorter
        gathered = len(first) > size
        seen = first.take(key) if gathered else first
        for msg in pending:
            start, k = offsets[msg]
            demand = seen // base ** (total - start - k)
            _reduce(demand, base**k)
            a = first_differing(demand if gathered else demand.take(key), msg)
            if a is not None:
                failures[(node, msg)] = conflict, a

    for first_index in range(0, count, size):
        for msg, (start, k) in offsets.items():
            constant = first_index // base ** (total - start - k) % base**k
            ramps[msg] = np.arange(constant, constant + base ** local[msg][1], dtype=dtype)[:, None]
        _propagate(
            net, lambda msg: msg, lambda label, inputs: gathers[label](inputs[0]), concat, check
        )
    gathers.clear()
    firsts.clear()

    for node in list(collected):
        # A stable sort lists equal inputs in assignment order.  In such
        # a run, the first assignment whose demand differs from its
        # predecessor's is the first to differ from the run's first
        # assignment, and any later such one comes after it.
        key = collected.pop(node)
        order = np.argsort(key, kind="stable")
        sorted_key = key.take(order)  # before the cast: an intp index is taken without a copy
        tie = sorted_key[1:] == sorted_key[:-1]
        del key, sorted_key
        order = order.astype(dtype, copy=False)
        for msg in demanded[node]:
            start, k = offsets[msg]
            demand = order // base ** (total - start - k)
            _reduce(demand, base**k)
            step = demand[1:] != demand[:-1]
            step &= tie
            del demand
            if step.any():
                failures[(node, msg)] = conflict, int(order[1:][step].min())
        del order, tie  # before the next receiver's sort

    # each failing assignment index, as its symbols
    failures = {
        key: (reason, [a // base ** (total - 1 - j) % base for j in range(total)])
        for key, (reason, a) in failures.items()
    }
    return _report(net, code, failures, count)


# ---------------------------------------------------------------------------
# routing detection, concatenation, rates


def _is_routing_matrix(m: PrimeFieldMatrix) -> bool:
    for row in m.entries:
        nonzero = [x for x in row if x]
        if nonzero and (len(nonzero) != 1 or nonzero[0] != 1):
            return False
    return True


def is_routing(code: LinearCode) -> bool:
    """True iff every output coordinate of every edge and decoder
    matrix copies a single input coordinate (or is identically zero)."""
    if not isinstance(code, LinearCode):
        raise TypeError("is_routing handles linear codes")
    functions = list(code.edge_functions.values()) + list(code.decoders.values())
    return all(_is_routing_matrix(m) for m in functions)


def rate_vector(code: Code) -> dict[str, Fraction]:
    """Exact per-message rates k_i / n, in network message order."""
    n = code.rates.edge_dim
    return {m: Fraction(k, n) for m, k in code.rates.message_dims.items()}


def concatenate_codes(codes: Sequence[LinearCode], net: Network) -> LinearCode:
    """Time sharing: block-diagonal combination of codes on one network.

    Message and edge dimensions add; every block computes exactly what
    its component code computed, so validity is preserved.
    """
    if not codes:
        raise ValueError("nothing to concatenate")
    first = codes[0]
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

    def combine(node: str, matrices) -> PrimeFieldMatrix:
        # each input block of the node splits into one sub-block per
        # code, in code order; code j's rows fill its own sub-blocks
        local = [_offsets(_input_layout(net, c.rates, node)) for c in codes]
        blocks = _offsets(
            ((name, j), offsets[name][1]) for name in local[0] for j, offsets in enumerate(local)
        )
        width = node_input_width(net, combined_rates, node)
        rows = []
        for j, m in enumerate(matrices):
            cols = _columns(blocks, [(name, j) for name in local[j]])
            for entries in m.entries:
                row = [0] * width
                for col, x in zip(cols, entries):
                    row[col] = x
                rows.append(row)
        return mat(fld, rows, cols=width)

    edge_functions = {
        label: combine(_tail(net, label), [c.edge_functions[label] for c in codes])
        for label in net.coded_labels()
    }
    decoders = {
        key: combine(key[0], [c.decoders[key] for c in codes])
        for key in codes[0].decoders
        if all(key in c.decoders for c in codes)
    }

    return LinearCode(first.network, fld, combined_rates, edge_functions, decoders)


def zero_fix(net: Network, code: LinearCode, zero_messages: Iterable[str]) -> LinearCode:
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
        offsets = _offsets(_input_layout(net, rates, node))
        return _columns(offsets, [name for name in offsets if name not in zero])

    edge_functions = {}
    for label, m in code.edge_functions.items():
        cols = surviving_columns(_tail(net, label))
        rows = [[r[c] for c in cols] for r in m.entries]
        edge_functions[label] = mat(code.field, rows, cols=len(cols))
    decoders = {}
    for (node, msg), m in code.decoders.items():
        cols = surviving_columns(node)
        source_rows = () if msg in zero else m.entries
        rows = [[r[c] for c in cols] for r in source_rows]
        decoders[(node, msg)] = mat(code.field, rows, cols=len(cols))
    return LinearCode(code.network, code.field, new_rates, edge_functions, decoders)


def to_table_code(net: Network, code: LinearCode) -> TableCode:
    """Tabulate a linear code (used to exercise the table-code path) by
    the exhaustive verifier's table builder."""
    validate_code(net, code)
    lookups = {}
    edge_tables, decoder_tables = (
        {key: _linear_table(m, code.field.p**m.cols, np.int64, lookups) for key, m in fns.items()}
        for fns in _functions(code)
    )
    return TableCode(code.network, code.field.p, code.rates, edge_tables, decoder_tables)


# ---------------------------------------------------------------------------
# formula mini-language for transcribing codes

_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?\*?([a-z])(\d+)?$")


def _parse_terms(formula: str):
    compact = formula.replace(" ", "")
    if compact in ("0", "+0", "-0"):
        return []
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    terms = []
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m:
            raise ValueError(f"cannot parse term {piece!r} in {formula!r}")
        sign, coeff, symbol, comp = m.groups()
        value = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            value = -value
        terms.append((value, symbol, int(comp) - 1 if comp else None))
    return terms


def _coeff_in_field(fld: PrimeField, value: Fraction) -> int:
    den = value.denominator % fld.p
    if den == 0:
        raise CoefficientUnavailableError(
            f"coefficient {value} has no image in GF({fld.p})"
        )
    return (value.numerator % fld.p) * fld.inv(den) % fld.p


def formulas_to_matrix(
    fld: PrimeField,
    formulas: Sequence[str],
    symbols: Sequence[tuple[str, int]],
) -> PrimeFieldMatrix:
    """Rows from textual linear forms like ``a1+b1``, ``w2-2w3-c2``.

    ``symbols`` lists (name, width) pairs in input-layout order; a bare
    name like ``c`` refers to the single component of a width-1 symbol.
    """
    offsets = _offsets(symbols)
    total = sum(width for _, width in offsets.values())
    rows = []
    for formula in formulas:
        row = [0] * total
        for value, name, comp in _parse_terms(formula):
            if name not in offsets:
                raise ValueError(f"unknown symbol {name!r} in {formula!r}")
            start, width = offsets[name]
            if comp is None:
                if width != 1:
                    raise ValueError(
                        f"symbol {name!r} has width {width}; use an index in {formula!r}"
                    )
                comp = 0
            if not 0 <= comp < width:
                raise ValueError(f"component {name}{comp + 1} out of range in {formula!r}")
            row[start + comp] = (row[start + comp] + _coeff_in_field(fld, value)) % fld.p
        rows.append(row)
    return mat(fld, rows, cols=total)


def build_code(
    net: Network,
    fld: PrimeField,
    dims: Mapping[str, int],
    edge_dim: int,
    edge_formulas: Mapping[str, Sequence[str]],
    decoder_formulas: Mapping[tuple[str, str], Sequence[str]] | None = None,
) -> LinearCode:
    """Assemble a linear code from per-edge output formulas.

    Formulas reference the symbols available at the edge's tail (or the
    receiver, for decoders) by label.  Decoders whose coefficients do
    not exist in ``fld`` (for example 1/2 in characteristic 2) are
    silently dropped; the row-space check still governs verification.
    """
    rates = rate_spec(net, dims, edge_dim)
    functions = {}
    for label in net.coded_labels():
        if label not in edge_formulas:
            raise ValueError(f"missing formulas for edge {label!r}")
        formulas = list(edge_formulas[label])
        if len(formulas) != edge_dim:
            raise ValueError(f"edge {label!r} needs {edge_dim} output formulas")
        layout = _input_layout(net, rates, _tail(net, label))
        functions[label] = formulas_to_matrix(fld, formulas, layout)
    decoders = {}
    for (node, msg), formulas in (decoder_formulas or {}).items():
        layout = _input_layout(net, rates, node)
        try:
            decoders[(node, msg)] = formulas_to_matrix(fld, list(formulas), layout)
        except CoefficientUnavailableError:
            continue
    return LinearCode(net.name, fld, rates, functions, decoders)


# ---------------------------------------------------------------------------
# bundled code catalog


@dataclass(frozen=True)
class BuiltinCodeSpec:
    label: str
    characteristic: str  # even | odd | any
    region_classes: frozenset[str]
    dims: Mapping[str, int]
    edge_dim: int
    edges: Mapping[str, Sequence[str]]
    decoders: Mapping[tuple[str, str], Sequence[str]] | None


@dataclass(frozen=True)
class BuiltinCode:
    label: str
    characteristic: str
    region_classes: frozenset[str]
    code: LinearCode


def _spec(char, classes, dims, n, edges, decoders=None):
    """A bundled code, made once its network's messages are known: its
    label is its rate vector, k_m/n for every message m."""
    return lambda messages: BuiltinCodeSpec(
        "(" + ",".join(str(Fraction(dims.get(m, 0), n)) for m in messages) + ")",
        char, frozenset(classes), dims, n, edges, decoders,
    )


_GB = [
    _spec("any", {"coding", "routing"}, {"a": 2, "d": 1}, 1,
          {"x": ["a1"], "u": ["a2"], "v": ["0"], "y": ["u1"], "z": ["d1"]}),
    _spec("any", {"coding", "routing"}, {"a": 1, "d": 2}, 1,
          {"x": ["a1"], "u": ["0"], "v": ["d1"], "y": ["v1"], "z": ["d2"]}),
    _spec("any", {"coding", "routing"}, {"a": 1, "c": 1, "d": 1}, 1,
          {"x": ["a1"], "u": ["0"], "v": ["c1"], "y": ["v1"], "z": ["d1"]}),
    _spec("any", {"coding", "routing"}, {"a": 1, "b": 1, "d": 1}, 1,
          {"x": ["a1"], "u": ["b1"], "v": ["0"], "y": ["u1"], "z": ["d1"]}),
    _spec("any", {"coding"}, {"b": 1, "c": 1}, 1,
          {"x": ["b1"], "u": ["b1"], "v": ["c1"], "y": ["u1+v1"], "z": ["c1"]},
          decoders={("R5", "c"): ["y1-x1"], ("R6", "b"): ["y1-z1"]}),
    _spec("any", {"coding", "routing"},
          {"a": 1, "b": 1, "c": 1, "d": 1}, 2,
          {"x": ["0", "a1"], "u": ["b1", "0"], "v": ["0", "c1"],
           "y": ["u1", "v2"], "z": ["d1", "0"]}),
    _spec("any", {"coding"},
          {"a": 2, "b": 2, "c": 2, "d": 2}, 3,
          {"x": ["a1", "a2", "b2"], "u": ["b1", "b2", "0"], "v": ["c1", "c2", "0"],
           "y": ["v1", "u1", "u2+v2"], "z": ["d1", "d2", "c2"]}),
]

_FANO = [
    _spec("any", {"coding", "linear-odd", "routing"}, {"b": 1, "c": 1}, 1,
          {"w": ["b1"], "y": ["c1"], "x": ["y1"], "z": ["w1"]}),
    _spec("any", {"coding", "linear-odd", "routing"}, {"a": 1, "c": 1}, 1,
          {"w": ["a1"], "y": ["c1"], "x": ["y1"], "z": ["w1"]}),
    _spec("any", {"coding", "linear-odd", "routing"}, {"a": 1, "b": 1}, 1,
          {"w": ["a1"], "y": ["b1"], "x": ["y1"], "z": ["w1"]}),
    _spec("any", {"coding", "linear-odd", "routing"}, {"b": 2}, 1,
          {"w": ["b2"], "y": ["b1"], "x": ["y1"], "z": ["w1"]}),
    _spec("even", {"coding"}, {"a": 1, "b": 1, "c": 1}, 1,
          {"w": ["a1+b1"], "y": ["b1+c1"], "x": ["w1+y1"], "z": ["w1+c1"]}),
    _spec("odd", {"linear-odd"}, {"a": 3, "b": 2, "c": 2}, 3,
          {"w": ["a1+b1", "a2+b2", "a3"],
           "y": ["b1+c1", "b2+c2", "b1"],
           "x": ["w1-y1", "w2-y2", "w2"],
           "z": ["w1-c1", "w2+c2", "w3"]}),
    _spec("odd", {"linear-odd"}, {"a": 2, "b": 2, "c": 3}, 3,
          {"w": ["a1+b1", "a2+b2", "b2"],
           "y": ["b1+c1", "b2+c2", "c3"],
           "x": ["w1-y1", "w2-y2", "y3"],
           "z": ["w1-c1", "w2-2w3-c2", "c1"]}),
    _spec("odd", {"linear-odd"}, {"a": 4, "b": 4, "c": 4}, 5,
          {"w": ["a1+b1", "a2+b2", "a3+b3", "a4+b4", "b1+b4"],
           "y": ["c1-b1", "c2-b2", "c3+b3", "c4+b4", "b2"],
           "x": ["w1+y1", "w2+y2", "y3-w3", "y4-w4", "w3"],
           "z": ["w1+c1", "w2+c2", "w3+c3", "w4+c4", "w5+c4"]}),
]

_NONFANO = [
    _spec("odd", {"coding"}, {"a": 1, "b": 1, "c": 1}, 1,
          {"w": ["a1+b1"], "x": ["a1+c1"], "y": ["b1+c1"], "z": ["a1+b1+c1"]},
          decoders={("R12", "c"): ["z1-w1"],
                    ("R13", "b"): ["z1-x1"],
                    ("R14", "a"): ["z1-y1"],
                    ("R15", "c"): ["1/2*x1+1/2*y1-1/2*w1"]}),
    _spec("any", {"coding", "linear-even"}, {"a": 2, "b": 2, "c": 1}, 2,
          {"w": ["a1", "b1"], "x": ["a1+c1", "a2"],
           "y": ["b1+c1", "b2"], "z": ["a1+b1+c1", "a2+b2"]}),
    _spec("any", {"coding", "linear-even"}, {"a": 2, "b": 1, "c": 2}, 2,
          {"w": ["a1+b1", "a2"], "x": ["a1", "c1"],
           "y": ["b1+c1", "c2"], "z": ["a1+b1+c1", "a2+c2"]}),
    _spec("any", {"coding", "linear-even"}, {"a": 1, "b": 2, "c": 2}, 2,
          {"w": ["a1+b1", "b2"], "x": ["a1+c1", "c2"],
           "y": ["c1", "b1"], "z": ["a1+b1+c1", "b2+c2"]}),
    _spec("any", {"coding", "linear-even", "routing"}, {"c": 1}, 1,
          {"w": ["0"], "x": ["0"], "y": ["c1"], "z": ["c1"]}),
    _spec("any", {"coding", "linear-even", "routing"}, {"a": 1}, 1,
          {"w": ["0"], "x": ["0"], "y": ["0"], "z": ["a1"]}),
    _spec("any", {"coding", "linear-even", "routing"}, {"b": 1}, 1,
          {"w": ["0"], "x": ["0"], "y": ["0"], "z": ["b1"]}),
]

_VAMOS = [
    _spec("any", {"routing", "linear"}, {}, 1,
          {"w": ["0"], "x": ["0"], "y": ["0"], "z": ["0"]}),
    _spec("any", {"routing", "linear"}, {"a": 1}, 1,
          {"w": ["0"], "x": ["a1"], "y": ["a1"], "z": ["a1"]}),
    _spec("any", {"routing", "linear"}, {"d": 1}, 1,
          {"w": ["d1"], "x": ["d1"], "y": ["d1"], "z": ["d1"]}),
    _spec("any", {"routing", "linear"}, {"a": 1, "c": 1}, 1,
          {"w": ["c1"], "x": ["a1"], "y": ["a1"], "z": ["a1"]}),
    _spec("any", {"routing", "linear"}, {"b": 2}, 1,
          {"w": ["b1"], "x": ["b1"], "y": ["b2"], "z": ["b2"]}),
    _spec("any", {"routing", "linear"}, {"c": 2}, 1,
          {"w": ["c1"], "x": ["c1"], "y": ["c2"], "z": ["c2"]}),
    _spec("any", {"linear"}, {"a": 1, "b": 1, "c": 1}, 1,
          {"w": ["a1+c1"], "x": ["a1"], "y": ["a1+b1"], "z": ["a1+b1"]}),
    _spec("any", {"linear"}, {"b": 1, "c": 1, "d": 1}, 1,
          {"w": ["b1+d1"], "x": ["b1+d1"], "y": ["b1+c1+d1"], "z": ["c1"]}),
    _spec("any", {"linear"}, {"a": 1, "c": 2}, 1,
          {"w": ["c1"], "x": ["a1"], "y": ["a1+c2"], "z": ["a1+c2"]}),
    _spec("any", {"linear"}, {"b": 2, "d": 1}, 1,
          {"w": ["b1+d1"], "x": ["b1+d1"], "y": ["b2+d1"], "z": ["b2+d1"]}),
    _spec("any", {"linear"}, {"a": 2, "b": 2, "c": 1, "d": 2}, 2,
          {"w": ["b2+d1", "c1+d2"],
           "x": ["a1+d1", "a2+b2+c1+d2"],
           "y": ["a1+b1+d1", "a2+d2"],
           "z": ["a1+b1", "a2+c1"]}),
    _spec("any", {"linear"}, {"a": 2, "b": 1, "c": 2, "d": 2}, 2,
          {"w": ["c1+d1", "b1+d2"],
           "x": ["a1+c1+d1", "a2+d2"],
           "y": ["a1+d1", "a2+b1+c2+d2"],
           "z": ["a1+c2", "a2+b1"]}),
]

_CODE_SPECS: dict[str, list[BuiltinCodeSpec]] = {
    net_id: [make(builtin_network(net_id).messages) for make in makers]
    for net_id, makers in (
        ("gbutterfly", _GB), ("fano", _FANO), ("nonfano", _NONFANO), ("vamos", _VAMOS)
    )
}

_DEFAULT_FIELD = {"even": GF2, "odd": GF3, "any": GF2}


def builtin_code_specs(net_id: str) -> list[BuiltinCodeSpec]:
    if net_id not in _CODE_SPECS:
        raise KeyError(f"no bundled codes for network {net_id!r}")
    return list(_CODE_SPECS[net_id])


def instantiate_builtin(
    net: Network, spec: BuiltinCodeSpec, fld: PrimeField | None = None
) -> BuiltinCode:
    fld = fld or _DEFAULT_FIELD[spec.characteristic]
    code = build_code(net, fld, spec.dims, spec.edge_dim, spec.edges, spec.decoders)
    return BuiltinCode(spec.label, spec.characteristic, spec.region_classes, code)


def builtin_codes(net_id: str, fld: PrimeField | None = None) -> list[BuiltinCode]:
    """Every bundled code for a network.

    With ``fld`` omitted, each code is instantiated over a default field
    of its claimed characteristic class (GF(2) for ``even``/``any``,
    GF(3) for ``odd``); pass a field to override.
    """
    net = builtin_network(net_id)
    return [instantiate_builtin(net, s, fld) for s in builtin_code_specs(net_id)]


# ---------------------------------------------------------------------------
# code files

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def code_to_json(net: Network, code: Code) -> dict:
    """The code file document of a code on a bundled network.

    The document names its network only, so a code on any other network
    is refused rather than written as one that loads a bundled network.
    """
    validate_code(net, code)
    if net.name not in NETWORK_IDS or builtin_network(net.name) != net:
        raise ValueError(
            f"network {net.name!r} is not a bundled network; a code file for it "
            "must name its network file in network_file"
        )
    rates = code.rates
    doc: dict = {
        "network": code.network,
        "message_dims": dict(rates.message_dims),
        "edge_dim": rates.edge_dim,
    }
    if isinstance(code, LinearCode):
        doc["field"] = {"modulus": code.field.p}
        kind, dump = "matrix", lambda m, _: [list(row) for row in m.entries]
    else:
        doc["alphabet"] = base = code.alphabet
        kind = "table"

        def dump(table: np.ndarray, width: int) -> list[str]:  # one line per distinct key
            keys = table.tolist()
            places = [base**j for j in reversed(range(width))]
            line = {k: "".join(_DIGITS[k // place % base] for place in places) for k in set(keys)}
            return list(map(line.__getitem__, keys))

    def entry(node: str, fn, width: int) -> dict:
        return {"inputs": [name for name, _ in _input_layout(net, rates, node)], kind: dump(fn, width)}

    functions, decoders = _functions(code)
    n = rates.edge_dim
    doc["edges"] = {label: entry(_tail(net, label), fn, n) for label, fn in functions.items()}
    if decoders:
        doc["decoders"] = {
            f"{node}/{msg}": entry(node, fn, rates.message_dims[msg])
            for (node, msg), fn in decoders.items()
        }
    return doc


def _permute_columns(
    matrix_rows: list[list[int]], inputs: list[str], layout: list[tuple[str, int]]
) -> list[list[int]]:
    """Reorder columns given in ``inputs`` block order into ``layout`` order."""
    names = [name for name, _ in layout]
    if inputs == names:
        return matrix_rows
    if sorted(inputs) != sorted(names):
        raise ValueError(
            f"listed inputs {inputs} do not match the node's available symbols {names}"
        )
    widths = dict(layout)
    cols = _columns(_offsets((name, widths[name]) for name in inputs), names)
    # a row of the wrong length stays as it is, for the matrix check to reject
    return [[row[c] for c in cols] if len(row) == len(cols) else row for row in matrix_rows]


class _Table(NamedTuple):
    """A table's distinct lines in first-occurrence order, and each of
    its entries' position among them."""

    lines: list[str]
    index: np.ndarray


def _compact_table(obj: dict) -> dict:
    """``json.loads`` object hook: a ``"table"`` that is a list of strings
    becomes a :class:`_Table` as soon as its object closes, so a parsed
    document holds the strings of one table at a time.  Any other value
    is left for the parser to refuse."""
    table = obj.get("table")
    if type(table) is list and all(type(line) is str for line in table):
        positions = dict.fromkeys(table)
        for i, line in enumerate(positions):
            positions[line] = i
        index = np.fromiter(
            map(positions.__getitem__, table), _compact(len(positions), np.int64), len(table)
        )
        obj["table"] = _Table(list(positions), index)
    return obj


_JSON_TYPE_NAMES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer",
    float: "a number", bool: "a boolean", type(None): "null", _Table: "a list",
}


# stands for a field absent from its JSON object
_MISSING = object()


def _json_typed(value, kind: type, what: str):
    """``value`` if it has the JSON type ``kind`` (booleans are not
    integers), else a ValueError naming ``what``, also when ``value`` is
    ``_MISSING``."""
    if value is _MISSING:
        raise ValueError(f"missing {what}")
    if type(value) is not kind:
        raise ValueError(
            f"{what} must be {_JSON_TYPE_NAMES[kind]}, "
            f"not {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}"
        )
    return value


def _json_list(value, kind: type, what: str) -> list:
    """A JSON list whose items all have the JSON type ``kind``."""
    if not all(type(item) is kind for item in _json_typed(value, list, what)):
        for item in value:  # name the first item of the wrong type
            _json_typed(item, kind, f"an entry of {what}")
    return value


def write_code_file(path: str | Path, net: Network, code: Code) -> None:
    Path(path).write_text(json.dumps(code_to_json(net, code), indent=2, sort_keys=True) + "\n")


def read_code_file(path: str | Path) -> tuple[Network, Code]:
    """Materialize a code and the network it names from a JSON code file.

    Each table is cut to its distinct lines and an index as its JSON
    object closes, so a load holds the file's text plus its largest
    table, not every table's lines at once."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), object_hook=_compact_table)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to parse") from None
    _json_typed(doc, dict, "a code file")
    if "network_file" in doc:
        net_path = Path(_json_typed(doc["network_file"], str, "network_file"))
        if not net_path.is_absolute():
            net_path = path.parent / net_path
        name = _json_typed(doc.get("network", "custom"), str, "network")
        net = parse_network(net_path.read_text(), name=name)
    else:
        net = builtin_network(_json_typed(doc.get("network", _MISSING), str, "network"))
    dims = _json_typed(doc.get("message_dims", _MISSING), dict, "message_dims")
    for name, k in dims.items():
        _json_typed(k, int, f"message_dims[{name!r}]")
    rates = rate_spec(net, dims, _json_typed(doc.get("edge_dim", _MISSING), int, "edge_dim"))

    is_linear = "field" in doc
    if is_linear:
        fspec = _json_typed(doc["field"], dict, "field")
        if "modulus" in fspec:
            fld = PrimeField(_json_typed(fspec["modulus"], int, "field modulus"))
        elif fspec.get("characteristic") in ("even", "odd"):
            fld = _DEFAULT_FIELD[fspec["characteristic"]]
        else:
            raise ValueError("field must give a modulus or a characteristic")
    else:
        alphabet = _json_typed(doc.get("alphabet", _MISSING), int, "alphabet")
        if alphabet < 2:  # before any line is decoded with it
            raise ValueError("alphabet size must be at least 2")

    def parse(entry: dict, node: str, what: str, slot: str, out_width: int):
        _json_typed(entry, dict, what)
        inputs = _json_list(entry.get("inputs", _MISSING), str, f"{what} inputs")
        layout = _input_layout(net, rates, node)
        if is_linear:
            rows = _json_list(entry.get("matrix", _MISSING), list, f"{what} matrix")
            for row in rows:
                _json_list(row, int, f"{what} matrix row")
            rows = _permute_columns(rows, inputs, layout)
            return mat(fld, rows, cols=sum(w for _, w in layout))
        # Table domains cannot be column-permuted after the fact, so
        # the listed inputs must already be in the node's layout order.
        names = [name for name, _ in layout]
        if inputs != names:
            raise ValueError(
                f"table inputs {inputs} must be listed in the node's input order {names}"
            )
        table = entry.get("table", _MISSING)
        if type(table) is not _Table:  # the hook compacts every list of strings
            _json_list(table, str, f"{what} table")  # so this raises
        if power_exceeds(alphabet, out_width, 2**63 - 1):  # keys are int64
            raise ValueError(f"{slot} table outputs ({alphabet}^{out_width} values) are too wide")
        keys = []  # each distinct line, decoded once to its key
        for line in table.lines:
            if not set(line).issubset(_DIGITS):
                raise ValueError(f"{what} table line {line!r} is not digits and lowercase letters")
            if len(line) != out_width:
                raise ValueError(f"{slot} table has wrong output width")
            key = 0
            for symbol in map(_DIGITS.index, line):
                if symbol >= alphabet:
                    raise ValueError(f"{slot} table has a symbol outside the alphabet")
                key = key * alphabet + symbol
            keys.append(key)
        dtype = _compact(alphabet**out_width, np.int64)  # as the verifier gathers from it
        return np.array(keys, dtype).take(table.index)

    functions = {}
    for label, entry in _json_typed(doc.get("edges", _MISSING), dict, "edges").items():
        if label not in net.coded_labels():
            raise ValueError(f"unknown edge label {label!r}")
        what = f"edge {label!r}"
        functions[label] = parse(entry, _tail(net, label), what, what, rates.edge_dim)
    decoders = {}
    for key, entry in _json_typed(doc.get("decoders", {}), dict, "decoders").items():
        node, _, msg = key.partition("/")
        if (node, msg) not in net.demands:  # before its table's width is looked up
            raise ValueError(f"decoder {node}/{msg} is not a demand of the network")
        width = rates.message_dims[msg]
        decoders[(node, msg)] = parse(entry, node, f"decoder {key!r}", f"decoder {key}", width)
    code: Code = (
        LinearCode(net.name, fld, rates, functions, decoders)
        if is_linear
        else TableCode(net.name, alphabet, rates, functions, decoders)
    )
    validate_code(net, code)
    return net, code
