"""Linear rank inequality expressions and violation search.

An expression is a rational combination of atoms ``H(S|T)`` and
``I(S;T|U)`` over named variables.  Evaluated on a subspace assignment
(entropy of a variable set = dimension of the subspace join), an
inequality stored in slack orientation ``RHS - LHS >= 0`` is violated
exactly when its value is negative.

Four inequalities are bundled: ``ingleton`` and ``zhang-yeung`` (valid
for subspace ranks over every field, and built from rateregion's
coefficient vectors, which the vamos transfer reads too), and two
characteristic-dependent inequalities, ``oddLRI`` (valid over odd
characteristic, and over any field in ambient dimension <= 2) and
``evenLRI`` (the mirror claim for even characteristic).  Violation
search supports three modes:

- ``catalog``: try the bundled counterexample assignments;
- ``exhaustive``: scan every assignment of enumerated subspaces to the
  expression's variables, in lexicographic order, returning the first
  violator;
- ``sample``: seeded uniform sampling with a reproducible generator
  (the splitmix sequence, drawn only by :func:`_sample_tiles`; the i-th
  draw depends only on seed and i, so runs are reproducible across
  implementations and chunk sizes).

Every mode hands its slack values, in order and in pieces, to one loop
that names the first violator and takes the least slack over whole
blocks through the violator's block (:func:`search_violation_detailed`).

Every mode weighs joint entropies by the integers of one plan
(:func:`_integer_plan`, computed once per expression and variable
tuple); catalog mode sums them per assignment (:func:`_plan_value`,
which :func:`evaluate` shares).  In the exhaustive and sample modes each
term small enough is tabulated once per search over its own variables
(:func:`_term_tables`): up to ``_CHUNK`` entries when exhaustive, up to
one block's trials when sampling.  Tables and slack are summed in the
narrowest of int16, int32 and int64 that a bound on the slack proves
safe (:func:`_slack_dtype`).  A table is read by one gather per
assignment; a larger term gathers the join table once per further
variable and ends with one gather of the lattice's int8 ``join_dims``.
Sample mode compiles each search once into a fixed list of numpy calls
over buffers allocated once (:func:`_slack_program`), which draws and
evaluates one cache-sized tile of trials at a time, one index row per
variable, and allocates nothing per tile; a witness is named from the
tile that drew it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import product
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .ff import PrimeField, PrimeFieldMatrix, mat_rank, mat_stack, mat
from .rateregion import INGLETON_COEFFS, ZHANG_YEUNG_COEFFS, TransferCoefficients
from .subspace import (
    SubspaceAssignment,
    SubspaceLattice,
    entropy,
    lattice,
    lattice_size,
    subspace_span,
)

DEFAULT_BUDGET = 2_000_000
DEFAULT_SAMPLES = 100_000

# Sample mode draws and evaluates a block in tiles of this many trials,
# so that a tile's index columns, scratch and slack stay in cache.
_SAMPLE_TILE = 1 << 13
# Assignments per exhaustive block and largest tabulated term; a sample
# block is _CHUNK // nvars trials (at least one).
_CHUNK = 1 << 21


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class HAtom:
    """H(S | T); T may be empty."""

    subset: frozenset[str]
    given: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.subset:
            raise ValueError("H() needs at least one variable")

    def variables(self) -> frozenset[str]:
        return self.subset | self.given


@dataclass(frozen=True)
class IAtom:
    """I(S ; T | U); U may be empty."""

    left: frozenset[str]
    right: frozenset[str]
    given: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("I(;) needs variables on both sides")

    def variables(self) -> frozenset[str]:
        return self.left | self.right | self.given


Atom = HAtom | IAtom


@dataclass(frozen=True)
class EntropyExpression:
    terms: tuple[tuple[Fraction, Atom], ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, atom in self.terms:
            out |= atom.variables()
        return out


def h(coeff, *subset: str, given: Sequence[str] = ()) -> tuple[Fraction, HAtom]:
    return Fraction(coeff), HAtom(frozenset(subset), frozenset(given))


def i(coeff, left: Sequence[str], right: Sequence[str], given: Sequence[str] = ()) -> tuple[Fraction, IAtom]:
    return Fraction(coeff), IAtom(frozenset(left), frozenset(right), frozenset(given))


def expression(terms: Iterable[tuple[Fraction, Atom]]) -> EntropyExpression:
    return EntropyExpression(tuple((Fraction(c), a) for c, a in terms))


def canonicalize(expr: EntropyExpression) -> dict[frozenset[str], Fraction]:
    """Expand every atom into joint entropies H(subset) and merge.

    Uses H(S|T) = H(S+T) - H(T) and
    I(S;T|U) = H(S+U) + H(T+U) - H(S+T+U) - H(U); the empty subset has
    entropy zero and is dropped.  Zero coefficients are removed.
    """
    acc: dict[frozenset[str], Fraction] = {}

    def add(subset: frozenset[str], coeff: Fraction) -> None:
        if not subset:
            return
        acc[subset] = acc.get(subset, Fraction(0)) + coeff

    for coeff, atom in expr.terms:
        if isinstance(atom, HAtom):
            add(atom.subset | atom.given, coeff)
            add(atom.given, -coeff)
        else:
            add(atom.left | atom.given, coeff)
            add(atom.right | atom.given, coeff)
            add(atom.left | atom.right | atom.given, -coeff)
            add(atom.given, -coeff)
    return {k: v for k, v in acc.items() if v != 0}


def evaluate(expr: EntropyExpression, assign: SubspaceAssignment) -> Fraction:
    """Exact value of the expression on a subspace assignment."""
    missing = expr.variables() - set(assign.spaces)
    if missing:
        raise KeyError(f"assignment lacks variables {sorted(missing)}")
    variables = tuple(sorted(expr.variables()))
    plan, denom = _integer_plan(expr, variables)
    return Fraction(_plan_value(plan, variables, assign), denom)


# ---------------------------------------------------------------------------
# bundled inequalities (slack orientation: RHS - LHS, nonnegative iff valid)

# a1..a10 of rateregion's TransferCoefficients, atom I(l;r|g) written "lrg".
_TRANSFER_ATOMS = ("AB", "ABC", "ACB", "BCA", "ABD", "ADB", "BDA", "CD", "CDA", "CDB")


def _transfer_slack(c: TransferCoefficients) -> EntropyExpression:
    """a2 I(A;B|C) + ... + a10 I(C;D|B) - a1 I(A;B), zero terms left out."""
    signed = zip((-c.a[0],) + c.a[1:], _TRANSFER_ATOMS)
    return expression(i(a, atom[0], atom[1], given=atom[2:]) for a, atom in signed if a)


_INGLETON = _transfer_slack(INGLETON_COEFFS)
_ZHANG_YEUNG = _transfer_slack(ZHANG_YEUNG_COEFFS)

_ODD_LRI = expression([
    h(-2, "A"), h(-1, "B"), h(-2, "C"),
    h(1, "W"), h(1, "X"), h(1, "Y"), h(1, "Z"),
    h(2, "A", given=["Z", "Y"]),
    h(1, "B", given=["X", "Z"]),
    h(2, "C", given=["A", "X"]),
    h(3, "X", given=["W", "Y"]),
    h(3, "Z", given=["W", "C"]),
    h(5, "W", given=["A", "B"]),
    h(5, "Y", given=["B", "C"]),
    h(5, "A"), h(5, "B"), h(5, "C"), h(-5, "A", "B", "C"),
])

_EVEN_LRI = expression([
    h(-2, "A"), h(-3, "B"), h(-2, "C"),
    h(1, "W"), h(1, "X"), h(1, "Y"), h(3, "Z"),
    h(2, "A", given=["Y", "Z"]),
    h(3, "B", given=["X", "Z"]),
    h(1, "C", given=["W", "Z"]),
    h(2, "W", given=["A", "B"]),
    h(4, "X", given=["A", "C"]),
    h(3, "Y", given=["B", "C"]),
    h(6, "Z", given=["A", "B", "C"]),
    h(1, "C", given=["W", "X", "Y"]),
    h(7, "A"), h(7, "B"), h(7, "C"), h(-7, "A", "B", "C"),
])

_BUILTINS = {
    "ingleton": _INGLETON,
    "zhang-yeung": _ZHANG_YEUNG,
    "oddLRI": _ODD_LRI,
    "evenLRI": _EVEN_LRI,
}
INEQUALITY_IDS = tuple(_BUILTINS)


def builtin_inequality(ineq_id: str) -> EntropyExpression:
    """A bundled inequality as a slack expression (RHS - LHS >= 0)."""
    if ineq_id not in _BUILTINS:
        raise KeyError(f"unknown inequality {ineq_id!r}")
    return _BUILTINS[ineq_id]


def expected_violation(ineq_id: str, characteristic_class: str, dim: int) -> bool:
    """Whether a violating subspace assignment is claimed to exist.

    ``oddLRI`` can only fail over even characteristic in ambient
    dimension >= 3; ``evenLRI`` only over odd characteristic in
    dimension >= 3; the other two hold for subspace ranks everywhere.
    """
    if ineq_id == "oddLRI":
        return characteristic_class == "even" and dim >= 3
    if ineq_id == "evenLRI":
        return characteristic_class == "odd" and dim >= 3
    if ineq_id in ("ingleton", "zhang-yeung"):
        return False
    raise KeyError(f"unknown inequality {ineq_id!r}")


def coordinate_assignment(q: int, d: int) -> SubspaceAssignment:
    """The seven-variable coordinate assignment in GF(q)^d (d >= 3):
    A, B, C are the first three axes; W, X, Y are the pairwise sums;
    Z is the sum of all three.  This single assignment witnesses the
    characteristic-dependent failures of both bundled LRIs (oddLRI over
    even characteristic, evenLRI over odd characteristic)."""
    if d < 3:
        raise ValueError("coordinate assignment needs ambient dimension >= 3")

    def vec(*ones: int) -> list[int]:
        return [1 if j in ones else 0 for j in range(d)]

    spans = {
        "A": [vec(0)],
        "B": [vec(1)],
        "C": [vec(2)],
        "W": [vec(0, 1)],
        "X": [vec(0, 2)],
        "Y": [vec(1, 2)],
        "Z": [vec(0, 1, 2)],
    }
    return SubspaceAssignment(
        PrimeField(q), d, {k: subspace_span(q, d, v) for k, v in spans.items()}
    )


def catalog_assignments(q: int, d: int) -> list[SubspaceAssignment]:
    if d >= 3:
        return [coordinate_assignment(q, d)]
    return []


# ---------------------------------------------------------------------------
# violation search


# Call i (1-based) of the splitmix sequence outputs mix(seed + i * _GAMMA)
# mod 2^64, mix being the standard two-round multiplicative mixer, so any
# output can be computed directly; :func:`_sample_tiles` draws it.
MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class SearchOutcome:
    witness: SubspaceAssignment | None
    checked: int
    min_slack: Fraction | None


@cache
def _integer_plan(expr: EntropyExpression, variables: tuple[str, ...]):
    """Canonical form as integer weights over variable-position tuples,
    computed once per (expression, variable tuple)."""
    canon = canonicalize(expr)
    denom = math.lcm(*(c.denominator for c in canon.values())) if canon else 1
    position = {v: k for k, v in enumerate(variables)}
    plan = tuple(
        (int(coeff * denom), tuple(sorted(position[v] for v in subset)))
        for subset, coeff in canon.items()
    )
    return plan, denom


def _plan_value(plan, variables: Sequence[str], assign: SubspaceAssignment) -> int:
    """Sum of weight * H(subset) over the plan: the value times its denominator."""
    return sum(w * entropy(assign, [variables[k] for k in pos]) for w, pos in plan)


def _slack_dtype(plan, d: int):
    """The narrowest of int16, int32 and int64 that holds every partial
    sum of the plan's terms over GF(q)^d.

    Every dimension lies between 0 and d, so no partial sum exceeds
    B = sum |weight| * max(d, 1) in absolute value; the max keeps every
    weight representable when d is 0.
    """
    bound = sum(abs(w) for w, _ in plan) * max(d, 1)
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _term_tables(plan, lat: SubspaceLattice, limit: int, dtype):
    """Tabulate every term of at most ``limit`` entries over its own variables.

    Terms are taken largest first; each tabulated term is summed into
    the table of an earlier term whose variables contain its own (its
    host), or starts a table of its own.  A k-variable term is one
    gather of ``join_dims`` at the (k-1)-fold join indices, cast to
    ``dtype`` (:func:`_slack_dtype`) before its weight multiplies it.
    Returns the tables, each ``weight * dims[k-fold join]`` summed over
    its terms and keyed by the host's sorted variable positions (one
    axis per position), and the ``(weight, positions)`` terms too large
    to tabulate.
    """
    size = len(lat)
    jt, jd = lat.join_table, lat.join_dims
    joined = [np.zeros((), dtype=np.int16)]  # joined[k]: join index of k variables, (size,)*k
    tables: dict[tuple[int, ...], np.ndarray] = {}
    large = []
    for weight, positions in sorted(plan, key=lambda term: -len(term[1])):
        if size ** len(positions) > limit:
            large.append((weight, positions))
            continue
        while len(joined) < len(positions):
            joined.append(jt[joined[-1]])
        host = next((t for t in tables if set(positions) <= set(t)), positions)
        term = np.multiply(jd[joined[len(positions) - 1]], dtype(weight), dtype=dtype)
        if host in tables:
            tables[host] += term.reshape([size if p in positions else 1 for p in host])
        else:
            tables[host] = term
    return tables, large


def _slack_program(tables, large, lat: SubspaceLattice, idx: np.ndarray, dtype):
    """Compile the slack (scaled by the plan's denominator) of a batch of
    assignments into a fixed list of steps.

    ``idx`` holds one int64 row of subspace indices per variable.  Returns
    the steps, argument-free calls that read ``idx`` and write only into
    buffers allocated here, and the ``dtype`` buffer that they fill with
    the batch's slack; running the steps again after new indices are
    written into ``idx`` allocates nothing.  The tables of
    :func:`_term_tables` and the large terms are taken in sorted position
    order, and each walks its positions in one loop:

    - the first variable of a key of two or more positions is scaled by
      the lattice size once, and each leading pair is flattened once;
    - each further position extends a table's flat index, while a large
      term first gathers (int16) the join index of the positions so far
      from ``join_table``;
    - a table ends with one gather at its flat index, a large term with
      one gather of ``join_dims`` (int8) at its last pair, times its
      weight (a weight of +-1 is added or subtracted directly).
    """
    size = len(lat)
    n = idx.shape[1]
    jt, jd = lat.join_table.ravel(), lat.join_dims.ravel()
    slack, term = np.empty(n, dtype), np.empty(n, dtype)
    dims8 = np.empty(n, np.int8)
    joined = np.empty(n, np.int16)
    scaled, pair, flat = np.empty((3, n), np.int64)
    steps: list[partial] = []
    started = False

    def fold(table, at, weight=None):
        # slack (+)= table[at] for a table, or weight * join_dims[at]
        nonlocal started
        out = term if started else slack
        if weight is None:
            steps.append(partial(table.take, at, None, out, "clip"))
        else:
            steps.append(partial(jd.take, at, None, dims8, "clip"))
            if started and weight in (1, -1):
                steps.append(partial(np.add if weight == 1 else np.subtract, slack, dims8, slack, dtype=dtype))
                return
            steps.append(partial(np.multiply, dims8, dtype(weight), out, dtype=dtype))
        if started:
            steps.append(partial(np.add, slack, term, slack))
        started = True

    keys = [(host, table, None) for host, table in tables.items()]
    keys += [(positions, jd, weight) for weight, positions in large]
    scaled_for = paired = None
    for positions, table, weight in sorted(keys, key=lambda key: key[0]):
        if len(positions) == 1:  # row 0 of join_dims is dims
            fold(table, idx[positions[0]], weight)
            continue
        if positions[0] != scaled_for:
            scaled_for = positions[0]
            steps.append(partial(np.multiply, idx[positions[0]], size, scaled))
        if positions[:2] != paired:
            paired = positions[:2]
            steps.append(partial(np.add, scaled, idx[positions[1]], pair))
        at = pair
        for p in positions[2:]:
            if weight is not None:  # a large term joins the positions so far
                steps.append(partial(jt.take, at, None, joined, "clip"))
                at = joined
            # flat = at * size + idx[p]
            steps.append(partial(np.multiply, at, size, flat, dtype=np.int64))
            steps.append(partial(np.add, flat, idx[p], flat))
            at = flat
        fold(table, at, weight)
    if not started:
        steps.append(partial(slack.fill, 0))
    return steps, slack


def _slack_slabs(plan, lat: SubspaceLattice, nvars: int, chunk: int):
    """Slack of every assignment in lexicographic order, one slab at a time.

    A slab is the ``size**inner`` assignments that share the indices of
    the ``nvars - inner`` outermost variables, ``inner`` being as large
    as ``chunk`` allows.  The terms of at most ``chunk`` entries come
    tabulated from :func:`_term_tables` and reach a slab as views
    indexed by the slab's outer indices.  A larger term joins its outer
    subspaces once per slab and gathers ``join_dims`` of that join over
    the inner ones.  Slabs and tables are summed in the type of
    :func:`_slack_dtype`, and no array holds more than ``chunk``
    entries.  Yields the flat index of each slab's first assignment and
    the slab's flat slack values, in one buffer reused from slab to slab.
    """
    size = len(lat)
    jt, jd = lat.join_table, lat.join_dims
    dtype = _slack_dtype(plan, lat.d)
    inner = 0
    while inner < nvars and size ** (inner + 1) <= chunk:
        inner += 1
    outer = nvars - inner

    tables, large_terms = _term_tables(plan, lat, chunk, dtype)
    large = []
    for weight, positions in large_terms:
        outer_pos = [p for p in positions if p < outer]
        shape = [size if k in positions else 1 for k in range(outer, nvars)]
        inner_joins = np.zeros((), dtype=np.int16)
        for _ in range(len(positions) - len(outer_pos)):
            inner_joins = jt[inner_joins]
        large.append((dtype(weight), outer_pos, inner_joins, shape))
    # each table spread over all nvars axes (length 1 off its variables),
    # with the outer axes it is indexed by
    spread = [
        (table.reshape([size if k in host else 1 for k in range(nvars)]),
         [k in host for k in range(outer)])
        for host, table in tables.items()
    ]

    slab = np.empty((size,) * inner, dtype=dtype)
    flat = slab.reshape(-1)
    for k, at in enumerate(product(range(size), repeat=outer)):
        slab.fill(0)
        for table, used in spread:
            slab += table[tuple(a if u else 0 for a, u in zip(at, used))]
        for weight, outer_pos, inner_joins, shape in large:
            s = lat.join_indices(at[p] for p in outer_pos)
            slab += np.multiply(jd[s][inner_joins], weight, dtype=dtype).reshape(shape)
        yield k * flat.size, flat


def _sample_tiles(plan, lat: SubspaceLattice, nvars: int, seed: int, samples: int, block: int):
    """Compile a sample search into one program over buffers allocated
    once.  Terms of at most one block's trials (``block``) come
    tabulated from :func:`_term_tables`, built once.

    Each run of the program draws one tile of at most ``_SAMPLE_TILE``
    trials into an ``(nvars, tile)`` buffer, one row of subspace indices
    per variable (splitmix states from a step column and per-variable
    starts advanced by one tile, mixed in place with one scratch buffer,
    then reduced mod the lattice size), then runs :func:`_slack_program`
    over it.  The tiles are of equal length, so the last may evaluate
    fewer trials past ``samples`` than there are tiles; those are never
    yielded.  Returns the index buffer, viewed as int64, and an iterator
    over each tile's first trial index and the slack of trials 0 ..
    samples-1 in draw order; until the next tile is drawn, trial g has
    its indices in column ``g % tile`` of the buffer.
    """
    size = len(lat)
    dtype = _slack_dtype(plan, lat.d)
    # a table larger than one block's trials would cost more to build than it saves
    tables, large = _term_tables(plan, lat, min(block, samples), dtype)
    tile = -(-samples // -(-samples // _SAMPLE_TILE)) if samples else 1
    # trial t of the tile from trial ``done`` draws call (done + t) * nvars + 1 + p
    # for variable p, whose state is starts[p] + t * (nvars * gamma)
    starts = np.array([(seed + (1 + p) * _GAMMA) & MASK64 for p in range(nvars)], dtype=np.uint64)[:, None]
    stride = np.arange(tile, dtype=np.uint64)
    stride *= np.uint64(nvars * _GAMMA & MASK64)
    draws = np.empty((nvars, tile), dtype=np.uint64)
    scratch = np.empty_like(draws)
    steps = [partial(np.add, starts, stride, draws)]
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        steps.append(partial(np.right_shift, draws, np.uint64(shift), scratch))
        steps.append(partial(np.bitwise_xor, draws, scratch, draws))
        if mix is not None:
            steps.append(partial(np.multiply, draws, np.uint64(mix), draws))
    # draws mod size, as draws - draws // size * size: numpy's floor division
    # by a scalar is about three times faster than its remainder
    modulus = np.uint64(size)
    steps.append(partial(np.floor_divide, draws, modulus, scratch))
    steps.append(partial(np.multiply, scratch, modulus, scratch))
    steps.append(partial(np.subtract, draws, scratch, draws))
    rows = draws.view(np.int64)
    program, slack = _slack_program(tables, large, lat, rows, dtype)
    steps += program
    steps.append(partial(np.add, starts, np.uint64(tile * nvars * _GAMMA & MASK64), starts))

    def tiles():
        for done in range(0, samples, tile):
            for step in steps:
                step()
            yield done, slack[: samples - done]

    return rows, tiles()


def search_violation_detailed(
    expr: EntropyExpression,
    q: int,
    d: int,
    mode: str = "catalog",
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    budget: int = DEFAULT_BUDGET,
) -> SearchOutcome:
    """Search for an assignment with negative slack; see module docs.

    Catalog mode tries, in catalog order, the bundled assignments that
    hold every variable of the expression.  Exhaustive mode scans
    assignments in lexicographic order over the expression's variables
    sorted by name, each ranging over the deterministic subspace
    enumeration, and returns the first (hence lexicographically
    smallest) violator.  Sample mode draws variable indices from the
    splitmix sequence: trial t (0-based) uses calls t*nvars+1 ..
    t*nvars+nvars, in sorted variable order.

    In every mode ``min_slack`` is the least slack over consecutive
    blocks through the block that holds the witness: blocks of one
    assignment in catalog mode, of ``_CHUNK`` assignments when
    exhaustive, and of ``_CHUNK // nvars`` trials (at least one) when
    sampling.
    """
    if mode not in ("catalog", "exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}; expected catalog, exhaustive or sample")
    for name, value in (("dimension", d), ("samples", samples), ("budget", budget)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    variables = tuple(sorted(expr.variables()))
    plan, denom = _integer_plan(expr, variables)
    if mode == "catalog":
        held = [a for a in catalog_assignments(q, d) if set(variables) <= set(a.spaces)]
        pieces = ((k, np.array([_plan_value(plan, variables, a)])) for k, a in enumerate(held))
        block, end, witness = 1, len(held), held.__getitem__
    else:
        size = lattice_size(q, d)
        nvars = len(variables)
        total = size**nvars
        if mode == "exhaustive" and total > budget:
            raise ValueError(f"{size}^{nvars} = {total} assignments exceed the budget {budget}")
        lat = lattice(q, d)
        if mode == "exhaustive":
            pieces = _slack_slabs(plan, lat, nvars, _CHUNK)
            block, end = _CHUNK, total
            indices = lambda g: [(g // size ** (nvars - 1 - k)) % size for k in range(nvars)]
        else:
            block, end = max(_CHUNK // max(nvars, 1), 1), samples
            rows, pieces = _sample_tiles(plan, lat, nvars, seed, samples, block)
            indices = lambda g: rows[:, g % rows.shape[1]]

        def witness(g: int) -> SubspaceAssignment:
            spaces = {v: lat.spaces[int(j)] for v, j in zip(variables, indices(g))}
            return SubspaceAssignment(PrimeField(q), d, spaces)

    g = low = found = None
    for start, slack in pieces:
        least = int(slack[: end - start].min())
        if g is None and least < 0:
            g = start + int(np.argmax(slack < 0))
            found = witness(g)  # while the piece that holds g is current
            # min_slack covers whole blocks, through the witness's block,
            # which may end inside this piece
            end = min((g // block + 1) * block, end)
            least = int(slack[: end - start].min())
        low = least if low is None else min(low, least)
        if start + len(slack) >= end:
            break
    return SearchOutcome(
        found,
        end if g is None else g + 1,
        None if low is None else Fraction(low, denom),
    )


# ---------------------------------------------------------------------------
# rank-sum lemma checker


@dataclass(frozen=True)
class RankLemmaInstance:
    """Data for the rank-sum bound: for a k x k matrix M, an r x k
    matrix N and distinct scalars l_1..l_t,

        sum_i rank([M - l_i I; N]) >= (t - 1) k + rank(N).
    """

    m_matrix: PrimeFieldMatrix
    n_matrix: PrimeFieldMatrix
    lambdas: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m_matrix.rows != self.m_matrix.cols:
            raise ValueError("M must be square")
        if self.n_matrix.cols != self.m_matrix.cols:
            raise ValueError("N must have as many columns as M")
        if self.n_matrix.field != self.m_matrix.field:
            raise ValueError("M and N must share a field")
        p = self.m_matrix.field.p
        reduced = [l % p for l in self.lambdas]
        if len(set(reduced)) != len(reduced):
            raise ValueError("scalars must be distinct in the field")


@dataclass(frozen=True)
class RankSumResult:
    lhs: int
    rhs: int
    holds: bool


def check_rank_sum_lemma(inst: RankLemmaInstance) -> RankSumResult:
    fld = inst.m_matrix.field
    k = inst.m_matrix.rows
    lhs = 0
    for lam in inst.lambdas:
        shifted = mat(
            fld,
            [
                [(x - (lam if r == c else 0)) % fld.p for c, x in enumerate(row)]
                for r, row in enumerate(inst.m_matrix.entries)
            ],
            cols=k,
        )
        lhs += mat_rank(mat_stack(shifted, inst.n_matrix))
    rhs = (len(inst.lambdas) - 1) * k + mat_rank(inst.n_matrix)
    return RankSumResult(lhs, rhs, lhs >= rhs)
