"""Outside-in tracer for ncregions.

The tracer wraps public functions of the package from outside it: each
wrapper is patched into every ``ncregions`` module namespace that bound
the original, since modules import helpers by name (``from .ff import
mat_rref``).  A wrapper opens a span (name, start, end, parent, job id)
around the call.  Spans are aggregated in memory by (name, parent);
the coarse spans listed in ``KEPT`` are also kept one by one.  A span's
self time is its duration minus the time its child spans cover.

Nothing here runs unless :meth:`Tracer.install` is called, and only the
traced benchmark run calls it.
"""

from __future__ import annotations

import sys
import time
from math import comb

# layer -> (module, public function) pairs that are wrapped.
TARGETS = {
    "cli": [("cli", "main")],
    "netmodel": [
        ("netmodel", "builtin_network"),
        ("netmodel", "topological_order"),
        ("netmodel", "validate_network"),
        ("netmodel", "parse_network"),
    ],
    "ff": [
        ("ff", "mat_rref"),
        ("ff", "mat_rank"),
        ("ff", "mat_nullspace"),
        ("ff", "solve"),
        ("ff", "mat_mul"),
    ],
    "subspace": [("subspace", "lattice"), ("subspace", "join")],
    "rankineq": [("rankineq", "search_violation_detailed"), ("rankineq", "evaluate")],
    "codes": [
        ("codes", "read_code_file"),
        ("codes", "validate_code"),
        ("codes", "verify_solution"),
        ("codes", "verify_solution_exhaustive"),
        ("codes", "instantiate_builtin"),
        ("codes", "zero_fix"),
        ("codes", "is_routing"),
    ],
    "rateregion": [
        ("rateregion", "enumerate_vertices"),
        ("rateregion", "ensure_bounded"),
        ("rateregion", "contains"),
        ("rateregion", "builtin_region"),
        ("rateregion", "uniform_capacity"),
        ("rateregion", "average_capacity"),
        ("rateregion", "parse_hrep"),
    ],
}
LAYERS = tuple(TARGETS)
SPANS_OF = {layer: [f"{mod}.{fn}" for mod, fn in pairs] for layer, pairs in TARGETS.items()}

ELIM = ("ff.mat_rref", "ff.mat_rank", "ff.mat_nullspace", "ff.solve")

# Spans recorded one by one; all others are only aggregated.
KEPT = frozenset({
    "cli.main",
    "subspace.lattice",
    "rankineq.search_violation_detailed",
    "codes.read_code_file",
    "codes.verify_solution",
    "codes.verify_solution_exhaustive",
    "rateregion.enumerate_vertices",
    "rateregion.ensure_bounded",
})

COUNTERS = (
    "lattice_builds",
    "lattice_subspaces",
    "lattice_build_s",
    "rank_assignments",
    "rank_witnesses",
    "exh_assignments",
    "codes_invalid",
    "vertex_subsets",
    "vertices_found",
)


class Tracer:
    def __init__(self) -> None:
        self.job: int | None = None
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.aggregates: dict[tuple[str, str | None], list] = {}  # -> [calls, total, self]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id, job)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._lattices: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn):
        keep = name in KEPT
        on_exit = _ON_EXIT.get(name)
        stack = self.stack
        aggregates = self.aggregates
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans) if keep else None
            if keep:
                self.spans.append(None)  # reserve the id; filled on exit
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                key = (name, parent[0] if parent else None)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[2]
                if keep:
                    parent_id = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    self.spans[span_id] = (span_id, name, frame[1], end, parent_id, self.job)
            if on_exit is not None:
                on_exit(self, args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Patch a wrapper for every target into every ncregions namespace."""
        import importlib

        importlib.import_module("ncregions.cli")  # imports every layer
        namespaces = [m for n, m in sys.modules.items() if n == "ncregions" or n.startswith("ncregions.")]
        for layer_module, fn_name in (pair for pairs in TARGETS.values() for pair in pairs):
            original = getattr(sys.modules[f"ncregions.{layer_module}"], fn_name)
            wrapper = self._wrap(f"{layer_module}.{fn_name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
            "spans": [s for s in self.spans if s is not None],
            "counters": dict(self.counters),
        }


# -- counters read from results at the same boundaries ----------------------


def _lattice_exit(tracer: Tracer, args, result, duration) -> None:
    if id(result) not in tracer._lattices:  # a new lattice object: it was built
        tracer._lattices.add(id(result))
        tracer.counters["lattice_builds"] += 1
        tracer.counters["lattice_subspaces"] += len(result)
        tracer.counters["lattice_build_s"] += duration


def _search_exit(tracer: Tracer, args, result, duration) -> None:
    tracer.counters["rank_assignments"] += result.checked
    tracer.counters["rank_witnesses"] += result.witness is not None


def _verify_exit(tracer: Tracer, args, result, duration) -> None:
    tracer.counters["codes_invalid"] += not result.valid
    if result.assignments_checked is not None:
        tracer.counters["exh_assignments"] += result.assignments_checked


def _vertices_exit(tracer: Tracer, args, result, duration) -> None:
    h = args[0]
    tracer.counters["vertex_subsets"] += comb(len(h.halfspaces), h.dim)
    tracer.counters["vertices_found"] += len(result)


_ON_EXIT = {
    "subspace.lattice": _lattice_exit,
    "rankineq.search_violation_detailed": _search_exit,
    "codes.verify_solution": _verify_exit,
    "codes.verify_solution_exhaustive": _verify_exit,
    "rateregion.enumerate_vertices": _vertices_exit,
}


# -- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced child, by the names BENCHMARK.json uses."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    elim_in_join = 0
    for agg in trace["aggregates"]:
        name = agg["name"]
        calls[name] = calls.get(name, 0) + agg["calls"]
        self_s[name] = self_s.get(name, 0.0) + agg["self_s"]
        if name in ELIM and agg["parent"] == "subspace.join":
            elim_in_join += agg["calls"]
    c = trace["counters"]

    def n(*names: str) -> int:
        return sum(calls.get(x, 0) for x in names)

    def s(*names: str) -> float:
        return sum(self_s.get(x, 0.0) for x in names)


    out = {
        "subspace.lattice.builds": c["lattice_builds"],
        "subspace.lattice.subspaces": c["lattice_subspaces"],
        "subspace.lattice.build_s": c["lattice_build_s"],
        "subspace.lattice.build_share": _ratio(c["lattice_build_s"], wall_s),
        "subspace.join.calls": n("subspace.join"),
        "subspace.join.self_s": s("subspace.join"),
        "subspace.elim_per_join": _ratio(elim_in_join, n("subspace.join")),
        "ff.elim.calls": n(*ELIM),
        "ff.elim.self_s": s(*ELIM),
        "ff.elim.per_s": _ratio(n(*ELIM), s(*ELIM)),
        "ff.mul.calls": n("ff.mat_mul"),
        "ff.mul.self_s": s("ff.mat_mul"),
        "rankineq.search.calls": n("rankineq.search_violation_detailed"),
        "rankineq.search.self_s": s("rankineq.search_violation_detailed"),
        "rankineq.assignments": c["rank_assignments"],
        "rankineq.assignments_per_s": _ratio(c["rank_assignments"], s("rankineq.search_violation_detailed")),
        "rankineq.witnesses": c["rank_witnesses"],
        "rankineq.evaluate.calls": n("rankineq.evaluate"),
        "rankineq.evaluate.self_s": s("rankineq.evaluate"),
        "codes.verify_exh.calls": n("codes.verify_solution_exhaustive"),
        "codes.verify_exh.self_s": s("codes.verify_solution_exhaustive"),
        "codes.exh_assignments": c["exh_assignments"],
        "codes.exh_assignments_per_s": _ratio(c["exh_assignments"], s("codes.verify_solution_exhaustive")),
        "codes.load.self_s": s("codes.read_code_file"),
        "codes.validate.calls": n("codes.validate_code"),
        "codes.validate.self_s": s("codes.validate_code"),
        "codes.verify_alg.calls": n("codes.verify_solution"),
        "codes.verify_alg.self_s": s("codes.verify_solution"),
        "codes.invalid": c["codes_invalid"],
        "rateregion.vertices.calls": n("rateregion.enumerate_vertices"),
        "rateregion.vertices.self_s": s("rateregion.enumerate_vertices"),
        "rateregion.bounded.self_s": s("rateregion.ensure_bounded"),
        "rateregion.subsets": c["vertex_subsets"],
        "rateregion.subsets_per_s": _ratio(c["vertex_subsets"], s("rateregion.enumerate_vertices")),
        "rateregion.useful_ratio": _ratio(c["vertices_found"], c["vertex_subsets"]),
        "rateregion.contains.calls": n("rateregion.contains"),
        "rateregion.contains.self_s": s("rateregion.contains"),
        "netmodel.calls": n(*SPANS_OF["netmodel"]),
        "netmodel.self_s": s(*SPANS_OF["netmodel"]),
        "cli.jobs": n("cli.main"),
        "cli.self_s": s("cli.main"),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = _ratio(s(*SPANS_OF[layer]), wall_s)
    return out


# Counts that must repeat exactly from run to run.
EXACT = (
    "subspace.lattice.builds",
    "subspace.lattice.subspaces",
    "subspace.join.calls",
    "subspace.elim_per_join",
    "ff.elim.calls",
    "ff.mul.calls",
    "rankineq.search.calls",
    "rankineq.assignments",
    "rankineq.witnesses",
    "rankineq.evaluate.calls",
    "codes.verify_exh.calls",
    "codes.exh_assignments",
    "codes.validate.calls",
    "codes.verify_alg.calls",
    "codes.invalid",
    "rateregion.vertices.calls",
    "rateregion.subsets",
    "rateregion.contains.calls",
    "netmodel.calls",
    "cli.jobs",
)
