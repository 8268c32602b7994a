"""Command-line interface.

Subcommands: ``regions``, ``capacity``, ``verify``, ``achieve``,
``rank``, ``transfer``, ``polytope``.  Every command is a pure function
of its arguments, input files and seed; ``--format json`` renders the
same report as canonical JSON (sorted keys, two-space indent), so
parsing and re-rendering the output is byte-identical.

Exit codes: 0 success / verified; 1 a verification or search found a
failure or violation where validity was asserted; 2 usage or input
errors (including exceeded enumeration budgets).  Handlers never convert
errors: they let ``ValueError`` and ``KeyError`` propagate, and
:func:`main` alone turns them into one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import codes as codes_mod
from . import netmodel, rankineq, rateregion
from .ff import PrimeField
from .rateregion import frac_str
from .subspace import assignment_to_text

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _message(exc: Exception) -> str:
    """An input error's text; a KeyError's without the quotes str() adds."""
    return exc.args[0] if isinstance(exc, KeyError) else str(exc)


def _achieve_field(network: str, cls: str) -> PrimeField:
    """Default field of the one characteristic the class's bundled codes
    are claimed for (GF(2) when every one of them works in any)."""
    chars = {
        spec.characteristic
        for spec in codes_mod.builtin_code_specs(network)
        if cls in spec.region_classes
    }
    if not chars:
        raise ValueError(f"no achieving codes bundled for {network} / {cls}")
    (char,) = chars - {"any"} or {"any"}
    return codes_mod._DEFAULT_FIELD[char]


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, report_dict, text)


def cmd_regions(args) -> tuple[int, dict, str]:
    h, expected = rateregion.builtin_region(args.network, args.region_class)
    vertices = rateregion.enumerate_vertices(h)
    plane_lines = rateregion.hrep_to_text(h).splitlines()
    got = [[frac_str(x) for x in v] for v in vertices]
    has_expected = len(expected) > 0
    matches = vertices.vertices == expected.vertices if has_expected else None
    report = {
        "command": "regions",
        "network": args.network,
        "class": args.region_class,
        "planes": plane_lines,
        "vertices": got,
        "expected_vertices": [[frac_str(x) for x in v] for v in expected] if has_expected else None,
        "matches_expected": matches,
    }
    lines = [f"network: {args.network}", f"class: {args.region_class}"]
    lines.append(f"planes ({len(plane_lines)}):")
    lines += [f"  {p}" for p in plane_lines]
    lines.append(f"vertices ({len(got)}):")
    lines += ["  " + " ".join(v) for v in got]
    if has_expected:
        lines.append(f"expected vertices: {'match' if matches else 'MISMATCH'}")
    else:
        lines.append("expected vertices: none cataloged")
    code = EXIT_OK if matches in (True, None) else EXIT_FAILURE
    return code, report, "\n".join(lines) + "\n"


def cmd_capacity(args) -> tuple[int, dict, str]:
    h, _ = rateregion.builtin_region(args.network, args.region_class)
    if args.kind == "uniform":
        value = rateregion.uniform_capacity(h)
    else:
        value = rateregion.average_capacity(h)
    report = {
        "command": "capacity",
        "network": args.network,
        "class": args.region_class,
        "kind": args.kind,
        "value": frac_str(value),
    }
    text = f"{args.kind} capacity of {args.network} / {args.region_class}: {frac_str(value)}\n"
    return EXIT_OK, report, text


def _demand_rows(report) -> list[dict]:
    rows = []
    for st in report.statuses:
        row = {
            "receiver": st.receiver,
            "message": st.message,
            "ok": st.ok,
        }
        if st.reason:
            row["reason"] = st.reason
        if st.witness is not None:
            row["witness"] = {m: list(v) for m, v in st.witness.items()}
        rows.append(row)
    return rows


def cmd_verify(args) -> tuple[int, dict, str]:
    try:
        net, code = codes_mod.read_code_file(args.codefile)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load code file: {_message(exc)}") from exc
    if args.exhaustive or isinstance(code, codes_mod.TableCode):
        rep = codes_mod.verify_solution_exhaustive(net, code, guard=args.guard)
        mode = "exhaustive"
    else:
        rep = codes_mod.verify_solution(net, code)
        mode = "algebraic"
    report = {
        "command": "verify",
        "file": str(args.codefile),
        "network": net.name,
        "mode": mode,
        "valid": rep.valid,
        "rate_vector": {m: frac_str(r) for m, r in rep.rate_vector.items()},
        "demands": _demand_rows(rep),
    }
    if rep.assignments_checked is not None:
        report["assignments_checked"] = rep.assignments_checked
    lines = [
        f"file: {args.codefile}",
        f"network: {net.name}",
        f"mode: {mode}",
        "rate vector: " + " ".join(f"{m}={v}" for m, v in report["rate_vector"].items()),
    ]
    for row in report["demands"]:
        status = "ok" if row["ok"] else f"FAIL ({row.get('reason', '')})"
        lines.append(f"{row['receiver']} demands {row['message']}: {status}")
        if not row["ok"] and "witness" in row:
            parts = " ".join(f"{m}={tuple(v)}" for m, v in row["witness"].items())
            lines.append(f"  witness assignment: {parts}")
    if rep.assignments_checked is not None:
        lines.append(f"assignments checked: {rep.assignments_checked}")
    lines.append(f"valid: {'yes' if rep.valid else 'no'}")
    return (EXIT_OK if rep.valid else EXIT_FAILURE), report, "\n".join(lines) + "\n"


def cmd_achieve(args) -> tuple[int, dict, str]:
    network = args.network
    cls = rateregion.canonical_class(network, args.region_class)
    h, expected = rateregion.builtin_region(network, cls)
    fld = _achieve_field(network, cls)
    net = netmodel.builtin_network(network)
    bundled = [
        codes_mod.instantiate_builtin(net, spec, fld)
        for spec in codes_mod.builtin_code_specs(network)
        if cls in spec.region_classes
    ]

    def judge(code):
        """Validity, rate vector, region membership and (routing class
        only, else None) whether the code routes."""
        rep = codes_mod.verify_solution(net, code)
        rate = tuple(rep.rate_vector[m] for m in net.messages)
        routes = codes_mod.is_routing(code) if cls == "routing" else None
        return rep.valid, rate, rateregion.contains(h, rate), routes

    code_rows = []
    covered: set = set()
    for bc in bundled:
        valid, rate, inside, routes = judge(bc.code)
        row = {
            "label": bc.label,
            "valid": valid,
            "rate": [frac_str(x) for x in rate],
            "in_region": inside,
        }
        if routes is not None:
            row["routing"] = routes
        if valid:
            covered.add(rate)
        code_rows.append(row)

    # remaining cataloged vertices are reachable by zeroing messages of
    # a bundled code whose surviving rates match the vertex exactly
    derived_rows = []
    uncovered = []
    for vertex in expected:
        if vertex in covered:
            continue
        zero_set = tuple(
            m for m, value in zip(net.messages, vertex) if value == 0
        )
        base = next(
            (bc for bc in bundled if all(
                codes_mod.rate_vector(bc.code)[m] == v for m, v in zip(net.messages, vertex) if v
            )),
            None,
        )
        if base is None:
            uncovered.append([frac_str(x) for x in vertex])
            continue
        valid, _, inside, routes = judge(codes_mod.zero_fix(net, base.code, zero_set))
        derived_rows.append(
            {
                "vertex": [frac_str(x) for x in vertex],
                "from": base.label,
                "zeroed": list(zero_set),
                "valid": valid,
                "ok": valid and inside and routes is not False,
            }
        )
    all_ok = (
        not uncovered
        and all(r["valid"] and r["in_region"] and r.get("routing", True) for r in code_rows)
        and all(r["ok"] for r in derived_rows)
    )

    report = {
        "command": "achieve",
        "network": network,
        "class": args.region_class,
        "field": f"GF({fld.p})",
        "codes": code_rows,
        "derived": derived_rows,
        "uncovered_vertices": uncovered,
        "ok": all_ok,
    }
    lines = [f"network: {network}", f"class: {args.region_class}", f"field: GF({fld.p})"]
    for row in code_rows:
        flags = [
            "valid" if row["valid"] else "INVALID",
            "in-region" if row["in_region"] else "OUTSIDE-REGION",
        ]
        if "routing" in row:
            flags.append("routing" if row["routing"] else "NOT-ROUTING")
        lines.append(f"{row['label']:20s} rate=({', '.join(row['rate'])}) {' '.join(flags)}")
    for row in derived_rows:
        lines.append(
            f"derived ({', '.join(row['vertex'])}) from {row['from']} "
            f"zeroing {row['zeroed']}: {'ok' if row['ok'] else 'FAIL'}"
        )
    if uncovered:
        lines.append(f"uncovered vertices: {uncovered}")
    lines.append(f"result: {'ok' if all_ok else 'FAIL'}")
    return (EXIT_OK if all_ok else EXIT_FAILURE), report, "\n".join(lines) + "\n"


def cmd_rank(args) -> tuple[int, dict, str]:
    expr = rankineq.builtin_inequality(args.inequality)
    fld = PrimeField(args.field)
    outcome = rankineq.search_violation_detailed(
        expr,
        args.field,
        args.dim,
        mode=args.mode,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
    )
    expected = rankineq.expected_violation(
        args.inequality, fld.characteristic_class, args.dim
    )
    found = outcome.witness is not None
    ok = found == expected
    report = {
        "command": "rank",
        "inequality": args.inequality,
        "field": args.field,
        "dim": args.dim,
        "mode": args.mode,
        "seed": args.seed,
        "samples": args.samples,
        "checked": outcome.checked,
        "min_slack": frac_str(outcome.min_slack) if outcome.min_slack is not None else None,
        "expected_violation": expected,
        "violation_found": found,
        "witness": assignment_to_text(outcome.witness).splitlines() if found else None,
        "matches_claim": ok,
    }
    lines = [
        f"inequality: {args.inequality}",
        f"field: GF({args.field})  dim: {args.dim}  mode: {args.mode}",
        f"assignments checked: {outcome.checked}",
        f"min slack seen: {report['min_slack']}",
        f"expected violation: {'yes' if expected else 'no'}",
        f"violation found: {'yes' if found else 'no'}",
    ]
    if found:
        lines.append("witness:")
        lines += ["  " + l for l in report["witness"]]
    lines.append(f"outcome matches claim: {'yes' if ok else 'NO'}")
    return (EXIT_OK if ok else EXIT_FAILURE), report, "\n".join(lines) + "\n"


_ENTROPY_NAMES_LHS = ("H(a)", "H(b)", "H(c)", "H(d)")
_ENTROPY_NAMES_RHS = ("H(w)", "H(x)", "H(y)", "H(z)")
_RATE_NAMES = ("r_a", "r_b", "r_c", "r_d")


def _linear_combo(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        prefix = "" if c == 1 else f"{frac_str(c)}*"
        parts.append(f"{prefix}{name}")
    return " + ".join(parts) if parts else "0"


def cmd_transfer(args) -> tuple[int, dict, str]:
    values = [rateregion.parse_fraction(v) for v in args.coeffs]
    coeffs = rateregion.transfer_coefficients(values)
    bound = rateregion.transfer_vamos(coeffs)
    lhs = _linear_combo(bound.message_coeffs, _ENTROPY_NAMES_LHS)
    for coeff, name in ((bound.cy_coeff, "I(c;y)"), (bound.bx_coeff, "I(b;x)")):
        if coeff == 0:
            continue
        sign = " + " if coeff > 0 else " - "
        magnitude = abs(coeff)
        prefix = "" if magnitude == 1 else f"{frac_str(magnitude)}*"
        lhs += f"{sign}{prefix}{name}"
    rhs = _linear_combo(bound.edge_coeffs, _ENTROPY_NAMES_RHS)
    report = {
        "command": "transfer",
        "coefficients": [frac_str(v) for v in coeffs.a],
        "message_coeffs": [frac_str(c) for c in bound.message_coeffs],
        "cy_coeff": frac_str(bound.cy_coeff),
        "bx_coeff": frac_str(bound.bx_coeff),
        "edge_coeffs": [frac_str(c) for c in bound.edge_coeffs],
        "entropy_bound": f"{lhs} <= {rhs}",
        "reducible": bound.reducible,
        "rate_coeffs": [frac_str(c) for c in bound.rate_coeffs] if bound.reducible else None,
        "n_coeff": frac_str(bound.n_coeff) if bound.reducible else None,
        "rate_bound": (
            f"{_linear_combo(bound.rate_coeffs, _RATE_NAMES)} <= {frac_str(bound.n_coeff)}"
            if bound.reducible
            else None
        ),
    }
    lines = [
        f"entropy bound: {report['entropy_bound']}",
        f"I(c;y) coefficient: {report['cy_coeff']}",
        f"I(b;x) coefficient: {report['bx_coeff']}",
        f"reducible: {'yes' if bound.reducible else 'no'}",
    ]
    if bound.reducible:
        lines.append(f"rate bound: {report['rate_bound']}")
    return EXIT_OK, report, "\n".join(lines) + "\n"


def cmd_polytope(args) -> tuple[int, dict, str]:
    try:
        with open(args.hrep) as f:
            h = rateregion.parse_hrep(f.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load H-representation: {exc}") from exc
    if args.action == "vertices":
        try:
            verts = rateregion.enumerate_vertices(h)
        except rateregion.UnboundedPolyhedronError as exc:
            report = {
                "command": "polytope",
                "action": "vertices",
                "file": str(args.hrep),
                "error": f"unbounded: {exc}",
            }
            return EXIT_FAILURE, report, f"unbounded polyhedron: {exc}\n"
        report = {
            "command": "polytope",
            "action": "vertices",
            "file": str(args.hrep),
            "vertices": [[frac_str(x) for x in v] for v in verts],
        }
        lines = [f"vertices ({len(verts)}):"]
        lines += ["  " + " ".join(frac_str(x) for x in v) for v in verts]
        return EXIT_OK, report, "\n".join(lines) + "\n"
    # contains
    point = [rateregion.parse_fraction(x) for x in args.point]
    inside = rateregion.contains(h, point)
    report = {
        "command": "polytope",
        "action": "contains",
        "file": str(args.hrep),
        "point": [frac_str(x) for x in point],
        "result": inside,
    }
    return EXIT_OK, report, ("true" if inside else "false") + "\n"


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every call.

    Building it costs more than most commands, and parsing leaves no state
    in it; callers must not add arguments or defaults to the shared object.
    """
    parser = argparse.ArgumentParser(
        prog="ncregions",
        description="Exact rate regions, codes and rank inequalities for the bundled networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("regions", help="print a cataloged region and its vertices")
    p.add_argument("network", choices=netmodel.NETWORK_IDS)
    p.add_argument("--class", dest="region_class", required=True)
    add_format(p)
    p.set_defaults(handler=cmd_regions)

    p = sub.add_parser("capacity", help="uniform or average capacity of a region")
    p.add_argument("network", choices=netmodel.NETWORK_IDS)
    p.add_argument("--class", dest="region_class", required=True)
    p.add_argument("--kind", choices=("uniform", "average"), required=True)
    add_format(p)
    p.set_defaults(handler=cmd_capacity)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("codefile")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--guard", type=int, default=codes_mod.DEFAULT_ENUMERATION_GUARD)
    add_format(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("achieve", help="verify the bundled codes of a region class")
    p.add_argument("network", choices=netmodel.NETWORK_IDS)
    p.add_argument("--class", dest="region_class", required=True)
    add_format(p)
    p.set_defaults(handler=cmd_achieve)

    p = sub.add_parser("rank", help="evaluate / search a rank inequality")
    p.add_argument("inequality", choices=rankineq.INEQUALITY_IDS)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=("catalog", "exhaustive", "sample"), default="catalog")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=rankineq.DEFAULT_SAMPLES)
    p.add_argument("--budget", type=int, default=rankineq.DEFAULT_BUDGET)
    add_format(p)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("transfer", help="transfer a four-variable inequality to a rate bound")
    p.add_argument("--coeffs", nargs=10, required=True, metavar="A")
    add_format(p)
    p.set_defaults(handler=cmd_transfer)

    p = sub.add_parser("polytope", help="vertex enumeration / membership for an H-rep file")
    p.add_argument("--hrep", required=True)
    psub = p.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("vertices")
    add_format(pv)
    pv.set_defaults(handler=cmd_polytope)
    pc = psub.add_parser("contains")
    pc.add_argument("point", nargs="+")
    add_format(pc)
    pc.set_defaults(handler=cmd_polytope)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report, text = args.handler(args)
    except (KeyError, ValueError) as exc:  # the one boundary: malformed input
        print(f"error: {_message(exc)}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "format", "text") == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
