import argparse
import contextlib
import dataclasses
import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncregions import codes as codes_mod
from ncregions import netmodel, rateregion, subspace
from ncregions.cli import EXIT_FAILURE, EXIT_OK, _achieve_field, build_parser, cmd_achieve, main
from ncregions.ff import GF3
from ncregions.rateregion import frac_str

from conftest import DATA_DIR

FANO_GOOD = str(DATA_DIR / "codes" / "fano_45_odd.json")
FANO_BAD = str(DATA_DIR / "codes" / "fano_111_gf3.json")
GB_HREP = str(DATA_DIR / "hreps" / "gbutterfly_coding.hrep")
CUBE_HREP = str(DATA_DIR / "hreps" / "cube3.hrep")
QUADRANT_HREP = str(DATA_DIR / "hreps" / "quadrant2.hrep")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# regions / capacity


def test_regions_fano_linear_odd(capsys):
    code, out, _ = run(capsys, "regions", "fano", "--class", "linear-odd")
    assert code == 0
    assert "planes (8):" in out
    assert "vertices (10):" in out
    assert "4/5 4/5 4/5" in out
    assert "expected vertices: match" in out


def test_regions_zy_outer_has_no_expectation(capsys):
    # no cataloged vertex list checks this region, so its output is pinned
    code, out, _ = run(capsys, "regions", "vamos", "--class", "zy-outer")
    assert code == 0
    assert out == (
        "network: vamos\n"
        "class: zy-outer\n"
        "planes (13):\n"
        "  -1 0 0 0 <= 0\n"
        "  0 -1 0 0 <= 0\n"
        "  0 0 -1 0 <= 0\n"
        "  0 0 0 -1 <= 0\n"
        "  1 0 0 0 <= 1\n"
        "  0 0 0 1 <= 1\n"
        "  0 1 1 0 <= 2\n"
        "  1 1 0 0 <= 2\n"
        "  0 0 1 1 <= 2\n"
        "  4 4 2 1 <= 10\n"
        "  2 2 4 4 <= 11\n"
        "  1 2 4 5 <= 11\n"
        "  5 6 6 5 <= 20\n"
        "vertices (23):\n"
        "  0 0 0 0\n"
        "  0 0 0 1\n"
        "  0 0 1 1\n"
        "  0 0 2 0\n"
        "  0 1 1 1\n"
        "  0 2 0 0\n"
        "  0 2 0 1\n"
        "  1/2 3/2 1/2 1\n"
        "  3/5 13/10 7/10 1\n"
        "  3/4 3/4 5/4 3/4\n"
        "  4/5 9/10 11/10 4/5\n"
        "  1 0 0 0\n"
        "  1 0 0 1\n"
        "  1 0 1 1\n"
        "  1 0 2 0\n"
        "  1 1/2 1 1\n"
        "  1 1/2 3/2 1/2\n"
        "  1 7/10 13/10 3/5\n"
        "  1 5/6 5/6 1\n"
        "  1 1 0 0\n"
        "  1 1 0 1\n"
        "  1 1 1/2 1\n"
        "  1 1 1 0\n"
        "expected vertices: none cataloged\n"
    )


def test_regions_unknown_pair(capsys):
    code, _, err = run(capsys, "regions", "fano", "--class", "zy-outer")
    assert code == 2
    assert "error" in err


def test_capacity_examples(capsys):
    cases = [
        (("gbutterfly", "routing", "uniform"), "1/2"),
        (("gbutterfly", "coding", "average"), "3/4"),
        (("vamos", "linear", "uniform"), "5/6"),
        (("fano", "linear-odd", "uniform"), "4/5"),
    ]
    for (network, cls, kind), expected in cases:
        code, out, _ = run(
            capsys, "capacity", network, "--class", cls, "--kind", kind
        )
        assert code == 0
        assert out.strip().endswith(expected)


# ---------------------------------------------------------------------------
# verify


def test_verify_valid_code(capsys):
    code, out, _ = run(capsys, "verify", FANO_GOOD)
    assert code == 0
    assert "valid: yes" in out


def test_verify_invalid_code_reports_first_failure(capsys):
    code, out, _ = run(capsys, "verify", FANO_BAD)
    assert code == 1
    assert "R12 demands c: FAIL" in out
    assert "witness assignment" in out


def test_verify_exhaustive_flag(capsys):
    code, out, _ = run(capsys, "verify", FANO_BAD, "--exhaustive")
    assert code == 1
    assert "assignments checked: 27" in out


def test_verify_guard_exceeded(capsys):
    code, _, err = run(capsys, "verify", FANO_GOOD, "--exhaustive", "--guard", "100")
    assert code == 2
    assert "guard" in err


def test_verify_truncated_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"network": "fano", "mess')
    code, _, err = run(capsys, "verify", str(broken))
    assert code == 2
    assert "cannot load" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "no/such/file.json")
    assert code == 2


def _assert_one_error_line(err):
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_cyclic_network_file_exits_two(tmp_path, capsys):
    (tmp_path / "loop.net").write_text(
        "message a@src\nedge e1 src x\nedge e2 x y\nedge e3 y x\ndemand y a\n"
    )
    doc = {
        "network": "loop",
        "network_file": "loop.net",
        "field": {"modulus": 2},
        "message_dims": {"a": 1},
        "edge_dim": 1,
        "edges": {
            "e1": {"inputs": ["a"], "matrix": [[1]]},
            "e2": {"inputs": ["e1", "e3"], "matrix": [[1, 0]]},
            "e3": {"inputs": ["e2"], "matrix": [[1]]},
        },
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--exhaustive",)):
        code, _, err = run(capsys, "verify", str(path), *extra)
        assert code == 2
        _assert_one_error_line(err)
        assert "cycle" in err


@pytest.mark.parametrize(
    "net_text",
    ["message a@s\nedge a s r\ndemand r a\n", "edge a s r\nmessage a@s\ndemand r a\n"],
)
def test_verify_network_file_with_an_edge_named_like_a_message_exits_two(
    tmp_path, capsys, net_text
):
    # a node holding message a and edge a would list its inputs as ["a", "a"]
    (tmp_path / "clash.net").write_text(net_text)
    doc = {
        "network": "clash",
        "network_file": "clash.net",
        "field": {"modulus": 2},
        "message_dims": {"a": 1},
        "edge_dim": 1,
        "edges": {"a": {"inputs": ["a"], "matrix": [[1]]}},
    }
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--exhaustive",)):
        code, out, err = run(capsys, "verify", str(path), *extra)
        assert code == 2 and out == ""
        _assert_one_error_line(err)
        assert "line 2:" in err and "also" in err


@pytest.mark.parametrize(
    "net_text", ["message a@s\nedge e1 s r\ndemand r q\n", "demand r q\nmessage a@s\nedge e1 s r\n"]
)
def test_verify_network_file_demanding_an_undeclared_message_exits_two(tmp_path, capsys, net_text):
    (tmp_path / "undeclared.net").write_text(net_text)
    doc = {
        "network": "undeclared",
        "network_file": "undeclared.net",
        "field": {"modulus": 2},
        "message_dims": {"a": 1},
        "edge_dim": 1,
        "edges": {"e1": {"inputs": ["a"], "matrix": [[1]]}},
    }
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--exhaustive",)):
        code, out, err = run(capsys, "verify", str(path), *extra)
        assert code == 2 and out == ""
        _assert_one_error_line(err)
        assert "line" in err and "undeclared message q" in err


def test_verify_non_object_document_exits_two(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    _assert_one_error_line(err)


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")], ids=["arrays", "objects"])
def test_verify_deeply_nested_document_exits_two(tmp_path, capsys, opening, closing):
    # far past the depth to which the interpreter lets json.loads recurse
    path = tmp_path / "deep.json"
    path.write_text(opening * 100_000 + "1" + closing * 100_000)
    assert run(capsys, "verify", str(path)) == (
        2, "", "error: cannot load code file: JSON is nested too deeply to parse\n"
    )


def test_verify_input_keys_too_wide_exits_two_quickly(tmp_path, capsys):
    # 2 assignments, but the receiver joins two 31-symbol edges: 2^62 keys
    (tmp_path / "wide.net").write_text("message a@s\nedge e1 s r\nedge e2 s r\ndemand r a\n")
    doc = {
        "network": "wide",
        "network_file": "wide.net",
        "field": {"modulus": 2},
        "message_dims": {"a": 1},
        "edge_dim": 31,
        "edges": {e: {"inputs": ["a"], "matrix": [[1]] * 31} for e in ("e1", "e2")},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path), "--exhaustive")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    _assert_one_error_line(err)
    assert "too wide" in err


def test_verify_huge_prime_modulus_exits_two_quickly(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "codes" / "fano_45_odd.json").read_text())
    doc["field"] = {"modulus": 10**18 + 3}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: cannot load code file: modulus 1000000000000000003 exceeds supported bound 257\n"
    )


def test_huge_table_domain_exits_two_quickly(tmp_path, capsys):
    # edge w reads a: a 3^(10^9 + 1)-line domain, refused without building 3^(10^9 + 1)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "network": "fano", "message_dims": {"a": 10**9, "b": 1, "c": 1}, "edge_dim": 1,
        "alphabet": 3,
        "edges": {
            "w": {"inputs": ["a", "b"], "table": ["0", "1", "2"]},
            **{e: {"inputs": i, "table": ["0"] * 9} for e, i in
               (("y", ["b", "c"]), ("x", ["w", "y"]), ("z", ["c", "w"]))},
        },
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: cannot load code file: edge 'w' table has wrong domain size\n"
    )


def test_exhaustive_guard_on_a_huge_isolated_message_exits_two_quickly(tmp_path, capsys):
    # message b reaches no edge, so its 10^9 symbols only show in the assignment count
    (tmp_path / "iso.net").write_text("message a@s\nmessage b@t\nedge e1 s r\ndemand r a\n")
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "network": "iso", "network_file": "iso.net", "field": {"modulus": 3},
        "message_dims": {"a": 1, "b": 10**9}, "edge_dim": 1,
        "edges": {"e1": {"inputs": ["a"], "matrix": [[1]]}},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path), "--exhaustive")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 3^1000000001 assignments exceed the enumeration guard 1048576\n"


def test_transfer_guard_on_a_wide_isolated_message_exits_two_quickly(tmp_path, capsys):
    # the algebraic verifier's matrices would have 1,000,001 columns, one per message symbol
    (tmp_path / "iso.net").write_text("message a@s\nmessage b@t\nedge e1 s r\ndemand r a\n")
    path = tmp_path / "iso.json"
    path.write_text(json.dumps({
        "network": "iso", "network_file": "iso.net", "field": {"modulus": 3},
        "message_dims": {"a": 1, "b": 10**6}, "edge_dim": 1,
        "edges": {"e1": {"inputs": ["a"], "matrix": [[1]]}},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: transfer matrices of 2 input symbols by 1000001 message symbols "
        "exceed the guard of 1048576 entries\n"
    )


@pytest.mark.parametrize("line", ["Z", "-", " ", "3"])
def test_verify_table_symbol_outside_digits_or_alphabet_exits_two(tmp_path, capsys, line):
    # "Z", "-" and " " are no symbol at all; "3" is outside the alphabet {0, 1}
    from ncregions.codes import read_code_file, to_table_code, write_code_file

    net, code = read_code_file(DATA_DIR / "codes" / "fano_111_gf2.json")
    path = tmp_path / "t.json"
    write_code_file(path, net, to_table_code(net, code))
    doc = json.loads(path.read_text())
    doc["edges"]["w"]["table"][1] = line
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    _assert_one_error_line(err)
    assert ("alphabet" if line == "3" else "not digits") in err


def _table_file(tmp_path, name, mutate):
    """A table copy of a bundled code file, changed by ``mutate``."""
    net, code = codes_mod.read_code_file(DATA_DIR / "codes" / name)
    path = tmp_path / "t.json"
    codes_mod.write_code_file(path, net, codes_mod.to_table_code(net, code))
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "mutate, error",
    [
        # gbutterfly_23_uniform has edge dimension 3: "000" is the right width
        (lambda d: d["edges"]["x"]["table"].__setitem__(1, "00"),
         "edge 'x' table has wrong output width"),
        (lambda d: d["edges"]["x"]["table"].__setitem__(1, "0000"),
         "edge 'x' table has wrong output width"),
        # 3 symbols of 22 bits each: an output key would not fit 63 bits
        (lambda d: d.update(alphabet=2**22),
         "edge 'u' table outputs (4194304^3 values) are too wide"),
        (lambda d: d.update(alphabet=1), "alphabet size must be at least 2"),
    ],
    ids=["one-symbol-short", "one-symbol-long", "keys-too-wide", "alphabet-1"],
)
def test_verify_table_of_the_wrong_width_exits_two(tmp_path, capsys, mutate, error):
    path = _table_file(tmp_path, "gbutterfly_23_uniform.json", mutate)
    assert run(capsys, "verify", str(path)) == (2, "", f"error: cannot load code file: {error}\n")


def test_verify_table_with_a_zero_rate_decoder(tmp_path, capsys):
    # with c at rate zero, nonfano's decoders of c are tables of empty lines
    net = netmodel.builtin_network("nonfano")
    spec = next(s for s in codes_mod.builtin_code_specs("nonfano") if s.label == "(1,1,1)")
    code = codes_mod.zero_fix(net, codes_mod.instantiate_builtin(net, spec, GF3).code, ["c"])
    path = tmp_path / "t.json"
    codes_mod.write_code_file(path, net, codes_mod.to_table_code(net, code))
    assert set(json.loads(path.read_text())["decoders"]["R15/c"]["table"]) == {""}
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "") and out.endswith("valid: yes\n")


@pytest.mark.parametrize(
    "value, kind",
    [([], "a list"), (0, "an integer"), (False, "a boolean"), ("", "a string"), (None, "null")],
)
def test_verify_falsy_decoders_are_refused(tmp_path, capsys, value, kind):
    # a present decoders field that is not an object is malformed, falsy or not
    doc = json.loads((DATA_DIR / "codes" / "fano_111_gf2.json").read_text())
    path = tmp_path / "t.json"
    path.write_text(json.dumps({**doc, "decoders": value}))
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: cannot load code file: decoders must be an object, not {kind}\n"
    )


# ---------------------------------------------------------------------------
# achieve


@pytest.mark.parametrize(
    "network,cls,p",
    [
        pytest.param(network, cls, p, id=f"{network}-{cls}")
        for network, cls, p in [
            ("gbutterfly", "coding", 2),
            ("gbutterfly", "routing", 2),
            ("fano", "coding", 2),
            ("fano", "linear-odd", 3),
            ("fano", "routing", 2),
            ("nonfano", "coding", 3),
            ("nonfano", "linear-even", 2),
            ("nonfano", "routing", 2),
            ("vamos", "linear", 2),
            ("vamos", "routing", 2),
        ]
    ],
)
def test_achieve_all_classes(capsys, network, cls, p):
    code, out, _ = run(capsys, "achieve", network, "--class", cls)
    assert code == 0
    assert "result: ok" in out
    assert f"\nfield: GF({p})\n" in out


def test_achieve_routing_reports_routing_flags(capsys):
    code, out, _ = run(capsys, "achieve", "gbutterfly", "--class", "routing")
    assert code == 0
    assert "routing" in out and "NOT-ROUTING" not in out


def test_achieve_rejects_outer_bound_classes(capsys):
    code, _, err = run(capsys, "achieve", "vamos", "--class", "shannon-outer")
    assert code == 2


# ---------------------------------------------------------------------------
# rank


def test_rank_catalog_witness(capsys):
    code, out, _ = run(capsys, "rank", "oddLRI", "--field", "2", "--dim", "3")
    assert code == 0
    assert "violation found: yes" in out
    assert "Z = span (1,1,1)" in out


def test_rank_exhaustive_dimension_two(capsys):
    code, out, _ = run(
        capsys, "rank", "evenLRI", "--field", "2", "--dim", "2", "--mode", "exhaustive"
    )
    assert code == 0
    assert "violation found: no" in out


def test_rank_sample_ingleton(capsys):
    code, out, _ = run(
        capsys,
        "rank", "ingleton", "--field", "3", "--dim", "3",
        "--mode", "sample", "--seed", "7", "--samples", "5000",
    )
    assert code == 0
    assert "outcome matches claim: yes" in out


def test_rank_mismatch_exits_one(capsys):
    # sampling misses the rare violations of oddLRI over GF(2)^3, which
    # contradicts the validity claim for that regime -> exit 1
    code, out, _ = run(
        capsys,
        "rank", "oddLRI", "--field", "2", "--dim", "3",
        "--mode", "sample", "--seed", "0", "--samples", "50",
    )
    assert code == 1
    assert "outcome matches claim: NO" in out


def test_rank_exhaustive_witness_scan_output(capsys):
    # the first oddLRI violator over GF(2)^3 in lexicographic order
    code, out, _ = run(
        capsys,
        "rank", "oddLRI", "--field", "2", "--dim", "3",
        "--mode", "exhaustive", "--budget", "300000000",
    )
    assert code == 0
    assert out == (
        "inequality: oddLRI\n"
        "field: GF(2)  dim: 3  mode: exhaustive\n"
        "assignments checked: 19101029\n"
        "min slack seen: -1\n"
        "expected violation: yes\n"
        "violation found: yes\n"
        "witness:\n"
        "  ambient GF(2)^3\n"
        "  A = span (1,0,0)\n"
        "  B = span (1,0,1)\n"
        "  C = span (1,1,0)\n"
        "  W = span (0,0,1)\n"
        "  X = span (0,1,0)\n"
        "  Y = span (0,1,1)\n"
        "  Z = span (1,1,1)\n"
        "outcome matches claim: yes\n"
    )


def test_rank_budget_exceeded(capsys):
    code, _, err = run(
        capsys,
        "rank", "oddLRI", "--field", "2", "--dim", "3",
        "--mode", "exhaustive", "--budget", "100",
    )
    assert code == 2
    assert "budget" in err


def test_rank_rejects_composite_field(capsys):
    code, _, err = run(capsys, "rank", "oddLRI", "--field", "4", "--dim", "2")
    assert code == 2


def test_rank_huge_prime_field_exits_two_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "ingleton", "--field", str(10**18 + 3), "--dim", "3")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (
        2, "", "error: modulus 1000000000000000003 exceeds supported bound 257\n"
    )


def test_rank_lattice_guard_exits_two_quickly(capsys):
    # GF(2)^7 and GF(101)^3 exceed the join-table guard
    for field, dim in (("2", "7"), ("101", "3")):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "rank", "ingleton", "--field", field, "--dim", dim, "--mode", "sample"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and "guard" in err and err.count("\n") == 1


def test_rank_admits_gf29_cubed(capsys, monkeypatch):
    # a fresh cache, so the lattice is not kept for the rest of the test run
    monkeypatch.setattr(subspace, "_LATTICE_CACHE", {})
    code, out, err = run(
        capsys, "rank", "ingleton", "--field", "29", "--dim", "3", "--mode", "sample", "--samples", "1000"
    )
    assert code == EXIT_OK and err == ""


@pytest.mark.parametrize(
    "flag,value", [("--dim", "-1"), ("--samples", "-5"), ("--budget", "-1")]
)
@pytest.mark.parametrize("mode", ["catalog", "exhaustive", "sample"])
def test_rank_rejects_negative_sizes(capsys, flag, value, mode):
    sizes = {"--dim": "2", "--samples": "10", "--budget": "100"}
    sizes[flag] = value
    code, out, err = run(
        capsys, "rank", "ingleton", "--field", "2", "--mode", mode,
        *(x for item in sizes.items() for x in item),
    )
    assert code == 2 and out == ""
    assert "non-negative" in err and "Traceback" not in err


def test_rank_dimension_zero_is_legal(capsys):
    code, out, _ = run(
        capsys, "rank", "ingleton", "--field", "2", "--dim", "0",
        "--mode", "sample", "--samples", "10",
    )
    assert code == 0
    assert "assignments checked: 10" in out


# ---------------------------------------------------------------------------
# transfer


def test_transfer_ingleton_text(capsys):
    code, out, _ = run(
        capsys, "transfer", "--coeffs", "1", "1", "0", "0", "1", "0", "0", "1", "0", "0"
    )
    assert code == 0
    assert "H(a) + 2*H(b) + 2*H(c) + H(d) <= 2*H(w) + H(x) + H(y) + H(z)" in out
    assert "rate bound: r_a + 2*r_b + 2*r_c + r_d <= 5" in out


def test_transfer_zy_text(capsys):
    code, out, _ = run(
        capsys, "transfer", "--coeffs", "1", "2", "1", "1", "1", "0", "0", "1", "0", "0"
    )
    assert code == 0
    assert "4*r_a + 4*r_b + 2*r_c + r_d <= 10" in out
    assert "I(c;y) coefficient: 1" in out


def test_transfer_swapped_zy_not_reducible(capsys):
    code, out, _ = run(
        capsys, "transfer", "--coeffs", "1", "1", "0", "0", "2", "1", "1", "1", "0", "0"
    )
    assert code == 0
    assert "reducible: no" in out
    assert "I(c;y) coefficient: -1" in out


def test_transfer_arity_enforced(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transfer", "--coeffs", "1", "2"])
    assert exc.value.code == 2


def test_transfer_rejects_non_rational(capsys):
    code, _, err = run(
        capsys, "transfer", "--coeffs", "x", "1", "0", "0", "1", "0", "0", "1", "0", "0"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# polytope


def test_polytope_cube_vertices(capsys):
    code, out, _ = run(capsys, "polytope", "--hrep", CUBE_HREP, "vertices")
    assert code == 0
    assert "vertices (8):" in out


def test_polytope_gbutterfly_file_matches_catalog(capsys):
    code, out, _ = run(capsys, "polytope", "--hrep", GB_HREP, "vertices")
    assert code == 0
    assert "vertices (14):" in out


def test_polytope_contains(capsys):
    code, out, _ = run(capsys, "polytope", "--hrep", GB_HREP, "contains", "1", "1", "1", "1")
    assert code == 0 and out.strip() == "false"
    code, out, _ = run(
        capsys, "polytope", "--hrep", GB_HREP, "contains", "2/3", "2/3", "2/3", "2/3"
    )
    assert code == 0 and out.strip() == "true"


def test_polytope_unbounded_is_failure(tmp_path, capsys):
    ray = tmp_path / "ray.hrep"
    ray.write_text("-1 0 0 <= 0\n0 -1 0 <= 0\n1 -3 1 <= 1\n3 0 -1 <= 5\n")
    strip = tmp_path / "strip.hrep"
    strip.write_text("1 1 <= 1\n-1 -1 <= 0\n")
    cases = [
        (QUADRANT_HREP, "unbounded along direction ('0', '1')"),
        (str(ray), "unbounded along direction ('0', '1/3', '1')"),
        (str(strip), "constraint matrix is rank deficient"),
    ]
    for path, reason in cases:
        code, out, _ = run(capsys, "polytope", "--hrep", path, "vertices")
        assert (code, out) == (1, f"unbounded polyhedron: {reason}\n")
        code, out, _ = run(capsys, "polytope", "--hrep", path, "vertices", "--format", "json")
        assert code == 1
        assert out == (
            "{\n"
            '  "action": "vertices",\n'
            '  "command": "polytope",\n'
            f'  "error": "unbounded: {reason}",\n'
            f'  "file": "{path}"\n'
            "}\n"
        )


def test_polytope_vertex_guard_exits_two_quickly(tmp_path, capsys):
    # 40 rows in dimension 10: C(40, 9) * 40 * 13 = 142,188,217,600 units; the rows
    # repeat with period 5, so only a guard ahead of the rank check sees them
    big = tmp_path / "big.hrep"
    big.write_text("".join(
        " ".join(str((i * 7 + j * 3) % 5 - 2) for j in range(10)) + " <= 5\n"
        for i in range(40)
    ))
    start = time.perf_counter()
    code, out, err = run(capsys, "polytope", "--hrep", str(big), "vertices")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and "guard" in err and err.count("\n") == 1


def test_polytope_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.hrep"
    bad.write_text("1 2 3\n")
    code, _, err = run(capsys, "polytope", "--hrep", str(bad), "vertices")
    assert code == 2


# ---------------------------------------------------------------------------
# error paths: every one exits 2 with exactly this line on stderr

_MISSING_CODE = str(DATA_DIR / "codes" / "no_such.json")
_MISSING_HREP = str(DATA_DIR / "hreps" / "no_such.hrep")
# a code document in argv is written to a file and passed by its path
_FANO_DOC = json.loads((DATA_DIR / "codes" / "fano_45_odd.json").read_text())
_FANO_NO_EDGES = {k: v for k, v in _FANO_DOC.items() if k != "edges"}


@pytest.mark.parametrize(
    "argv,err",
    [
        (("regions", "fano", "--class", "zy-outer"),
         "no region cataloged for network='fano' class='zy-outer'"),
        (("capacity", "fano", "--class", "nosuch", "--kind", "uniform"),
         "no region cataloged for network='fano' class='nosuch'"),
        (("achieve", "gbutterfly", "--class", "nosuch"),
         "no region cataloged for network='gbutterfly' class='nosuch'"),
        (("achieve", "vamos", "--class", "shannon-outer"),
         "no achieving codes bundled for vamos / shannon-outer"),
        (("verify", _MISSING_CODE),
         f"cannot load code file: [Errno 2] No such file or directory: '{_MISSING_CODE}'"),
        (("verify", FANO_GOOD, "--exhaustive", "--guard", "100"),
         "3^12 assignments exceed the enumeration guard 100"),
        (("rank", "oddLRI", "--field", "4", "--dim", "2"), "modulus 4 is not prime"),
        (("rank", "oddLRI", "--field", "2", "--dim", "-1"),
         "dimension must be non-negative, got -1"),
        (("transfer", "--coeffs", "x", "1", "0", "0", "1", "0", "0", "1", "0", "0"),
         "cannot parse rational 'x'"),
        (("polytope", "--hrep", _MISSING_HREP, "vertices"),
         f"cannot load H-representation: [Errno 2] No such file or directory: '{_MISSING_HREP}'"),
        (("polytope", "--hrep", CUBE_HREP, "contains", "1", "2"),
         "point has dimension 2, expected 3"),
        (("verify", {**_FANO_DOC, "network": "nosuch"}),
         "cannot load code file: unknown network 'nosuch'; "
         "expected one of ('gbutterfly', 'fano', 'nonfano', 'vamos')"),
        (("verify", _FANO_NO_EDGES), "cannot load code file: missing edges"),
        # the lattice's table guard applies before the 124-digit budget count
        (("rank", "ingleton", "--field", "2", "--dim", "20", "--mode", "exhaustive"),
         "GF(2)^20 has 9323404868688111753287679285907 subspaces; its "
         "9323404868688111753287679285907^2-entry join table exceeds the guard 16777216"),
    ],
    ids=[
        "regions-class", "capacity-class", "achieve-class", "achieve-outer",
        "verify-missing", "verify-guard", "rank-composite", "rank-negative-dim",
        "transfer-rational", "polytope-missing", "polytope-point-dim",
        "verify-unknown-network", "verify-no-edges", "rank-table-guard-before-budget",
    ],
)
def test_error_paths_exit_two_with_one_line(capsys, tmp_path, argv, err):
    path = tmp_path / "code.json"
    for a in argv:
        if isinstance(a, dict):
            path.write_text(json.dumps(a))
    argv = [str(path) if isinstance(a, dict) else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "extra", [("--mode", "sample"), ("--mode", "exhaustive", "--budget", str(10**400))]
)
def test_rank_enumeration_guard_precedes_counting(capsys, extra):
    # counting the subspaces of GF(2)^800 alone would take minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "rank", "ingleton", "--field", "2", "--dim", "800", *extra)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 2^800 exceeds the enumeration guard 1048576\n"


# ---------------------------------------------------------------------------
# achieve against the reference implementation it replaced


class _ReferenceUsageError(Exception):
    pass


def _reference_achieve(args) -> tuple[int, dict, str]:
    # the handler as it stood before the checks of a code were shared
    UsageError = _ReferenceUsageError
    network = args.network
    try:
        cls = rateregion.canonical_class(network, args.region_class)
        h, expected = rateregion.builtin_region(network, cls)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    fld = _achieve_field(network, cls)
    net = netmodel.builtin_network(network)
    bundled = [
        codes_mod.instantiate_builtin(net, spec, fld)
        for spec in codes_mod.builtin_code_specs(network)
        if cls in spec.region_classes
    ]

    all_ok = True
    code_rows = []
    covered: set = set()
    for bc in bundled:
        rep = codes_mod.verify_solution(net, bc.code)
        rate = tuple(rep.rate_vector[m] for m in net.messages)
        inside = rateregion.contains(h, rate)
        row = {
            "label": bc.label,
            "valid": rep.valid,
            "rate": [frac_str(x) for x in rate],
            "in_region": inside,
        }
        if cls == "routing":
            row["routing"] = codes_mod.is_routing(bc.code)
            if not row["routing"]:
                all_ok = False
        if not (rep.valid and inside):
            all_ok = False
        if rep.valid:
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
        base = None
        for bc in bundled:
            rv = codes_mod.rate_vector(bc.code)
            candidate = tuple(
                Fraction(0) if m in zero_set else rv[m] for m in net.messages
            )
            if candidate == vertex:
                base = bc
                break
        if base is None:
            uncovered.append([frac_str(x) for x in vertex])
            continue
        derived = codes_mod.zero_fix(net, base.code, zero_set)
        rep = codes_mod.verify_solution(net, derived)
        ok = rep.valid and rateregion.contains(
            h, tuple(rep.rate_vector[m] for m in net.messages)
        )
        if cls == "routing":
            ok = ok and codes_mod.is_routing(derived)
        derived_rows.append(
            {
                "vertex": [frac_str(x) for x in vertex],
                "from": base.label,
                "zeroed": list(zero_set),
                "valid": rep.valid,
                "ok": ok,
            }
        )
        if not ok:
            all_ok = False
    if uncovered and len(expected) > 0:
        all_ok = False

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


def _outcome(handler, args):
    try:
        return handler(args)
    except Exception as exc:  # both must refuse the same classes with the same words
        return ("refused", str(exc))


def _invalid_report(verify):
    return lambda net, code: dataclasses.replace(verify(net, code), valid=False)


def _unreachable_vertex(builtin_region):
    # a cataloged vertex no bundled code reaches, by any zeroing
    def region(network, cls):
        h, expected = builtin_region(network, cls)
        return h, rateregion.vrep([*expected, [7] * h.dim])
    return region


_ACHIEVE_CASES = [
    (network, cls)
    for network in netmodel.NETWORK_IDS
    for cls in rateregion.region_classes(network)
]


@pytest.mark.parametrize(
    "fault,exits",
    [
        ("none", {EXIT_OK}),
        ("not-routing", {EXIT_OK, EXIT_FAILURE}),  # only the routing classes fail
        ("outside", {EXIT_FAILURE}),
        ("invalid", {EXIT_FAILURE}),
        ("uncovered", {EXIT_FAILURE}),
    ],
)
def test_achieve_matches_reference(monkeypatch, fault, exits):
    if fault == "not-routing":
        monkeypatch.setattr(codes_mod, "is_routing", lambda code: False)
    elif fault == "outside":
        monkeypatch.setattr(rateregion, "contains", lambda h, point: False)
    elif fault == "invalid":
        monkeypatch.setattr(codes_mod, "verify_solution", _invalid_report(codes_mod.verify_solution))
    elif fault == "uncovered":
        monkeypatch.setattr(rateregion, "builtin_region", _unreachable_vertex(rateregion.builtin_region))
    seen = set()
    for network, cls in _ACHIEVE_CASES:
        args = argparse.Namespace(network=network, region_class=cls)
        got, want = _outcome(cmd_achieve, args), _outcome(_reference_achieve, args)
        assert got == want, (network, cls)
        seen.add(want[0])
    assert seen == exits | {"refused"}  # vamos's outer bounds have no codes


# ---------------------------------------------------------------------------
# output format and environment


@pytest.mark.parametrize(
    "argv",
    [
        ("regions", "fano", "--class", "linear-odd", "--format", "json"),
        ("capacity", "vamos", "--class", "linear", "--kind", "uniform", "--format", "json"),
        ("verify", FANO_GOOD, "--format", "json"),
        ("verify", FANO_BAD, "--format", "json"),
        ("achieve", "nonfano", "--class", "linear-even", "--format", "json"),
        ("rank", "evenLRI", "--field", "3", "--dim", "3", "--format", "json"),
        ("transfer", "--coeffs", "1", "2", "1", "1", "1", "0", "0", "1", "0", "0", "--format", "json"),
        ("polytope", "--hrep", CUBE_HREP, "vertices", "--format", "json"),
        ("polytope", "--hrep", GB_HREP, "contains", "0", "0", "0", "0", "--format", "json"),
    ],
)
def test_json_output_round_trips_byte_identically(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_json_rank_reports_min_slack(capsys):
    _, out, _ = run(
        capsys, "rank", "oddLRI", "--field", "2", "--dim", "3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["min_slack"] == "-1"
    assert doc["violation_found"] is True and doc["expected_violation"] is True


def test_determinism_across_runs(capsys):
    argv = ("rank", "ingleton", "--field", "2", "--dim", "3",
            "--mode", "sample", "--seed", "3", "--samples", "2000", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2



# ---------------------------------------------------------------------------
# one parser per process: a call leaves nothing behind for the next one

_SAMPLE = ["rank", "ingleton", "--field", "2", "--dim", "2", "--mode", "sample",
           "--samples", "50", "--format", "json"]


@pytest.mark.parametrize(
    "calls,codes",
    [
        # argparse errors, each followed by a valid call of the same command
        ([["rank", "ingleton", "--field", "2"], ["rank", "ingleton", "--field", "2", "--dim", "2"],
          ["regions", "nosuch", "--class", "coding"], ["regions", "fano", "--class", "coding"]],
         [2, 0, 2, 0]),
        # an explicit --seed, then the default seed 0
        ([[*_SAMPLE, "--seed", "5"], _SAMPLE], [0, 0]),
        # the nested polytope subparsers, each action after the other
        ([["polytope", "--hrep", CUBE_HREP, "vertices", "--format", "json"],
          ["polytope", "--hrep", CUBE_HREP, "contains", "1", "1/2", "3/2"],
          ["polytope", "--hrep", CUBE_HREP, "vertices"],
          ["polytope", "--hrep", CUBE_HREP, "contains", "2", "0", "0", "--format", "json"]],
         [0, 0, 0, 0]),
    ],
    ids=["usage-error", "seed-default", "polytope-actions"],
)
def test_reused_parser_matches_a_fresh_one(calls, codes):
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_main_exit(argv))
    build_parser.cache_clear()
    reused = [_main_exit(argv) for argv in calls]
    assert build_parser() is build_parser()
    assert reused == fresh
    assert [code for code, _, _ in fresh] == codes


def test_reused_parser_restores_the_default_seed():
    seeds = [json.loads(_main_exit(argv)[1])["seed"] for argv in ([*_SAMPLE, "--seed", "5"], _SAMPLE)]
    assert seeds == [5, 0]


# ---------------------------------------------------------------------------
# fuzz: malformed or unusual input exits 0, 1 or 2, never with a traceback


def _main_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def _rank_argv(draw):
    # one choice in ten is an unknown inequality or mode, half the fields are not prime
    argv = ["rank", draw(st.sampled_from(("ingleton", "zhang-yeung", "oddLRI", "evenLRI") * 2 + ("frankl",)))]
    if draw(st.booleans()):
        argv += ["--field", str(draw(st.sampled_from((2, 3, 5, 7, 13))))]
    else:
        argv += ["--field", str(draw(st.sampled_from((-3, 0, 1, 4, 6, 9, 15))))]
    argv += ["--dim", str(draw(st.integers(-2, 3)))]
    argv += ["--mode", draw(st.sampled_from(("catalog", "exhaustive", "sample") * 3 + ("montecarlo",)))]
    argv += ["--samples", str(draw(st.integers(-3, 2_000)))]
    argv += ["--budget", str(draw(st.integers(-3, 100_000)))]
    argv += ["--seed", str(draw(st.integers(-(2**65), 2**65)))]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@given(argv=_rank_argv())
def test_fuzz_rank_exit_codes(argv):
    code, _, err = _main_exit(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_HREP_TEXTS = [
    (DATA_DIR / "hreps" / name).read_text()
    for name in ("cube3.hrep", "gbutterfly_coding.hrep", "quadrant2.hrep")
]


@st.composite
def _mutated_hrep(draw):
    text = draw(st.sampled_from(_HREP_TEXTS))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        insert = draw(st.text(alphabet="0123456789-/ <=#\n.e", max_size=3))
        text = text[:at] + insert + text[at + cut:]
    return text


@given(
    text=_mutated_hrep(),
    point=st.lists(st.sampled_from(("0", "1", "1/2", "-3", "x", "1/0")), max_size=5),
)
def test_fuzz_polytope_exit_codes(tmp_path_factory, text, point):
    path = tmp_path_factory.mktemp("hrep") / "fuzz.hrep"
    path.write_text(text)
    for action in (["vertices"], ["contains", *point]):
        code, _, err = _main_exit(["polytope", "--hrep", str(path), *action])
        assert code in (0, 1, 2)
        assert "Traceback" not in err


_CODE_FILES = sorted(p.name for p in (DATA_DIR / "codes").glob("*.json"))
_WRONG_TYPES = ("1", 1.5, None, True, [], {}, [[1]], {"a": 1})
_OUT_OF_RANGE = (-1, 0, 4, 7, 10**6, 2**64, "", "nosuch")


def _mutated_code(doc, rng):
    """One seeded mutation of a code document: a field's type changed, a
    value out of range, or a field deleted.  Returns what was done."""
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            slots.append((node, key))
            walk(child)

    walk(doc)
    parent, key = rng.choice(slots)
    kind = rng.choice(("type", "range", "delete"))
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = rng.choice(_WRONG_TYPES if kind == "type" else _OUT_OF_RANGE)
    return kind, key


@pytest.mark.parametrize("name", _CODE_FILES)
def test_fuzz_verify_exit_codes(tmp_path, name):
    text = (DATA_DIR / "codes" / name).read_text()
    path = tmp_path / name
    for k in range(100):
        doc = json.loads(text)
        mutation = _mutated_code(doc, random.Random(f"{name}-{k}"))
        path.write_text(json.dumps(doc))
        argv = ["verify", str(path)] + (["--exhaustive"] if k % 2 else [])
        code, _, err = _main_exit(argv)
        assert code in (0, 1, 2), (mutation, code, err)
        if code == 2:
            assert err.count("\n") == 1 and err.strip(), (mutation, err)
