"""README's "Examples" block, run command by command through the CLI."""

import re
import shlex

import pytest

from ncregions.cli import main

from conftest import REPO_ROOT

# What each example's comment states, and the stdout lines that show it.
_STATED = {
    "capacity gbutterfly --class routing --kind uniform": (
        "1/2", ["uniform capacity of gbutterfly / routing: 1/2"]),
    "regions fano --class linear-odd": (
        "8 planes, 10 vertices", ["planes (8):", "vertices (10):"]),
    "verify data/codes/fano_45_odd.json": ("exit 0", ["valid: yes"]),
    "verify data/codes/fano_111_gf3.json": (
        "witness printed", ["  witness assignment: a=(0,) b=(1,) c=(1,)"]),
    "achieve vamos --class linear": ("derived vertices", ["derived (1, 1, 0, 1)", "result: ok"]),
    "rank oddLRI --field 2 --dim 3 --mode catalog": ("witness", ["violation found: yes"]),
    "rank oddLRI --field 2 --dim 3 --mode exhaustive --budget 300000000": (
        "#19101029", ["assignments checked: 19101029", "violation found: yes"]),
    "transfer --coeffs 1 1 0 0 1 0 0 1 0 0": (
        "r_a+2r_b+2r_c+r_d <= 5", ["rate bound: r_a + 2*r_b + 2*r_c + r_d <= 5"]),
    "polytope --hrep data/hreps/gbutterfly_coding.hrep vertices": ("", ["vertices (14):"]),
}


def _examples():
    """(command, comment) per example; a comment-only line continues the one above."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            examples.append([command.strip().removeprefix("ncregions "), comment.strip()])
        else:
            examples[-1][1] += " " + comment.strip()
    return examples


def test_every_example_is_checked():
    assert [command for command, _ in _examples()] == list(_STATED)


@pytest.mark.parametrize("command,comment", _examples(), ids=[c for c, _ in _examples()])
def test_readme_example(monkeypatch, capsys, command, comment):
    monkeypatch.chdir(REPO_ROOT)
    stated, lines = _STATED[command]
    assert stated in comment
    documented = re.search(r"exit (\d)", comment)
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == (int(documented.group(1)) if documented else 0)
    for line in lines:
        assert line in out
