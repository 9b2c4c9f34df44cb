"""CLI text pinned byte for byte: every ``--help`` text, the range checks
and the inadmissible-spec errors.

``tests/data/cli_help.json`` holds the ``--help`` output of the top level
and of each subcommand at a terminal width of 80 columns.  To record it
again after an intended change, run

    PYTHONPATH=src python tests/test_cli_text.py

and name every text that moved when the change is reviewed.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib

import pytest

from toeplitz_bounds.cli import main

HELP = pathlib.Path(__file__).parent / "data" / "cli_help.json"
SUBCOMMANDS = ("", "bounds", "extremal", "fs", "verify", "table")

# verify's range checks, in the order main applies them: (flag, bad value, error line)
RANGE_CHECKS = [
    ("--order", "2", "error: --order must be at least 3\n"),
    ("--samples", "0", "error: --samples must be at least 1\n"),
    ("--seed", "-1", "error: --seed must be non-negative\n"),
    ("--polish-steps", "-1", "error: --polish-steps must be non-negative\n"),
    ("--tol", "nan", "error: --tol must be a non-negative number\n"),
]

# spec flags that validate rejects, with the violation it names
INADMISSIBLE = [
    (("--class", "janowski", "--A", "0.2", "--B", "0.8"), "janowski requires -1 <= B < A <= 1"),
    (("--class", "janowski", "--A", "0.5", "--B", "0.5"), "janowski requires -1 <= B < A <= 1"),
    (("--class", "order-alpha", "--alpha", "1"), "order-alpha requires 0 <= alpha < 1"),
    (("--class", "order-alpha", "--alpha", "1.5"), "order-alpha requires 0 <= alpha < 1"),
    (("--class", "exp", "--alpha", "1"), "exp requires 0 <= alpha < 1"),
    (("--class", "exp", "--alpha", "1.5"), "exp requires 0 <= alpha < 1"),
    (("--class", "custom", "--b1", "0"), "B1 > 0 violated"),
    (("--class", "custom", "--b1", "-1", "--b2", "0.5"), "B1 > 0 violated"),
    (("--class", "custom", "--b1", "1", "--b2", "inf"), "custom coefficients must be finite"),
    (("--class", "custom", "--b1", "1", "--b2", "nan"), "custom coefficients must be finite"),
    (("--class", "custom", "--b1", "1", "--b2", "-inf"), "custom coefficients must be finite"),
]
# the flags each spec-taking subcommand needs besides the spec
SPEC_COMMANDS = {"bounds": (), "extremal": (), "fs": ("--mu", "0.5"), "verify": ()}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def help_text(command: str) -> str:
    code, out, err = run([command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=[c or "top" for c in SUBCOMMANDS])
def test_help_text(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_text(command) == json.loads(HELP.read_text())[command or "top"]


@pytest.mark.parametrize("flag, value, line", RANGE_CHECKS,
                         ids=[c[0] for c in RANGE_CHECKS])
def test_range_check_error_line(flag, value, line):
    assert run(["verify", "--class", "sine", flag, value]) == (1, "", line)


@pytest.mark.parametrize("first, second", itertools.combinations(RANGE_CHECKS, 2),
                         ids=lambda c: c[0])
def test_first_range_check_fires(first, second):
    # two bad values, given in either order: the earlier check names its flag
    for a, b in ((first, second), (second, first)):
        argv = ["verify", "--class", "sine", *a[:2], *b[:2]]
        assert run(argv) == (1, "", first[2]), argv


@pytest.mark.parametrize("command", SPEC_COMMANDS)
@pytest.mark.parametrize("spec, violation", INADMISSIBLE,
                         ids=[" ".join(c[0][1::2]) for c in INADMISSIBLE])
def test_inadmissible_spec_error_line(command, spec, violation):
    argv = [command, *spec, *SPEC_COMMANDS[command]]
    assert run(argv) == (1, "", f"error: inadmissible spec: {violation}\n")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    texts = {command or "top": help_text(command) for command in SUBCOMMANDS}
    HELP.write_text(json.dumps(texts, indent=1) + "\n")
    print(f"wrote {len(texts)} help texts to {HELP}")
