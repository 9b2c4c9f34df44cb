"""CLI transcript: every recorded argv replays byte for byte through cli.main.

``tests/data/cli_transcript.json`` holds, for each argv, the stdout, stderr
and exit code it produced.  Any change to an entry is a change of CLI
behaviour.  To record the transcript again after an intended change, run

    PYTHONPATH=src python tests/test_transcript.py

and name every entry that moved when the change is reviewed.
"""

import contextlib
import io
import json
import pathlib

import pytest

from toeplitz_bounds import catalog
from toeplitz_bounds.cli import main

TRANSCRIPT = pathlib.Path(__file__).parent / "data" / "cli_transcript.json"

VERIFY = ("--samples", "20000", "--seed", "7")


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def spec_argv(label: str, spec: catalog.PhiSpec) -> list[str]:
    """``--class`` flags that select ``spec`` under the name ``label``."""
    argv = ["--class", label]
    if label == spec.kind:
        for name, value in spec.describe_params().items():
            argv += [f"--{name}", repr(value)]
    return argv


def transcript_argv() -> list[list[str]]:
    specs = [spec_argv(label, spec) for label, spec in catalog.TABLE.items()]
    specs += [spec_argv("custom", catalog.custom(1, -0.9)),
              spec_argv("custom", catalog.custom(0.37, -2.8))]
    mus = ("0", "0.5", "-0.75", "2", "10")
    runs: list[list[str]] = [["table"], ["table", "--output", "json"]]
    for i, spec in enumerate(specs):
        for j, kind in enumerate(("starlike", "convex")):
            for output in ("human", "json"):
                tail = ["--kind", kind, "--output", output]
                runs.append(["bounds", *spec, *tail])
                runs.append(["fs", *spec, "--mu", mus[(2 * i + j) % len(mus)], *tail])
                for order in ("10", "200"):
                    runs.append(["extremal", *spec, "--order", order, *tail])
        runs.append(["bounds", *spec, "--kind", "both", "--output", "json", "--strict"])
    for command in ("bounds", "extremal", "fs"):
        extra = ["--mu", "1"] if command == "fs" else []
        for spec in (["janowski"], ["janowski", "--A", "0.5"], ["order-alpha"],
                     ["exp"], ["custom"], ["custom", "--b2", "1"]):
            runs.append([command, "--class", *spec, *extra])
    runs += [
        ["verify", "--class", "sine", "--kind", "starlike", *VERIFY],
        ["verify", "--class", "cardioid", "--kind", "convex", *VERIFY,
         "--output", "json"],
        ["verify", "--class", "custom", "--b1", "1", "--b2", "-0.9", *VERIFY],
        ["verify", "--class", "exp", "--alpha", "0", "--kind", "convex", *VERIFY,
         "--order", "50", "--output", "json"],
        ["extremal", "--class", "sine", "--order", "2"],
        ["fs", "--class", "sine", "--mu", "-1e-3"],
        ["fs", "--class", "sine", "--mu=-1e-3"],
        ["verify", "--class", "sine", *VERIFY, "--tol", "-1e-3"],
        ["bounds", "--class", "custom", "--b1", "1", "--b2", "-1e-3"],
        ["bounds", "--class", "nosuch"],
        ["bounds", "--class"],
        ["fs", "--class", "sine"],
    ]
    return runs


ENTRIES = json.loads(TRANSCRIPT.read_text()) if TRANSCRIPT.exists() else []


def test_transcript_covers_the_argv_list():
    assert [e["argv"] for e in ENTRIES] == transcript_argv()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_replays_byte_identically(entry):
    assert replay(entry["argv"]) == entry


def test_replays_in_reverse_in_one_process():
    # main reuses one parser for the whole process: no call may leave state
    # in it that changes a later call, whatever the order
    for entry in reversed(ENTRIES):
        assert replay(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    entries = [replay(argv) for argv in transcript_argv()]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} entries to {TRANSCRIPT}")
