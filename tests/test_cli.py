"""CLI behavior: flags, exit codes, JSON/CSV rendering, golden table."""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toeplitz_bounds
from toeplitz_bounds import catalog, cli, oracle
from toeplitz_bounds.bounds import BoundFragment, ClassKind, full_report
from toeplitz_bounds.extremal import ExtremalFunction
from toeplitz_bounds.cli import main, render_json, render_table_csv, table_rows

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_table.csv"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_sine_starlike(self, capsys):
        code, out, _ = run(capsys, "bounds", "--class", "sine", "--kind", "starlike")
        assert code == 0
        assert "1.25" in out
        assert "3.75" in out

    def test_parabolic_convex_flags_t31(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--class", "parabolic", "--kind", "convex",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t22"]["value"] == pytest.approx(0.204083, abs=1e-5)
        assert doc["t22"]["sharp"] is True
        assert doc["t31"]["hypothesis_ok"] is False
        assert doc["t31"]["sharp"] is False

    def test_strict_open_case_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "bounds", "--class", "custom", "--b1", "1", "--b2", "-0.9",
            "--kind", "starlike", "--strict",
        )
        assert code == 2

    def test_both_kinds(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--class", "sine", "--kind", "both",
            "--output", "json",
        )
        assert code == 0
        docs = json.loads(out)
        assert [d["kind"] for d in docs] == ["starlike", "convex"]

    def test_invalid_spec_exits_1(self, capsys):
        code, _, err = run(capsys, "bounds", "--class", "janowski",
                           "--A", "0.2", "--B", "0.8")
        assert code == 1
        assert "error" in err

    def test_missing_params_exit_1(self, capsys):
        code, _, _ = run(capsys, "bounds", "--class", "janowski")
        assert code == 1


class TestJsonRendering:
    def test_roundtrip_byte_identical(self, capsys):
        _, out, _ = run(
            capsys, "bounds", "--class", "limacon", "--kind", "convex",
            "--output", "json",
        )
        assert render_json(json.loads(out)) + "\n" == out

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"a": [value]})

    def test_float_precision(self):
        assert render_json(1 / 3) == "0.33333333333333331"
        assert render_json({"a": True, "b": None}) == (
            '{\n  "a": true,\n  "b": null\n}'
        )


class TestTable:
    def test_matches_golden_file(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_json_row_count(self, capsys):
        code, out, _ = run(capsys, "table", "--output", "json")
        assert code == 0
        assert len(json.loads(out)) == 16

    def test_rows_deterministic(self):
        assert render_table_csv(table_rows()) == render_table_csv(table_rows())

    def test_known_rows(self):
        rows = {(r["class"], r["kind"]): r for r in table_rows()}
        card = rows[("cardioid", "starlike")]
        assert card["T22"] == pytest.approx(265 / 81)
        assert card["T31"] == pytest.approx(200 / 27)
        lim = rows[("limacon", "convex")]
        assert lim["T22"] == pytest.approx(97 / 144)
        assert lim["T31"] == pytest.approx(323 / 144)
        sp = rows[("parabolic", "starlike")]
        assert sp["T22"] == pytest.approx(1.01547, abs=1e-5)
        assert sp["T31"] == pytest.approx(2.74232, abs=1e-5)


class TestExtremalCommand:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--class", "sine", "--kind", "starlike",
            "--output", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 10  # the default
        assert doc["t22_abs"] == pytest.approx(1.25)
        assert doc["residual"] <= 1e-12

    def test_order_floor(self, capsys):
        with pytest.raises(SystemExit):
            main(["extremal", "--class", "sine", "--order", "2"])


class TestFsCommand:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "fs", "--class", "custom", "--b1", "2", "--b2", "2",
            "--kind", "starlike", "--mu", "1", "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(1.0)

    @pytest.mark.parametrize("mu, text", [
        ("-1e-3", "|a3 + 0.001*a2^2| <= 0.501  [starlike]\n"),
        ("-0", "|a3 - 0*a2^2| <= 0.5  [starlike]\n"),
    ])
    def test_human_weight_sign(self, capsys, mu, text):
        # A negative weight once printed as '|a3 - -0.001*a2^2|'; the
        # transcript pins the output for positive weights.
        code, out, _ = run(capsys, "fs", "--class", "sine", "--mu", mu)
        assert (code, out) == (0, text)

    @pytest.mark.parametrize("kind, bound", [
        ("starlike", 5e+99), ("convex", 4.1666666666666667e+198),
    ])
    def test_large_b1(self, capsys, kind, bound):
        # The T2(2) and T3(1) bounds grow like B1^4 and overflow a float
        # here; fs does not print them, so they may not stop it.
        code, out, err = run(capsys, "fs", "--class", "custom", "--b1", "1e100",
                             "--kind", kind, "--mu", "0.5", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["bound"] == bound


class TestVerifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--class", "exp", "--alpha", "0",
            "--kind", "starlike", "--samples", "20000", "--seed", "7",
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_open_case_labeled(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--class", "custom", "--b1", "1", "--b2", "-0.9",
            "--kind", "starlike", "--samples", "20000",
        )
        assert code == 0
        assert "estimate only (open case)" in out

    def test_seed_environment_is_ignored(self, capsys, monkeypatch):
        # the seed is --seed or OracleConfig.seed, whatever the environment holds
        argv = ("verify", "--class", "sine", "--kind", "convex", "--samples", "5000",
                "--output", "json")
        cfg = oracle.OracleConfig(samples=5000)

        def outputs():
            found = oracle.maximize(ClassKind.CONVEX, 1.0, 0.0, ("t22", "t31"), cfg)
            return run(capsys, *argv), found

        monkeypatch.delenv("TOEPLITZ_BOUNDS_SEED", raising=False)
        unset = outputs()
        assert unset[0][0] == 0 and json.loads(unset[0][1])["oracle"]["t22"]["seed"] == 7
        for raw in ("12345", "seven"):
            monkeypatch.setenv("TOEPLITZ_BOUNDS_SEED", raw)
            assert outputs() == unset

    def test_samples_each_shard_once(self, capsys, monkeypatch):
        # T2(2) and T3(1) share one pass of sampling: 8 shards, not 16.
        drawn = []
        sample = oracle._sample_shard

        def counted(seed, shard, n):
            drawn.append(shard)
            return sample(seed, shard, n)

        monkeypatch.setattr(oracle, "_sample_shard", counted)
        code, _, _ = run(capsys, "verify", "--class", "sine", "--samples", "2000")
        assert code == 0
        assert drawn == list(range(8))

    @pytest.mark.parametrize("kind", ["starlike", "convex"])
    @pytest.mark.parametrize("b1, b2", [("100", "10000"), ("1000", "1e6")])
    def test_large_b1_passes(self, capsys, kind, b1, b2):
        # The values grow like B1^4: tolerances are relative to them.
        code, out, _ = run(capsys, "verify", "--class", "custom", "--b1", b1,
                           "--b2", b2, "--kind", kind, "--samples", "2000")
        assert (code, out.count("PASS"), out.count("FAIL")) == (0, 3, 0)


class TestVerifyVerdict:
    """verify's PASS/FAIL edges.  The bound, the extremal values and the
    oracle are stubbed, so each value sits exactly where the test puts it:
    the bound and the extremal value agree within 1e-9 * max(1, |bound|),
    the oracle lies in [bound - tol, bound + 1e-9 * max(1, |bound|)], and
    the residual is at most 1e-10 * max(1, max |a_n|)."""

    SINE = ["verify", "--class", "sine"]

    def verify(self, monkeypatch, capsys, *flags, bound=1.25, ext=None, sup=None,
               res=0.0):
        report = full_report(catalog.TABLE["sine"], ClassKind.STARLIKE)
        frag = BoundFragment(bound, True)
        report = report._replace(t22=frag, t31=frag)
        # max |a_n| = 1, so the residual is measured against 1e-10 itself
        ef = ExtremalFunction(ClassKind.STARLIKE, (0j, 1 + 0j, 0.5j, -0.25 + 0j))
        values = {"t22_abs": bound if ext is None else ext,
                  "t31_abs": bound, "residual": res}
        configs = []

        def maximize(kind, b1, b2, names, cfg):
            configs.append(cfg)
            value = bound if sup is None else sup
            return [oracle.OracleResult(name, 0.0, value, oracle.SchwarzPoint(1j, 0j),
                                        cfg.samples, 7, cfg.polish_steps)
                    for name in names]

        monkeypatch.setattr(cli, "full_report", lambda spec, kind: report)
        monkeypatch.setattr(cli, "_extremal", lambda spec, kind, order: (ef, values))
        monkeypatch.setattr(oracle, "maximize", maximize)
        code, out, err = run(capsys, *self.SINE, *flags)
        assert err == ""
        assert ("FAIL" in out) == (code == 1)
        return code, configs

    def test_defaults(self, monkeypatch, capsys):
        code, configs = self.verify(monkeypatch, capsys)
        assert (code, configs) == (0, [oracle.OracleConfig(200_000, 7, 40)])

    @pytest.mark.parametrize("sup, code", [
        (1.25 - 1e-3, 0),  # the default --tol
        (math.nextafter(1.25 - 1e-3, 0), 1),
        (1.25 + 1e-9 * 1.25, 0),
        (math.nextafter(1.25 + 1e-9 * 1.25, 2), 1),
    ])
    def test_oracle_edges(self, monkeypatch, capsys, sup, code):
        assert self.verify(monkeypatch, capsys, sup=sup)[0] == code

    def test_tol_edge(self, monkeypatch, capsys):
        sup = 1.25 - 0.5
        assert self.verify(monkeypatch, capsys, "--tol", "0.5", sup=sup)[0] == 0
        assert self.verify(monkeypatch, capsys, "--tol", "0.5",
                           sup=math.nextafter(sup, 0))[0] == 1

    def test_extremal_edge(self, monkeypatch, capsys):
        bound = 2.0 ** -40  # below 1, so the allowance is 1e-9 itself
        ext = bound + 1e-9
        assert ext - bound == 1e-9  # exact at this bound
        assert self.verify(monkeypatch, capsys, bound=bound, sup=bound, ext=ext)[0] == 0
        assert self.verify(monkeypatch, capsys, bound=bound, sup=bound,
                           ext=math.nextafter(ext, 1))[0] == 1

    @pytest.mark.parametrize("res, code", [
        (1e-10, 0), (math.nextafter(1e-10, 1), 1),
    ])
    def test_residual_edge(self, monkeypatch, capsys, res, code):
        assert self.verify(monkeypatch, capsys, res=res)[0] == code

    def test_range_checks_accept_their_edge(self, monkeypatch, capsys):
        flags = ["--order", "3", "--samples", "1", "--seed", "0",
                 "--polish-steps", "0", "--tol", "0"]
        code, configs = self.verify(monkeypatch, capsys, *flags)
        assert (code, configs) == (0, [oracle.OracleConfig(1, 0, 0)])


def one_error_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1
    return out.err


@pytest.mark.parametrize("argv", [
    ["bounds", "--class", "custom", "--b1", "1", "--b2", "nan", "--output", "json"],
    ["bounds", "--class", "custom", "--b1", "inf", "--b2", "0", "--output", "json"],
    ["fs", "--class", "sine", "--mu", "nan", "--output", "json"],
    ["verify", "--class", "sine", "--seed", "-1"],
    ["verify", "--class", "sine", "--polish-steps", "-3", "--output", "json"],
    ["verify", "--class", "sine", "--tol", "nan"],
    ["verify", "--class", "sine", "--tol", "-0.001", "--output", "json"],
    ["verify", "--class", "sine", "--tol", "-1e-3"],
    ["bounds", "--class", "nosuch"],
    ["bounds", "--class"],
    ["fs", "--class", "sine"],
    ["bounds", "--class", "sine", "--kind", "sideways"],
    ["table", "--bogus"],
    ["bounds", "--class", "custom", "--b1", "1e77"],
    ["verify", "--class", "custom", "--b1", "1e77", "--samples", "100"],
    ["fs", "--class", "custom", "--b1", "10", "--mu", "1e308"],
    ["fs", "--class", "custom", "--b1", "10", "--mu", "1e308", "--output", "json"],
    ["extremal", "--class", "custom", "--b1", "1e150"],
    ["extremal", "--class", "custom", "--b1", "1e150", "--output", "json"],
], ids=["b2-nan", "b1-inf", "mu-nan", "seed-negative", "polish-steps-negative",
        "tol-nan", "tol-negative", "tol-negative-exponent", "unknown-class",
        "missing-value", "missing-option", "unknown-kind", "unknown-flag",
        "bounds-overflow", "verify-overflow", "fs-overflow", "fs-overflow-json",
        "extremal-overflow", "extremal-overflow-json"])
def test_bad_input_is_one_error_line(capsys, argv):
    err = one_error_line(capsys, argv)
    if "--tol" in argv:
        assert "--tol" in err


@pytest.mark.parametrize("argv", [
    ["fs", "--class", "sine", "--mu", "-1e-3"],
    ["bounds", "--class", "custom", "--b1", "1", "--b2", "-1e-3", "--output", "json"],
    ["bounds", "--class", "custom", "--b1", "1", "--b2", "-0.9", "--kind", "convex"],
])
def test_negative_value_reads_as_number(capsys, argv):
    # argparse alone reads '-1e-3' as an option and stops with a usage text
    i = next(i for i, a in enumerate(argv) if a.startswith("-") and a[1:2].isdigit())
    joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *joined)
    assert code == 0 and out and not err


class TestSharedParser:
    """main builds its parser once per process and reuses it on every call."""

    def test_built_once_for_different_subcommands(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            assert run(capsys, "bounds", "--class", "sine")[0] == 0
            assert run(capsys, "fs", "--class", "sine", "--mu", "0.5")[0] == 0
        finally:
            cli._parser.cache_clear()  # the next call builds from the real build_parser
        assert len(built) == 1

    def test_build_parser_returns_a_new_parser(self, capsys):
        extended = cli.build_parser()
        assert extended is not cli.build_parser()
        extended.add_argument("--extra")
        assert extended.parse_args(["--extra", "1", "table"]).extra == "1"
        # main's parser does not see what a caller added to its own copy
        one_error_line(capsys, ["--extra", "1", "table"])

    def test_error_and_help_leave_no_state(self, capsys):
        argv = ["bounds", "--class", "sine", "--kind", "both"]
        one_error_line(capsys, ["bounds", "--class", "sine", "--kind", "sideways"])
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: toeplitz-bounds")
        code, out, err = run(capsys, *argv)
        src = str(pathlib.Path(toeplitz_bounds.__file__).resolve().parents[1])
        fresh = subprocess.run([sys.executable, "-m", "toeplitz_bounds.cli", *argv],
                               capture_output=True, text=True, timeout=60,
                               env={**os.environ, "PYTHONPATH": src})
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == 0 and out


def test_numpy_loads_only_when_verify_samples():
    # A fresh interpreter, so that no other test has imported numpy yet.
    script = """
import contextlib, io, sys
import toeplitz_bounds, toeplitz_bounds.cli
loaded = ['numpy' in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["bounds", "--class", "sine", "--kind", "both"],
                 ["fs", "--class", "sine", "--mu", "0.5"],
                 ["extremal", "--class", "lune", "--kind", "convex"],
                 ["table"]):
        assert toeplitz_bounds.cli.main(argv) == 0, argv
        loaded.append('numpy' in sys.modules)
    code = toeplitz_bounds.cli.main(
        ["verify", "--class", "sine", "--samples", "2000", "--seed", "7"])
loaded.append('numpy' in sys.modules)
print(code, *loaded)
"""
    src = str(pathlib.Path(toeplitz_bounds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"] + ["False"] * 5 + ["True"]


def test_cold_start_loads_no_dataclasses():
    # dataclasses would pull in inspect (and with it ast, dis and tokenize)
    # and generate its record methods through exec on every cold start.
    script = """
import contextlib, io, sys
import toeplitz_bounds.cli
watched = ('dataclasses', 'inspect')
loaded = [[m for m in watched if m in sys.modules]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["bounds", "--class", "sine", "--kind", "both"],
                 ["fs", "--class", "sine", "--mu", "0.5"],
                 ["extremal", "--class", "lune", "--kind", "convex"],
                 ["table"]):
        assert toeplitz_bounds.cli.main(argv) == 0, argv
        loaded.append([m for m in watched if m in sys.modules])
print(loaded)
"""
    src = str(pathlib.Path(toeplitz_bounds.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr([[]] * 5)


# -- fuzz ------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


FLOATS = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["-1e-3", "1e-3", "-0.9", "1", "0", "-0", "x"]),
)


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["1.5", "nan", "x"]))


SPEC_FLAGS = {f"--{name}": FLOATS for name in ("A", "B", "alpha", "b1", "b2", "b3")}
COMMAND_FLAGS = {
    "bounds": {"--kind": st.sampled_from(["starlike", "convex", "both", "sideways"]),
               "--strict": None},
    "extremal": {"--kind": st.sampled_from(["starlike", "convex", "both"]),
                 "--order": _ints(-3, 40)},
    "fs": {"--kind": st.sampled_from(["starlike", "convex"]), "--mu": FLOATS},
    "verify": {"--kind": st.sampled_from(["starlike", "convex"]),
               "--order": _ints(-3, 40), "--seed": _ints(-3, 2**40),
               "--polish-steps": _ints(-3, 12), "--tol": FLOATS},
    "table": {},
}
CLASSES = [*dict.fromkeys([*catalog.PARAMS, *catalog.TABLE]), "nosuch"]


def test_fuzz_covers_every_flag():
    # COMMAND_FLAGS is written out by hand so that the fuzz checks the
    # table; cli_argv adds --output to every command and --samples to verify.
    assert set(cli.COMMANDS) == set(COMMAND_FLAGS)
    for command, (_, _, flags) in cli.COMMANDS.items():
        extra = {"--output"} | ({"--samples"} if command == "verify" else set())
        assert {flag[0] for flag in flags} == set(COMMAND_FLAGS[command]) | extra


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([*COMMAND_FLAGS, "nosuch"]))
    flags = dict(COMMAND_FLAGS.get(command, {}))
    flags["--output"] = st.sampled_from(["human", "json", "csv", "xml"])
    flags["--bogus"] = None
    argv = [command]
    if command not in ("table", "nosuch") and draw(st.integers(0, 9)):
        cls = draw(st.sampled_from(CLASSES))
        argv += ["--class", cls]
        names = ("b1", "b2", "b3") if cls == "custom" else catalog.PARAMS.get(cls, ())
        needed = [f"--{name}" for name in names]
        flags.update(SPEC_FLAGS)
        argv += [tok for flag in needed if draw(st.integers(0, 9))
                 for tok in (flag, draw(SPEC_FLAGS[flag]))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if command == "verify":
        argv += ["--samples", draw(st.integers(-2, 2000).map(str))]
    if len(argv) > 1 and draw(st.integers(0, 9)) == 0:
        argv.pop()  # a truncated command line: a flag may lose its value
    return argv


@settings(max_examples=120, deadline=None)
@given(cli_argv())
def test_fuzz_output_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if err:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    # exit 2 is a hypothesis failure under --strict, exit 1 a verify FAIL
    assert code == 0 or (code, argv[0]) in ((2, "bounds"), (1, "verify"))
    assert out
    if "json" in argv:  # only --output takes that value
        json.loads(out, parse_constant=_reject_constant)
