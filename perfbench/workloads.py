"""The four workloads: seeded inputs, one call per op, and its check.

Each workload builds one *cycle* of ops from its seed; the timed loop
walks the cycle round and round.  Ops inside a workload cost about the
same, so medians and tails describe one kind of work.  Every op's output
is checked against ``expect`` (closed forms and the golden table), never
against the package itself.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import expect

KINDS = ("starlike", "convex")
# Targets whose expansion is a true power series (not a polynomial), so
# the order-N extremal recursion and compose do O(N^2)/O(N^3) work.
DEEP_TARGETS = ("classical", "janowski", "order-alpha", "exp", "sine", "lune", "parabolic")
SUBPROCESS_TIMEOUT_S = 60


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def parse_json(text: str):
    """JSON as the program printed it; nan/inf tokens make the op fail."""
    return json.loads(text, parse_constant=_reject_constant)


def random_params(rng: random.Random, cls: str) -> dict:
    if cls == "janowski":
        b = rng.uniform(-1.0, 0.9)
        return {"A": min(1.0, b + (1.0 - b) * rng.uniform(0.05, 1.0)), "B": b}
    if cls in ("order-alpha", "exp"):
        return {"alpha": rng.uniform(0.0, 0.95)}
    if cls == "custom":
        return {"b1": rng.uniform(0.2, 3.0), "b2": rng.uniform(-3.0, 3.0)}
    return {}


def spec_argv(cls: str, params: dict) -> list[str]:
    argv = ["--class", cls]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    return argv


def run_python(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from the checkout."""
    env = dict(os.environ)
    env.pop("TOEPLITZ_BOUNDS_SEED", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        cwd=root, timeout=SUBPROCESS_TIMEOUT_S,
    )


class CliOp:
    """One CLI invocation with what its output must show."""

    def __init__(self, command: str, cls: str = "", params: dict | None = None,
                 kind: str = "", extra: tuple[str, ...] = (), output: str = "json"):
        self.command = command
        self.cls = cls
        self.params = params or {}
        self.kind = kind
        self.extra = extra
        self.output = output

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        if self.cls:
            argv += spec_argv(self.cls, self.params)
        if self.kind:
            argv += ["--kind", self.kind]
        return argv + list(self.extra) + ["--output", self.output]

    def b12(self) -> tuple[float, float]:
        return expect.b12(self.cls, self.params)


# -- checks ---------------------------------------------------------------

def _check_report(doc: dict, kind: str, b1: float, b2: float) -> bool:
    t22, t22_ok = expect.t22(kind, b1, b2)
    t31, t31_ok = expect.t31(kind, b1, b2)
    return (
        doc["kind"] == kind
        and expect.close(doc["b1"], b1)
        and expect.close(doc["b2"], b2)
        and expect.close(doc["a2_bound"], b1 if kind == "starlike" else b1 / 2)
        and expect.close(doc["a3_bound"], expect.fekete_szego(kind, b1, b2, 0.0))
        and expect.close(doc["t22"]["value"], t22)
        and doc["t22"]["hypothesis_ok"] is t22_ok
        and expect.close(doc["t31"]["value"], t31)
        and doc["t31"]["hypothesis_ok"] is t31_ok
    )


def _check_table(op: CliOp, text: str, golden: dict) -> bool:
    if op.output == "json":
        rows = parse_json(text)
    else:
        lines = text.splitlines()
        head = lines[0].split(",")
        rows = [dict(zip(head, line.split(","))) for line in lines[1:]]
        for r in rows:
            for key in ("B1", "B2", "T22", "T31"):
                r[key] = float(r[key])
            for key in ("T22_ok", "T31_ok"):
                r[key] = {"true": True, "false": False}[r[key]]
    if len(rows) != len(golden):
        return False
    for r in rows:
        want = golden[(r["class"], r["kind"])]
        for key in ("B1", "B2", "T22", "T31"):
            if not expect.close(r[key], want[key]):
                return False
        if r["T22_ok"] is not want["T22_ok"] or r["T31_ok"] is not want["T31_ok"]:
            return False
    return True


def _check_extremal(doc: dict, op: CliOp, order: int) -> bool:
    b1, b2 = op.b12()
    ok = doc["order"] == order and doc["kind"] == op.kind and doc["residual"] <= 1e-10
    for name, fn in (("t22_abs", expect.t22), ("t31_abs", expect.t31)):
        value, sharp = fn(op.kind, b1, b2)
        if sharp:
            ok = ok and expect.close(doc[name], abs(value), tol=1e-9)
    return ok


def check_cli(op: CliOp, rc: int, out: str, golden: dict) -> bool:
    """Whether one CLI op exited 0 with the expected, finite output."""
    if rc != 0:
        return False
    try:
        if op.command == "table":
            return _check_table(op, out, golden)
        doc = parse_json(out)
        if op.command == "bounds":
            b1, b2 = op.b12()
            docs = doc if isinstance(doc, list) else [doc]
            kinds = KINDS if op.kind == "both" else (op.kind,)
            return len(docs) == len(kinds) and all(
                d["class"] == ("janowski" if op.cls == "classical" else op.cls)
                and _check_report(d, k, b1, b2) for d, k in zip(docs, kinds)
            )
        if op.command == "fs":
            b1, b2 = op.b12()
            mu = float(op.extra[1])
            return expect.close(doc["bound"], expect.fekete_szego(op.kind, b1, b2, mu))
        if op.command == "extremal":
            return _check_extremal(doc, op, int(op.extra[1]))
        if op.command == "verify":
            return _check_verify(doc, op, golden)
    except (KeyError, TypeError, ValueError, IndexError):
        return False
    raise ValueError(f"no check for command {op.command!r}")


def _check_verify(doc: dict, op: CliOp, golden: dict) -> bool:
    b1, b2 = op.b12()
    if doc.get("pass") is not True or doc["extremal"]["residual"] > 1e-10:
        return False
    row = golden.get((op.cls, op.kind))
    for name, fn in (("t22", expect.t22), ("t31", expect.t31)):
        value, sharp = fn(op.kind, b1, b2)
        if row is not None:
            value, sharp = row[name.upper()], row[name.upper() + "_ok"]
        sup = doc["oracle"][name]["sup_estimate"]
        if not (isinstance(sup, (int, float)) and math.isfinite(sup)):
            return False
        if sharp and not (value - 1e-3 <= sup <= value + 1e-9):
            return False
    return True


# -- workloads -------------------------------------------------------------

class Workload:
    """A seeded cycle of ops, the call that runs one, and its check."""

    name = ""
    in_process = True

    def __init__(self, root: Path, seed: int, tiny: bool):
        self.root = root
        self.tiny = tiny
        self.golden = expect.load_golden(root)
        self.cycle = self.make_cycle(random.Random(f"{self.name}:{seed}"))
        if tiny:
            self.cycle = self.cycle[:2]

    def make_cycle(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        """Import the package; untimed.  Calls go through module attributes
        so that the tracer's wrappers see them."""
        from toeplitz_bounds import bounds, catalog, cli

        self.bounds, self.catalog, self.cli = bounds, catalog, cli

    def call(self, op):
        """Run one op in-process; return what ``check`` needs."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue()

    def check(self, op, result) -> bool:
        rc, out = result
        return check_cli(op, rc, out, self.golden)


class CliCold(Workload):
    """Each op is a fresh ``python -m toeplitz_bounds.cli``.  The traced run
    sets ``in_process`` to time the same argv through ``cli.main``."""

    name = "cli-cold"
    in_process = False

    # (command, class, kind) slots; the seed draws parameters, mu and the
    # order, so per-op call counts are the same for every seed.
    SLOTS = (
        ("bounds", "sine", "starlike"), ("bounds", "cardioid", "both"),
        ("bounds", "janowski", "convex"), ("fs", "lune", "starlike"),
        ("fs", "order-alpha", "convex"), ("fs", "custom", "starlike"),
        ("table", "", ""), ("table", "", ""),
        ("extremal", "parabolic", "starlike"), ("extremal", "exp", "convex"),
        ("extremal", "limacon", "starlike"), ("extremal", "nephroid", "convex"),
    )

    def make_cycle(self, rng):
        ops = []
        tables = iter(("csv", "json"))
        for command, cls, kind in self.SLOTS:
            if command == "table":
                ops.append(CliOp("table", output=next(tables)))
                continue
            extra = ()
            if command == "fs":
                extra = ("--mu", repr(rng.uniform(-1.0, 2.0)))
            elif command == "extremal":
                extra = ("--order", "10")
            ops.append(CliOp(command, cls, random_params(rng, cls), kind, extra))
        rng.shuffle(ops)
        return ops

    def prepare(self):
        if self.in_process:
            super().prepare()

    def call(self, op):
        if self.in_process:
            return super().call(op)
        proc = run_python(self.root, ["-m", "toeplitz_bounds.cli", *op.argv])
        return proc.returncode, proc.stdout


# An op's cost depends on its drawn inputs (the oracle's --seed, a target's
# parameters), so a cycle holds several passes over the cells, each with
# its own draws: a run then averages over more draws, and its median moves
# less from one --seed of the benchmark to the next.
PASSES = 3


def passes(rng: random.Random, make_pass) -> list:
    """PASSES shuffled passes; each pass holds every cell once."""
    ops = []
    for _ in range(PASSES):
        one = make_pass()
        rng.shuffle(one)
        ops += one
    return ops


class VerifyOracle(Workload):
    name = "verify-oracle"

    def make_cycle(self, rng):
        cells = list(self.golden) + [("custom", kind) for kind in KINDS]
        fixed = {"exp": {"alpha": 0.0}, "custom": {"b1": 1.0, "b2": -0.9}}

        def make_pass():
            ops = []
            for cls, kind in cells:
                extra = ["--seed", str(rng.randrange(2**31))]
                if self.tiny:
                    extra += ["--samples", "20000"]
                ops.append(CliOp("verify", cls, fixed.get(cls, {}), kind, tuple(extra)))
            return ops

        return passes(rng, make_pass)


class ExtremalDeep(Workload):
    name = "extremal-deep"

    def make_cycle(self, rng):
        order = "30" if self.tiny else "100"
        return passes(rng, lambda: [
            CliOp("extremal", cls, random_params(rng, cls), kind, ("--order", order))
            for cls in DEEP_TARGETS for kind in KINDS
        ])


class SweepRow:
    """One bounds-sweep op: seeded (class, params) entries and their specs."""

    def __init__(self, entries: list[tuple[str, dict]]):
        self.entries = entries
        self.specs: list = []


class BoundsSweep(Workload):
    """Each op is a row of ``full_report`` calls through the library."""

    name = "bounds-sweep"
    ROWS = 8
    SPECS_PER_ROW = 500  # x 2 kinds = 1000 reports per op
    SWEEP_CLASSES = ("custom", "janowski", "order-alpha", "exp")

    def make_cycle(self, rng):
        per_row = 10 if self.tiny else self.SPECS_PER_ROW
        rows = []
        for _ in range(self.ROWS):
            classes = [rng.choice(self.SWEEP_CLASSES) for _ in range(per_row)]
            rows.append(SweepRow([(cls, random_params(rng, cls)) for cls in classes]))
        return rows

    def prepare(self):
        super().prepare()
        cat = self.catalog
        make = {
            "custom": lambda p: cat.custom(p["b1"], p["b2"]),
            "janowski": lambda p: cat.janowski(p["A"], p["B"]),
            "order-alpha": lambda p: cat.order_alpha(p["alpha"]),
            "exp": lambda p: cat.alpha_exponential(p["alpha"]),
        }
        for row in self.cycle:
            row.specs = [make[cls](p) for cls, p in row.entries]
        self.kinds = (self.bounds.ClassKind.STARLIKE, self.bounds.ClassKind.CONVEX)

    def call(self, row):
        return [self.bounds.full_report(spec, kind)
                for spec in row.specs for kind in self.kinds]

    def check(self, row, reports) -> bool:
        pairs = [(entry, kind) for entry in row.entries for kind in KINDS]
        if len(reports) != len(pairs):
            return False
        for ((cls, params), kind), rep in zip(pairs, reports):
            b1, b2 = expect.b12(cls, params)
            t22, t22_ok = expect.t22(kind, b1, b2)
            t31, t31_ok = expect.t31(kind, b1, b2)
            if not (
                rep.kind.value == kind
                and expect.close(rep.b1, b1) and expect.close(rep.b2, b2)
                and expect.close(rep.t22.value, t22) and rep.t22.hypothesis_ok is t22_ok
                and expect.close(rep.t31.value, t31) and rep.t31.hypothesis_ok is t31_ok
            ):
                return False
        return True


WORKLOADS = {w.name: w for w in (CliCold, VerifyOracle, ExtremalDeep, BoundsSweep)}

# The known sine defect: phi_series overflows math.factorial past order 170.
EDGE_PROBES = tuple(
    CliOp("extremal", "sine", {}, kind, ("--order", "200")) for kind in KINDS
)


def edge_failures(wl: Workload) -> int:
    """Run the edge probes in-process, untimed; count the ones that fail."""
    failed = 0
    for op in EDGE_PROBES:
        try:
            rc, out = Workload.call(wl, op)
            failed += not check_cli(op, rc, out, wl.golden)
        except Exception:  # the defect raises out of cli.main
            failed += 1
    return failed
