"""Mutation run over package modules: which one-node changes do the tests miss?

Each mutant changes one node of one module:
  - a binary or augmented ``+``/``-`` or ``*``/``/`` is swapped;
  - a comparison is flipped between strict and non-strict, or ``==``/``!=``;
  - a numeric constant gets 1 added.

The mutated module (``ast.unparse`` of the changed tree) is written into a
temporary copy of the project, never into the checkout, and the given
pytest arguments run there with ``-x`` and a timeout.  A failing run, or
one that times out, kills the mutant.  Before any mutant, the copy runs
once with every target unparsed but unchanged; if that fails, nothing is
reported.  Stdlib only.

    python tools/mutate.py src/toeplitz_bounds/extremal.py
    python tools/mutate.py src/toeplitz_bounds/bounds.py -- -q tests/test_bounds.py

The mutants run one after another, and each one's verdict is printed as
it finishes, so a run that is stopped early keeps a partial score; a
summary per module follows the last.  The timeout of each run is 3x the
unmutated run + 10 s.

Exit status: 0 when every mutant is killed, 1 when some survive, 2 when
the unmutated copy fails its tests.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
NUMBERS = (int, float, complex)  # not bool: type(True) is bool
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")


def sites(tree: ast.AST) -> list[tuple[int, int]]:
    """(node index in ast.walk order, comparison operand or 0) of each mutant,
    in source order."""
    found = []
    for i, node in enumerate(ast.walk(tree)):
        where = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            found.append((where, i, 0))
        elif isinstance(node, ast.Compare):
            found.extend((where, i, k) for k, op in enumerate(node.ops) if type(op) in FLIP)
        elif isinstance(node, ast.Constant) and type(node.value) in NUMBERS:
            found.append((where, i, 0))
    return [(i, k) for _, i, k in sorted(found)]


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The mutated module's source and a ``line N: before -> after`` label."""
    tree = ast.parse(source)
    index, k = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[k] = FLIP[type(node.ops[k])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAP[type(node.op)]()
    return ast.unparse(tree), f"line {node.lineno}: {before} -> {ast.unparse(node)}"


def run_tests(copy: Path, pytest_args: list[str], timeout: float | None) -> bool:
    """True when the tests pass in the copy; a timeout counts as a failure."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no replay across mutants
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-p", "no:cacheprovider", *pytest_args]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("files", nargs="+", type=Path, help="modules under src/ to mutate")
    args = parser.parse_args(argv[:cut])
    pytest_args = argv[cut + 1:] or ["-q"]

    targets = {}  # path relative to ROOT -> original source
    for path in args.files:
        rel = path.resolve()
        if ROOT / "src" not in rel.parents or rel.suffix != ".py" or not rel.is_file():
            parser.error(f"{path} is not a module under src/")
        rel = rel.relative_to(ROOT)
        targets[rel] = (ROOT / rel).read_text()
    mutants = [(rel, site) for rel, source in targets.items()
               for site in sites(ast.parse(source))]

    results = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "copy"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        baseline = {rel: ast.unparse(ast.parse(source)) for rel, source in targets.items()}
        for rel, source in baseline.items():
            (copy / rel).write_text(source)

        start = time.perf_counter()
        if not run_tests(copy, pytest_args, None):
            print("the unmutated copy fails its tests; no mutant was run", file=sys.stderr)
            return 2
        timeout = 3 * (time.perf_counter() - start) + 10
        print(f"{len(mutants)} mutants; tests: pytest -x {' '.join(pytest_args)}; "
              f"timeout {timeout:.0f} s", flush=True)

        for n, (rel, site) in enumerate(mutants, 1):
            mutated, label = mutate(targets[rel], site)
            (copy / rel).write_text(mutated)
            killed = not run_tests(copy, pytest_args, timeout)
            (copy / rel).write_text(baseline[rel])
            results.append((rel, label, killed))
            print(f"[{n}/{len(mutants)}] {rel} {label}: {'killed' if killed else 'SURVIVED'}",
                  flush=True)

    survived = False
    for rel in targets:
        mine = [(label, killed) for r, label, killed in results if r == rel]
        alive = [label for label, killed in mine if not killed]
        print(f"{rel}: {len(mine) - len(alive)} killed, {len(alive)} survived of {len(mine)}")
        for label in alive:
            print(f"  survived {label}")
        survived = survived or bool(alive)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
