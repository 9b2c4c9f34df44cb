"""Every public function, class, method and module constant in src/ has a
production caller.

Code that only the tests run is deleted, or moved into the tests as a
reference.  A definition counts as called when its name is reachable from
a root:

- the module-level code of a src/ module (``__init__`` only re-exports, and
  an import is not a call);
- the benchmark's tracer bindings (``LAYERS`` in perfbench/tracing.py);
- any name the perfbench sources use, such as ``order_alpha``;
- the ``[project.scripts]`` entry point, ``cli.main``.

A name reached this way makes the names used in its body reachable in turn.
A module constant's value runs on import, so what it uses is reached; the
constant itself must be read.
Names are matched as identifiers, not resolved to their module, so the
guard errs toward "called": what it flags has no caller.
"""

import ast
import tomllib
from pathlib import Path

import toeplitz_bounds

from test_perfbench_bindings import layers

SRC = Path(toeplitz_bounds.__file__).parent
REPO = SRC.parent.parent


def identifiers(nodes) -> set[str]:
    """The names and attributes read anywhere in the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def src_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def roots() -> dict[str, set[str]]:
    """The names used from outside src/, by kind of caller."""
    scripts = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]["scripts"]
    perfbench = [ast.parse(path.read_text()) for path in (REPO / "perfbench").glob("*.py")]
    return {
        "tracer": {attr for _, attr in layers()},
        "perfbench": identifiers(perfbench),
        "scripts": {entry.split(":")[1] for entry in scripts.values()},
    }


def uncalled(sources: dict[str, str], used: set[str]) -> set[str]:
    """The public definitions in `sources` (module name -> text) that no
    name in `used`, nor any module-level code, reaches."""
    used = set(used)
    defs = []  # (qualified name, name, names read in its body)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                # dunder methods run with the class; the others are reached by name
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not m.name.startswith("__")]
                rest = [m for m in node.body if m not in methods]
                defs.append((f"{module}.{node.name}", node.name,
                             identifiers(rest + node.bases + node.decorator_list)))
                defs += [(f"{module}.{node.name}.{m.name}", m.name, identifiers([m]))
                         for m in methods]
            elif isinstance(node, ast.FunctionDef):
                defs.append((f"{module}.{node.name}", node.name, identifiers([node])))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(f"{module}.{t.id}", t.id, set()) for t in targets
                         if isinstance(t, ast.Name)]
                used |= identifiers([node.value])
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= identifiers([node])
    reached = 0
    while reached != len(used):
        reached = len(used)
        for _, name, body in defs:
            if name in used:
                used |= body
    return {qual for qual, name, _ in defs if name not in used and not name.startswith("_")}


def all_roots() -> set[str]:
    return set().union(*roots().values())


def test_every_public_name_has_a_caller():
    assert uncalled(src_sources(), all_roots()) == set()


PROBE = '''
PROBE_UNREAD = 1
PROBE_SCALE = 2


class Probe:
    def probe_method(self):
        return probe_helper()


def probe_function(probe):
    return probe.probe_method() * PROBE_SCALE


def probe_helper():
    return 1
'''


def test_guard_flags_a_name_without_caller():
    sources = {**src_sources(), "probe": PROBE}
    assert uncalled(sources, all_roots()) == {
        "probe.Probe", "probe.Probe.probe_method", "probe.probe_function",
        "probe.probe_helper", "probe.PROBE_UNREAD", "probe.PROBE_SCALE"}
    # a caller reaches what its body uses, and that in turn
    assert uncalled(sources, all_roots() | {"probe_function"}) == {
        "probe.Probe", "probe.PROBE_UNREAD"}


def test_caller_scan_sees_the_known_callers():
    """The guard is only as good as its scan: each kind of root must be seen,
    and so must the calls between src/ modules."""
    found = roots()
    assert ("series", "compose") in set(layers()) and "compose" in found["tracer"]
    assert "order_alpha" in found["perfbench"]
    assert found["scripts"] == {"main"}
    # without its only caller, each of these would be flagged
    assert "series.compose" in uncalled(src_sources(), found["perfbench"] | found["scripts"])
    assert "catalog.order_alpha" in uncalled(src_sources(), found["tracer"] | found["scripts"])
    # series is reached from catalog and extremal alone
    assert not {"series.from_coeffs", "series.mul", "series.sqrt1p",
                "series.max_abs_diff"} & uncalled(src_sources(), set())
