"""The benchmark's tracer binds package names by attribute; each must exist.

``perfbench/tracing.py`` wraps every ``(module, attr)`` in its ``LAYERS``
table with ``setattr``.  A rename or removal in the package would break
``perfbench/run.py --trace 1`` without failing any other test, so the
table is read here (the file is only imported, never changed).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layers():
    return [(mod, attr) for bindings in load_tracing().LAYERS.values()
            for mod, attr in bindings]


@pytest.mark.parametrize("mod,attr", layers())
def test_binding_resolves_to_a_callable(mod, attr):
    module = importlib.import_module(f"toeplitz_bounds.{mod}")
    assert callable(getattr(module, attr, None)), f"toeplitz_bounds.{mod}.{attr}"


def test_tracer_counts_a_verify_and_an_extremal(capsys):
    # The tracer reads float(result[0]) of polish and len/.max() of
    # eval_batch; a change to those shapes would break --trace 1 here.
    from toeplitz_bounds import cli

    main = cli.main
    tracer = load_tracing().Tracer()
    watched = ("cli.main", "oracle.maximize", "kernels.polish", "kernels.eval_batch")
    with tracer.installed():
        with tracer.op():
            assert cli.main(["verify", "--class", "sine", "--seed", "7"]) == 0
        # 200 000 draws plus the 8 distinguished points, evaluated once per
        # functional; one polish searches both functionals' candidates
        assert [tracer.calls[name] for name in watched] == [1, 1, 1, 16]
        assert tracer.points == 2 * 200_008
        # the sampled (+-i, 0) already attains both sine bounds
        assert (tracer.maximize_calls, tracer.polish_wins) == (1, 0)
        # b_coeffs in full_report, then one phi(iz) for k_phi and residual
        assert tracer.calls["catalog.phi_series"] == 2
        with tracer.op():
            assert cli.main(["extremal", "--class", "lune", "--order", "100"]) == 0
        assert [tracer.calls[name] for name in watched] == [2, 1, 1, 16]
        assert tracer.points == 2 * 200_008
        assert tracer.calls["catalog.phi_series"] == 2 + 1  # phi(iz) only
    assert tracer.ops == 2
    assert tracer.calls["extremal.recursion"] == tracer.calls["extremal.residual"] == 2
    assert cli.main is main  # every binding restored
    assert capsys.readouterr().out
