"""Command-line front end.

Subcommands::

    bounds    closed-form bounds plus hypothesis verdicts for one phi
    extremal  extremal-function coefficients, Toeplitz values, residual
    verify    bounds vs extremal values vs brute-force oracle
    fs        Fekete-Szego bound |a3 - mu*a2^2| for a given weight
    table     all catalog rows as CSV or JSON

Exit codes: 0 success, 1 usage or spec error (one ``error:`` line on
stderr), 2 hypothesis failure under --strict.  Floats are rendered with
17 significant digits so JSON output round-trips byte-identically.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
from typing import Any

from . import catalog, oracle
from .bounds import BoundReport, ClassKind, fekete_szego, full_report
from .catalog import PhiSpec
from .extremal import ExtremalFunction, h_phi, k_phi, residual
from .oracle import OracleConfig, OracleResult

# verify's tolerances, scaled by max(1, |bound|) and max(1, max |a_n|) so
# that they keep their meaning at large B1: the bounds grow like B1^4 and
# the extremal coefficients faster.  --tol, the oracle's allowed shortfall
# below a sharp bound, stays absolute.
SHARP_TOL = 1e-9
RESIDUAL_TOL = 1e-10


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot render non-finite value {obj} as JSON")
        return format(obj, ".17g")
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def spec_from_args(args) -> PhiSpec:
    kind = args.phi_class
    if kind == "custom":
        coeffs = [args.b1, args.b2, args.b3]
        while coeffs and coeffs[-1] is None:
            coeffs.pop()
        if not coeffs or None in coeffs:
            raise ValueError("--class custom requires --b1 (and optionally --b2, --b3)")
        return catalog.custom(*coeffs)
    needs = catalog.PARAMS.get(kind)
    if not needs:  # a table label or a kind without parameters
        return catalog.TABLE[kind]
    if any(getattr(args, name) is None for name in needs):
        flags = " and ".join(f"--{name}" for name in needs)
        raise ValueError(f"--class {kind} requires {flags}")
    return PhiSpec(kind, **{name: getattr(args, name) for name in needs})


def report_to_json(spec: PhiSpec, report: BoundReport) -> dict:
    return {
        "class": spec.kind,
        "params": spec.describe_params(),
        "kind": report.kind.value,
        "b1": report.b1,
        "b2": report.b2,
        "a2_bound": report.a2_bound,
        "a3_bound": report.a3_bound,
        "t22": {**report.t22._asdict(), "sharp": report.t22.hypothesis_ok},
        "t31": {**report.t31._asdict(), "sharp": report.t31.hypothesis_ok},
        "notes": list(report.notes),
    }


def oracle_to_json(res: OracleResult) -> dict:
    return {
        "functional": res.functional,
        "mu": res.mu,
        "sup_estimate": res.sup_estimate,
        "argmax_w1": [res.argmax.w1.real, res.argmax.w1.imag],
        "argmax_w2": [res.argmax.w2.real, res.argmax.w2.imag],
        "samples": res.samples,
        "seed": res.seed,
        "polish_steps": res.polish_steps,
    }


def _print_human_report(spec: PhiSpec, report: BoundReport) -> None:
    print(f"class {spec.kind} {spec.describe_params() or ''} [{report.kind.value}]")
    print(f"  B1 = {report.b1:.12g}   B2 = {report.b2:.12g}")
    print(f"  |a2| <= {report.a2_bound:.12g}   |a3| <= {report.a3_bound:.12g}")
    for name, frag in (("T2(2)", report.t22), ("T3(1)", report.t31)):
        tag = "sharp" if frag.hypothesis_ok else "estimate only (hypothesis fails)"
        print(f"  |{name}| <= {frag.value:.12g}   [{tag}]")
    for note in report.notes:
        print(f"  note: {note}")


def cmd_bounds(args) -> int:
    spec = spec_from_args(args)
    kinds = list(ClassKind) if args.kind == "both" else [ClassKind.parse(args.kind)]
    reports = [full_report(spec, k) for k in kinds]
    if args.output == "json":
        docs = [report_to_json(spec, r) for r in reports]
        print(render_json(docs[0] if len(docs) == 1 else docs))
    else:
        for r in reports:
            _print_human_report(spec, r)
    if args.strict and any(
        not r.t22.hypothesis_ok or not r.t31.hypothesis_ok for r in reports
    ):
        return 2
    return 0


def _extremal(spec: PhiSpec, kind: ClassKind,
              order: int) -> tuple[ExtremalFunction, float]:
    """The extremal function of ``kind`` and its residual; overflow is an error."""
    ef = (k_phi if kind is ClassKind.STARLIKE else h_phi)(spec, order=order)
    if not all(map(cmath.isfinite, (*ef.coeffs, ef.t22_value, ef.t31_value))):
        raise ValueError(f"the extremal function overflows a float at order {order}")
    return ef, residual(ef, spec)


def cmd_extremal(args) -> int:
    spec = spec_from_args(args)
    kind = ClassKind.parse(args.kind)
    ef, res = _extremal(spec, kind, args.order)
    if args.output == "json":
        doc = {
            "class": spec.kind,
            "params": spec.describe_params(),
            "kind": kind.value,
            "order": ef.order,
            "a2": [ef.a2.real, ef.a2.imag],
            "a3": [ef.a3.real, ef.a3.imag],
            "t22_abs": ef.t22_value,
            "t31_abs": ef.t31_value,
            "residual": res,
        }
        print(render_json(doc))
    else:
        print(f"extremal [{kind.value}] order {ef.order}")
        print(f"  a2 = {ef.a2:.12g}   a3 = {ef.a3:.12g}")
        print(f"  |T2(2)| = {ef.t22_value:.12g}   |T3(1)| = {ef.t31_value:.12g}")
        print(f"  defining-equation residual = {res:.3e}")
    return 0


def cmd_fs(args) -> int:
    spec = spec_from_args(args)
    kind = ClassKind.parse(args.kind)
    rep = full_report(spec, kind)
    value = fekete_szego(kind, rep.b1, rep.b2, args.mu)
    if args.output == "json":
        print(render_json({
            "class": spec.kind,
            "params": spec.describe_params(),
            "kind": kind.value,
            "mu": args.mu,
            "bound": value,
        }))
    else:
        sign = "+" if args.mu < 0 else "-"
        print(f"|a3 {sign} {abs(args.mu):g}*a2^2| <= {value:.12g}  [{kind.value}]")
    return 0


def cmd_verify(args) -> int:
    spec = spec_from_args(args)
    kind = ClassKind.parse(args.kind)
    rep = full_report(spec, kind)
    cfg = OracleConfig(samples=args.samples, seed=args.seed,
                       polish_steps=args.polish_steps)
    ef, res = _extremal(spec, kind, args.order)
    lines = []
    all_ok = True
    frags = {"t22": (rep.t22, ef.t22_value), "t31": (rep.t31, ef.t31_value)}
    found = oracle.maximize(kind, rep.b1, rep.b2, tuple(frags), cfg)
    oracle_docs = {}
    for (name, (frag, ext_val)), orc in zip(frags.items(), found):
        oracle_docs[name] = oracle_to_json(orc)
        if frag.hypothesis_ok:
            tol = SHARP_TOL * max(1.0, abs(frag.value))
            ok = (
                abs(ext_val - frag.value) <= tol
                and frag.value - args.tol <= orc.sup_estimate <= frag.value + tol
            )
            all_ok = all_ok and ok
            lines.append(
                f"{name}: bound {frag.value:.9g}  extremal {ext_val:.9g}  "
                f"oracle {orc.sup_estimate:.9g}  {'PASS' if ok else 'FAIL'}"
            )
        else:
            lines.append(
                f"{name}: formula {frag.value:.9g}  oracle estimate "
                f"{orc.sup_estimate:.9g}  estimate only (open case)"
            )
    res_ok = res <= RESIDUAL_TOL * max(1.0, max(map(abs, ef.coeffs)))
    all_ok = all_ok and res_ok
    lines.append(f"residual: {res:.3e}  {'PASS' if res_ok else 'FAIL'}")
    if args.output == "json":
        doc = report_to_json(spec, rep)
        doc["oracle"] = oracle_docs
        doc["extremal"] = {
            "t22_abs": ef.t22_value,
            "t31_abs": ef.t31_value,
            "residual": res,
        }
        doc["pass"] = all_ok
        print(render_json(doc))
    else:
        for line in lines:
            print(line)
    return 0 if all_ok else 1


def table_rows() -> list[dict]:
    rows = []
    for label, spec in catalog.TABLE.items():
        for kind in ClassKind:
            rep = full_report(spec, kind)
            rows.append({
                "class": label,
                "kind": kind.value,
                "B1": rep.b1,
                "B2": rep.b2,
                "T22_ok": rep.t22.hypothesis_ok,
                "T22": rep.t22.value,
                "T31_ok": rep.t31.hypothesis_ok,
                "T31": rep.t31.value,
            })
    return rows


def render_table_csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])] + [
        ",".join(v if isinstance(v, str) else render_json(v) for v in r.values())
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    rows = table_rows()
    if args.output == "json":
        print(render_json(rows))
    else:
        sys.stdout.write(render_table_csv(rows))
    return 0


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--class", dest="phi_class", required=True,
        choices=list(dict.fromkeys([*catalog.PARAMS, *catalog.TABLE])),
    )
    p.add_argument("--A", type=float, default=None)
    p.add_argument("--B", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--b1", type=float, default=None)
    p.add_argument("--b2", type=float, default=None)
    p.add_argument("--b3", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """Usage errors end in one line and exit 1; exit 2 belongs to --strict."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Pass '--mu -1e-3' as '--mu=-1e-3': argparse reads '-1e-3' as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and token.startswith("-") and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toeplitz-bounds",
        description="Sharp Toeplitz determinant bounds for starlike/convex families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form bounds and hypothesis verdicts")
    _add_spec_args(p)
    p.add_argument("--kind", choices=["starlike", "convex", "both"], default="starlike")
    p.add_argument("--output", choices=["human", "json"], default="human")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any hypothesis fails")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("extremal", help="extremal function coefficients and residual")
    _add_spec_args(p)
    p.add_argument("--kind", choices=["starlike", "convex"], default="starlike")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--output", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("fs", help="Fekete-Szego bound for a weight mu")
    _add_spec_args(p)
    p.add_argument("--kind", choices=["starlike", "convex"], default="starlike")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--output", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_fs)

    p = sub.add_parser("verify", help="check bounds against extremal and oracle")
    _add_spec_args(p)
    p.add_argument("--kind", choices=["starlike", "convex"], default="starlike")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None,
                   help=f"default from ${oracle.SEED_ENV} or 7")
    p.add_argument("--polish-steps", type=int, default=40)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--output", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="all catalog rows")
    p.add_argument("--output", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser: built on the first call, reused by every later one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    if getattr(args, "order", 3) < 3:
        parser.exit(1, "error: --order must be at least 3\n")
    if getattr(args, "samples", 1) < 1:
        parser.exit(1, "error: --samples must be at least 1\n")
    if (getattr(args, "seed", None) or 0) < 0:
        parser.exit(1, "error: --seed must be non-negative\n")
    if getattr(args, "polish_steps", 0) < 0:
        parser.exit(1, "error: --polish-steps must be non-negative\n")
    if not getattr(args, "tol", 0.0) >= 0:
        parser.exit(1, "error: --tol must be a non-negative number\n")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
