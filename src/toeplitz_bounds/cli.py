"""Command-line front end.

``COMMANDS`` is the one list of subcommands (bounds, extremal, fs, verify,
table) and of their flags: the parser, the range checks and the choice
between JSON and human output are all read from it.

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
from .bounds import (BoundReport, ClassKind, admissible_b12, fekete_szego,
                     full_report)
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


def _head(spec: PhiSpec, kind: ClassKind) -> dict:
    """The opening keys of the bounds, extremal, fs and verify documents."""
    return {"class": spec.kind, "params": spec.describe_params(), "kind": kind.value}


def report_to_json(spec: PhiSpec, report: BoundReport) -> dict:
    return {
        **_head(spec, report.kind),
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


def _human_report(spec: PhiSpec, report: BoundReport) -> str:
    lines = [
        f"class {spec.kind} {spec.describe_params() or ''} [{report.kind.value}]",
        f"  B1 = {report.b1:.12g}   B2 = {report.b2:.12g}",
        f"  |a2| <= {report.a2_bound:.12g}   |a3| <= {report.a3_bound:.12g}",
    ]
    for name, frag in (("T2(2)", report.t22), ("T3(1)", report.t31)):
        tag = "sharp" if frag.hypothesis_ok else "estimate only (hypothesis fails)"
        lines.append(f"  |{name}| <= {frag.value:.12g}   [{tag}]")
    lines += [f"  note: {note}" for note in report.notes]
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> tuple[int, Any, str]:
    spec = spec_from_args(args)
    kinds = list(ClassKind) if args.kind == "both" else [ClassKind(args.kind)]
    reports = [full_report(spec, k) for k in kinds]
    docs = [report_to_json(spec, r) for r in reports]
    failed = args.strict and any(
        not r.t22.hypothesis_ok or not r.t31.hypothesis_ok for r in reports
    )
    return (2 if failed else 0, docs[0] if len(docs) == 1 else docs,
            "".join(_human_report(spec, r) for r in reports))


def _extremal(spec: PhiSpec, kind: ClassKind,
              order: int) -> tuple[ExtremalFunction, dict]:
    """The extremal function of ``kind`` with its |T2(2)|, |T3(1)| and residual;
    overflow is an error."""
    ef = (k_phi if kind is ClassKind.STARLIKE else h_phi)(spec, order=order)
    values = {"t22_abs": ef.t22_value, "t31_abs": ef.t31_value}
    if not all(map(cmath.isfinite, (*ef.coeffs, *values.values()))):
        raise ValueError(f"the extremal function overflows a float at order {order}")
    values["residual"] = residual(ef, spec)
    return ef, values


def cmd_extremal(args) -> tuple[int, Any, str]:
    spec = spec_from_args(args)
    kind = ClassKind(args.kind)
    ef, values = _extremal(spec, kind, args.order)
    a2, a3 = ef.a2, ef.a3
    doc = {**_head(spec, kind), "order": ef.order,
           "a2": [a2.real, a2.imag], "a3": [a3.real, a3.imag], **values}
    return 0, doc, (
        f"extremal [{kind.value}] order {ef.order}\n"
        f"  a2 = {a2:.12g}   a3 = {a3:.12g}\n"
        f"  |T2(2)| = {values['t22_abs']:.12g}   |T3(1)| = {values['t31_abs']:.12g}\n"
        f"  defining-equation residual = {values['residual']:.3e}\n"
    )


def cmd_fs(args) -> tuple[int, Any, str]:
    spec = spec_from_args(args)
    kind = ClassKind(args.kind)
    value = fekete_szego(kind, *admissible_b12(spec), args.mu)
    sign = "+" if args.mu < 0 else "-"
    return 0, {**_head(spec, kind), "mu": args.mu, "bound": value}, (
        f"|a3 {sign} {abs(args.mu):g}*a2^2| <= {value:.12g}  [{kind.value}]\n")


def cmd_verify(args) -> tuple[int, Any, str]:
    spec = spec_from_args(args)
    kind = ClassKind(args.kind)
    rep = full_report(spec, kind)
    cfg = OracleConfig(samples=args.samples, seed=args.seed,
                       polish_steps=args.polish_steps)
    ef, values = _extremal(spec, kind, args.order)
    lines = []
    all_ok = True
    frags = {"t22": (rep.t22, values["t22_abs"]), "t31": (rep.t31, values["t31_abs"])}
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
    res = values["residual"]
    res_ok = res <= RESIDUAL_TOL * max(1.0, max(map(abs, ef.coeffs)))
    all_ok = all_ok and res_ok
    lines.append(f"residual: {res:.3e}  {'PASS' if res_ok else 'FAIL'}")
    doc = {**report_to_json(spec, rep), "oracle": oracle_docs,
           "extremal": values, "pass": all_ok}
    return 0 if all_ok else 1, doc, "\n".join(lines) + "\n"


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


def cmd_table(args) -> tuple[int, Any, str]:
    rows = table_rows()
    return 0, rows, render_table_csv(rows)


# Each flag is (name, argparse kwargs) or (name, argparse kwargs, check, error
# text); main applies the checks in table order after parsing.
KIND = ("--kind", {"choices": ("starlike", "convex"), "default": "starlike"})
OUTPUT = ("--output", {"choices": ("human", "json"), "default": "human"})
ORDER = ("--order", {"type": int, "default": 10},
         lambda n: n >= 3, "--order must be at least 3")

# subcommand -> (handler, help, the flags after the spec flags, in --help order).
# A handler returns (exit code, JSON document, human text); main writes one.
COMMANDS = {
    "bounds": (cmd_bounds, "closed-form bounds and hypothesis verdicts", (
        ("--kind", {"choices": ("starlike", "convex", "both"), "default": "starlike"}),
        OUTPUT,
        ("--strict", {"action": "store_true", "help": "exit 2 if any hypothesis fails"}),
    )),
    "extremal": (cmd_extremal, "extremal function coefficients and residual",
                 (KIND, ORDER, OUTPUT)),
    "fs": (cmd_fs, "Fekete-Szego bound for a weight mu",
           (KIND, ("--mu", {"type": float, "required": True}), OUTPUT)),
    "verify": (cmd_verify, "check bounds against extremal and oracle", (
        KIND, ORDER,
        ("--samples", {"type": int, "default": OracleConfig().samples},
         lambda n: n >= 1, "--samples must be at least 1"),
        ("--seed", {"type": int, "default": OracleConfig().seed},
         lambda n: n >= 0, "--seed must be non-negative"),
        ("--polish-steps", {"type": int, "default": OracleConfig().polish_steps},
         lambda n: n >= 0, "--polish-steps must be non-negative"),
        ("--tol", {"type": float, "default": 1e-3},
         lambda x: x >= 0, "--tol must be a non-negative number"),
        OUTPUT,
    )),
    "table": (cmd_table, "all catalog rows",
              (("--output", {"choices": ("csv", "json"), "default": "csv"}),)),
}


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
    for command, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command != "table":
            p.add_argument("--class", dest="phi_class", required=True,
                           choices=list(dict.fromkeys([*catalog.PARAMS, *catalog.TABLE])))
            for name in ("A", "B", "alpha", "b1", "b2", "b3"):
                p.add_argument(f"--{name}", type=float)
        for name, kwargs, *_ in flags:
            p.add_argument(name, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser: built on the first call, reused by every later one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv))
    handler, _, flags = COMMANDS[args.command]
    for name, _, *check in flags:
        if check and not check[0](getattr(args, name[2:].replace("-", "_"))):
            parser.exit(1, f"error: {check[1]}\n")
    try:
        code, doc, text = handler(args)
        if args.output == "json":
            text = render_json(doc) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
