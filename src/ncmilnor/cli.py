"""Command line front end.

Subcommands: ``validate``, ``census``, ``zeta``, ``euler``, ``motivic``,
``blowup``, ``invariance``, ``recover``, ``monodromy-demo``, ``examples``.
Results go to stdout, diagnostics to stderr, where each library warning is
one ``warning:`` line.  Exit codes: 0 for success (and for "all realizations
equal"), 1 when an invariance check finds a computed inequality, 2 for input
errors.  Pass ``--json`` for machine-readable output.

A command starts in the time of its imports, so this module imports only
``model`` (and through it ``ring``); each subcommand imports the layers it
runs (``milnor``, ``blowup``, ``logspace``) when it is called.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .model import (
    BUILTIN_NAMES,
    InvalidModelError,
    ModelError,
    ModelParseError,
    NCModel,
    builtin_example,
    census,
    load_model,
    parse_json,
    save_model,
)

OK, UNEQUAL, INPUT_ERROR = 0, 1, 2


def _read_text(path: str) -> str:
    """The text of a model or centre file; a file that is not UTF-8 is a
    ``ModelParseError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                              where=path) from None


def _read_model(path: str) -> NCModel:
    return load_model(_read_text(path))


def _emit(payload: dict, text_lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


#: Most ``monodromy-demo`` steps.  The command keeps one table row per step,
#: so without a bound its memory would grow with the value of ``--steps``.
MAX_STEPS = 10_000


def _step_count(text: str) -> int:
    """argparse type for ``--steps``: from 1 to ``MAX_STEPS``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_STEPS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_STEPS}, got {value}")
    return value


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _cmd_validate(args) -> int:
    problems = ()
    try:
        load_model(_read_text(args.model))
    except InvalidModelError as exc:
        problems = exc.violations
    payload = {"command": "validate", "violations": [
        {"where": v.where, "problem": v.problem} for v in problems]}
    if problems:
        _emit(payload, [str(v) for v in problems], args.json)
        return INPUT_ERROR
    _emit(payload, ["ok"], args.json)
    return OK


def _cmd_census(args) -> int:
    model = _read_model(args.model)
    subset = [s for s in args.stratum.split(",") if s]
    record = census(model, subset)
    payload = {
        "command": "census",
        "stratum": list(record.subset),
        "mixed_count": record.mixed_count,
        "pieces": [
            {"tag": p.tag, "shape": p.shape, "finite": list(p.finite)}
            for p in record.pieces
        ],
    }
    lines = [f"stratum {{{', '.join(record.subset)}}}: {len(record.pieces)} pieces, "
             f"{record.mixed_count} mixed"]
    lines += [f"  {p.tag:5s} {p.shape}" for p in record.pieces]
    _emit(payload, lines, args.json)
    return OK


def _cmd_zeta(args) -> int:
    from .milnor import acampo_zeta

    zeta = acampo_zeta(_read_model(args.model))
    payload = {"command": "zeta", "factors": [list(f) for f in zeta], "text": str(zeta)}
    _emit(payload, [str(zeta)], args.json)
    return OK


def _cmd_euler(args) -> int:
    from .milnor import milnor_fibre_euler

    value = milnor_fibre_euler(_read_model(args.model))
    _emit({"command": "euler", "value": value}, [str(value)], args.json)
    return OK


def _cmd_motivic(args) -> int:
    from .milnor import absolute_from_keyed, keyed_class, motivic_terms

    model = _read_model(args.model)
    terms = motivic_terms(model)
    keyed = keyed_class(model)
    absolute = absolute_from_keyed(keyed)
    payload = {
        "command": "motivic",
        "terms": [
            {"stratum": list(t.subset), "sign": t.sign, "order": t.gcd_key,
             "class": list(t.stratum_cls.coeffs), "torus_exponent": t.torus_exponent}
            for t in terms
        ],
        "keyed": {str(k): list(p.coeffs) for k, p in keyed},
        "absolute": list(absolute.coeffs),
    }
    lines = ["terms:"]
    for t in terms:
        lines.append(f"  {{{', '.join(t.subset)}}}: sign {t.sign:+d}, order {t.gcd_key}, "
                     f"class {t.stratum_cls}, torus exponent {t.torus_exponent}")
    lines.append(f"keyed class (diagnostic, not blow-up invariant): {keyed}")
    lines.append(f"absolute class: {absolute}")
    _emit(payload, lines, args.json)
    return OK


def _cmd_blowup(args) -> int:
    from .blowup import apply_blowup, load_center

    model = _read_model(args.model)
    center = load_center(_read_text(args.center))
    blown = apply_blowup(model, center)
    Path(args.out).write_text(save_model(blown), encoding="utf-8")
    payload = {
        "command": "blowup",
        "out": args.out,
        "new_component": center.new_component_id,
        "multiplicity": blown.multiplicity(center.new_component_id),
        "strata": len(blown.strata),
    }
    lines = [f"wrote {args.out}: component {center.new_component_id} with multiplicity "
             f"{payload['multiplicity']}, {payload['strata']} strata"]
    _emit(payload, lines, args.json)
    return OK


def _cmd_invariance(args) -> int:
    from .blowup import check_invariance, load_center

    model = _read_model(args.model)
    center = load_center(_read_text(args.center))
    report = check_invariance(model, center)
    payload = {
        "command": "invariance",
        "zeta": {"before": str(report.zeta_before), "after": str(report.zeta_after),
                 "equal": report.zeta_invariant},
        "euler": {"before": report.euler_before, "after": report.euler_after,
                  "equal": report.euler_invariant},
        "absolute": {"before": list(report.absolute_before.coeffs),
                     "after": list(report.absolute_after.coeffs),
                     "equal": report.absolute_invariant},
        "keyed_delta": {str(k): list(p.coeffs) for k, p in report.keyed_delta},
        "all_equal": report.all_invariant,
    }
    verdict = lambda flag: "equal" if flag else "NOT EQUAL"
    lines = [
        f"zeta:     {report.zeta_before}  ->  {report.zeta_after}"
        f"  [{verdict(report.zeta_invariant)}]",
        f"euler:    {report.euler_before}  ->  {report.euler_after}"
        f"  [{verdict(report.euler_invariant)}]",
        f"absolute: {report.absolute_before}  ->  {report.absolute_after}"
        f"  [{verdict(report.absolute_invariant)}]",
        f"keyed delta (informational): {report.keyed_delta}",
        "all realizations equal" if report.all_invariant else "INVARIANCE FAILURE",
    ]
    _emit(payload, lines, args.json)
    return OK if report.all_invariant else UNEQUAL


def _cmd_recover(args) -> int:
    from .logspace import LogspaceError, chart_context, recover_multiplicities, sign_oracle

    model = _read_model(args.model)
    ctx = chart_context(model, args.chart)
    try:
        base = [complex(re, im) for re, im in parse_json(args.point)]
    except (TypeError, ValueError) as exc:
        raise LogspaceError(f"bad base point: {exc}") from None
    oracle = sign_oracle(ctx, base)
    coords = [c for c in sorted(ctx.divisor_coords()) if base[c] == 0]
    windings, phase = recover_multiplicities(oracle, len(coords), args.samples)
    ids = ctx.divisor_coords()
    expected = [ctx.multiplicity(c) for c in coords]
    payload = {
        "command": "recover",
        "windings": [
            {"coordinate": c, "component": ids[c], "winding": w, "multiplicity": m}
            for c, w, m in zip(coords, windings, expected)
        ],
        "phase": _complex_pair(phase),
        "match": list(windings) == expected,
    }
    lines = [
        f"coordinate {c} ({ids[c]}): winding {w}, model multiplicity {m}"
        for c, w, m in zip(coords, windings, expected)
    ]
    lines.append(f"recovered unit phase: {_fmt_complex(phase)}")
    lines.append("windings match multiplicities" if payload["match"]
                 else "WINDING MISMATCH")
    _emit(payload, lines, args.json)
    return OK if payload["match"] else UNEQUAL


def _cmd_monodromy_demo(args) -> int:
    import cmath

    from .logspace import (
        chart_context,
        monodromy,
        point_from_json,
        sign_f,
        simplex_representative,
    )

    model = _read_model(args.model)
    ctx = chart_context(model, args.chart)
    point = point_from_json(ctx, parse_json(args.point))
    point = simplex_representative(point)
    start = sign_f(point)
    rows = []
    for step in range(args.steps + 1):
        lam = step / args.steps
        actual = sign_f(monodromy(point, lam))
        predicted = cmath.exp(2j * cmath.pi * lam) * start
        rows.append((lam, actual, predicted, abs(actual - predicted)))
    payload = {
        "command": "monodromy-demo",
        "rows": [
            {"lambda": lam, "sign_f": _complex_pair(actual),
             "predicted": _complex_pair(predicted), "gap": gap}
            for lam, actual, predicted, gap in rows
        ],
        "max_gap": max(gap for *_, gap in rows),
    }
    lines = ["lambda    sign f                          predicted                       gap"]
    for lam, actual, predicted, gap in rows:
        lines.append(f"{lam:<8.6g}  {_fmt_complex(actual):<30s}  "
                     f"{_fmt_complex(predicted):<30s}  {gap:.3g}")
    lines.append(f"max gap {payload['max_gap']:.3g}")
    _emit(payload, lines, args.json)
    return OK


def _cmd_examples(args) -> int:
    model = builtin_example(args.name)
    Path(args.out).write_text(save_model(model), encoding="utf-8")
    payload = {"command": "examples", "name": args.name, "out": args.out}
    _emit(payload, [f"wrote {args.name} to {args.out}"], args.json)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncmilnor",
        description="Milnor-fibration invariants of normal-crossing models.")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a model document's invariants")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("census", help="decompose the complete-space fibre over a stratum")
    p.add_argument("model")
    p.add_argument("--stratum", required=True,
                   help="comma-separated component ids")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("zeta", help="monodromy zeta factorization")
    p.add_argument("model")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("euler", help="Euler characteristic of the Milnor fibre")
    p.add_argument("model")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("motivic", help="motivic terms, keyed class, absolute class")
    p.add_argument("model")
    p.set_defaults(func=_cmd_motivic)

    p = sub.add_parser("blowup", help="apply a blow-up and write the new model")
    p.add_argument("model")
    p.add_argument("--center", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("invariance",
                       help="blow up and compare the invariant realizations")
    p.add_argument("model")
    p.add_argument("--center", required=True)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("recover",
                       help="winding-number report for a chart's phase oracle")
    p.add_argument("model")
    p.add_argument("--chart", type=int, default=0)
    p.add_argument("--point", required=True,
                   help='base point as JSON [[re, im], ...]')
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("monodromy-demo",
                       help="trace sign f along the monodromy flow")
    p.add_argument("model")
    p.add_argument("--chart", type=int, default=0)
    p.add_argument("--point", required=True,
                   help='point as JSON {"base": [[re, im], ...], "polar": '
                        '[{"i": k, "r": value or "inf", "theta": [re, im]}]}')
    p.add_argument("--steps", type=_step_count, default=8)
    p.set_defaults(func=_cmd_monodromy_demo)

    p = sub.add_parser("examples", help="write a built-in example model")
    p.add_argument("--name", required=True,
                   help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # recorded, so that a filter turning warnings into errors cannot change the exit code
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = args.func(args)
        except (ModelError, OSError) as exc:  # LogspaceError is a ModelError
            print(f"error: {exc}", file=sys.stderr)
            code = INPUT_ERROR
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
