"""Command-line front end.

Subcommands construct sequence tables and operators from a JSON config,
run the verification suites, and emit text or JSON. Output is a pure
function of the config, degree, and seed; asserted invariant failures set
the exit status, informational findings never do.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import BadParameterError, UmbralError
from .harness import (
    DEFAULT_SEED,
    SUITES,
    Records,
    exit_status,
    render_json,
    render_text,
    run_suites,
)
from .integration import IntegralOperator, verify_right_inverse
from .operators import (
    OperatorMatrix,
    detect_psi_form,
    dilation,
    divided_difference,
    expand_in_dual_pair,
    forward_difference,
    jackson_operator,
    multiplication_x,
    psi_derivative,
    realize_delta_series,
    xhat_psi,
)
from .poly import SequenceTable, fr, parse_polynomial
from .psi import AdmissibleSequence
from .sequences import (
    basic_sequence_from_series,
    sheffer_sequence,
    verify_binomial_type,
)
from .series import DeltaSeries
from .spectral import orthogonality_report, spectral_operator
from .star import StarContext, poisson_psi_polynomials, poisson_raising_route, star_power, star_product

DEFAULT_FAMILY_DESCRIPTORS = (
    {"family": "classical"},
    {"family": "q_deformed", "q": "2"},
    {"family": "q_deformed", "q": "1/2"},
    {"family": "fibonacci"},
    {"family": "hyperbolic"},
)

# Cost guard: exact work grows steeply with the working degree.
MAX_DEGREE = 64

_BUILTIN_RE = re.compile(r"^(?P<name>[a-zA-Z_]+)(?:\((?P<arg>[^)]+)\))?$")


def _load_config(path) -> dict:
    if path is None:
        return {}
    # bad UTF-8 or JSON, an integer past Python's digit limit, or deep nesting
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise BadParameterError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise BadParameterError("config must be a JSON object")
    return data


# -- config readers: every value a command takes from a config object is read
# and checked here, so bad input has one error path naming its key ----------

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _get(obj: dict, key: str, kind, default, where: str = "config", parse=None):
    """obj[key], which must be of `kind` (a type or a tuple of types; a bool
    never counts), run through `parse`. An absent key gives the default
    (parsed unless None), or an error when the default is _REQUIRED."""
    if key not in obj:
        if default is _REQUIRED:
            raise BadParameterError(f"{where} needs key {key!r}")
        value = default
    else:
        value = obj[key]
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if isinstance(value, bool) or not isinstance(value, kinds):
            what = " or ".join(_KIND_NAMES[k] for k in kinds)
            raise BadParameterError(f"{where} key {key!r} must be {what}")
    return value if parse is None or value is None else parse(value)


def _int(obj: dict, key: str, default, lo: int, hi: int, where: str = "config"):
    value = _get(obj, key, int, default, where)
    if key in obj and not lo <= value <= hi:
        raise BadParameterError(f"{where} key {key!r} must be an integer in {lo}..{hi}")
    return value


def _rational(obj: dict, key: str, default, where: str = "config"):
    return _get(obj, key, (int, str), default, where, fr)


def _rationals(obj: dict, key: str, default, where: str = "config"):
    return _get(obj, key, list, default, where, lambda v: [fr(c) for c in v])


def _polynomial(obj: dict, key: str, default, where: str = "config"):
    return _get(obj, key, str, default, where, parse_polynomial)


def _operator(obj: dict, key: str, default, seq: AdmissibleSequence, degree: int):
    return resolve_operator(_get(obj, key, (str, list, dict), default), seq, degree)


def _list_of(obj: dict, key: str, default, kind: type, what: str, where: str = "config") -> list:
    """obj[key] (or the default), required to be a list of `kind` items."""
    value = obj.get(key, default)
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise BadParameterError(f"{where} key {key!r} must be a list of {what}")
    return value


def _family(obj: dict, degree: int, where: str = "config") -> AdmissibleSequence:
    descriptor = _get(obj, "family", dict, {"family": "classical"}, where)
    return AdmissibleSequence.from_descriptor(descriptor, degree + 1)


def _builtin_operator(name: str, arg, seq: AdmissibleSequence, degree: int) -> OperatorMatrix:
    if name in ("jackson", "dilation"):
        if arg is None:
            raise BadParameterError(f"{name}(q) needs its argument q")
        return jackson_operator(arg, degree) if name == "jackson" else dilation(arg, degree)
    if name == "psi_derivative":
        return psi_derivative(seq, degree)
    if name == "divided_difference":
        return divided_difference(degree)
    if name == "forward_difference":
        return forward_difference(degree)
    if name == "DxD":
        d = psi_derivative(AdmissibleSequence.classical(degree), degree)
        return d.compose(multiplication_x(degree)).compose(d)
    if name == "hyperbolic_Q":
        return psi_derivative(AdmissibleSequence.hyperbolic(degree), degree)
    if name == "multiplication_x":
        return multiplication_x(degree)
    raise BadParameterError(f"unknown builtin operator {name!r}")


def resolve_operator(literal, seq: AdmissibleSequence, degree: int) -> OperatorMatrix:
    """Operator literal: builtin name string (optionally 'name(arg)'),
    a delta-series coefficient list over the config family, or a dict with
    explicit polynomial 'columns' or a 'series' coefficient list."""
    if isinstance(literal, str):
        match = _BUILTIN_RE.match(literal.strip())
        if not match:
            raise BadParameterError(f"bad operator literal {literal!r}")
        arg = fr(match.group("arg")) if match.group("arg") else None
        return _builtin_operator(match.group("name"), arg, seq, degree)
    if isinstance(literal, list):
        literal = {"series": literal}
    if isinstance(literal, dict):
        columns = _list_of(literal, "columns", [], str, "polynomial strings", "operator")
        if columns:
            return OperatorMatrix(tuple(parse_polynomial(text) for text in columns))
        coeffs = _rationals(literal, "series", None, "operator")
        if coeffs is not None:
            base = _family(literal, degree, "operator") if "family" in literal else seq
            series = DeltaSeries.from_list(base, coeffs, degree)
            return realize_delta_series(series.require_delta(), degree)
    raise BadParameterError(f"bad operator literal {literal!r}")


def _emit(args, text: str, payload: dict) -> None:
    if args.fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


# -- subcommands -----------------------------------------------------------


def cmd_sequence(args, config: dict) -> int:
    degree = args.degree
    seq = _family(config, degree)
    q_coeffs = _rationals(config, "series", [0, 1])
    s_coeffs = _rationals(config, "prefactor", None)
    q_series = DeltaSeries.from_list(seq, q_coeffs, degree)
    if s_coeffs is None:
        table = basic_sequence_from_series(q_series, degree).table
        kind = "basic"
    else:
        s_series = DeltaSeries.from_list(seq, s_coeffs, degree)
        table = sheffer_sequence(q_series, s_series, degree).table
        kind = "prefactored"
    lines = [f"family: {seq.label}", f"kind: {kind}", f"N: {degree}"]
    for n, p in enumerate(table):
        lines.append(f"p_{n} = {p.to_text()}")
    payload = {
        "family": seq.descriptor(),
        "kind": kind,
        "N": degree,
        "operator": [str(c) for c in q_coeffs],
        "prefactor": [str(c) for c in s_coeffs] if s_coeffs is not None else None,
        "table": table.to_json(),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_verify(args, config: dict) -> int:
    degree = args.degree
    default = list(DEFAULT_FAMILY_DESCRIPTORS)
    descriptors = _list_of(config, "families", default, object, "family descriptors")
    suites = _list_of(config, "suites", list(SUITES), str, "suite names")
    tables = [
        (
            _get(entry, "label", str, "table", "check_tables"),
            _list_of(entry, "entries", None, list, "coefficient lists", "check_tables"),
            _get(entry, "family", dict, _REQUIRED, "check_tables entry"),
        )
        for entry in _list_of(config, "check_tables", [], dict, "objects")
    ]
    families = [AdmissibleSequence.from_descriptor(d, degree + 1) for d in descriptors]
    reports = run_suites(suites, families, degree, args.seed)

    # optional externally supplied tables, checked against the addition rule
    provided = Records("binomial", degree)
    for label, entries, descriptor in tables:
        table = SequenceTable.from_json(entries)
        seq = AdmissibleSequence.from_descriptor(descriptor, table.bound + 1)
        check = verify_binomial_type(table, seq)
        ident = f"provided-table({label})"
        provided.exact(ident, seq.label, check.passed, check.witness, degree=table.bound)
    reports = sorted(reports + provided, key=lambda r: (r.suite, r.family, r.identity_id))
    _emit(args, render_text(reports), render_json(reports, degree, args.seed))
    return exit_status(reports)


def cmd_expand(args, config: dict) -> int:
    degree = args.degree
    seq = _family(config, degree)
    target = _operator(config, "operator", _REQUIRED, seq, degree)
    if target.bound != degree:
        raise BadParameterError(
            f"operator bound {target.bound} does not match degree {degree}"
        )
    lowering = _operator(config, "lowering", "psi_derivative", seq, degree)
    mode = _get(config, "raiser", str, "graded")
    if mode == "graded":
        raiser = xhat_psi(seq, degree)
    elif mode == "multiplication":
        raiser = multiplication_x(degree)
    else:
        raise BadParameterError(f"unknown raiser mode {mode!r}")
    result = expand_in_dual_pair(target, lowering, raiser)
    reassembles = result.reassembled.columns == target.columns
    lines = [f"family: {seq.label}", f"raiser: {mode}"]
    for n, poly in enumerate(result.coefficients):
        if not poly.is_zero():
            lines.append(f"q_{n} = {poly.to_text()}")
    lines.append(f"reassembles: {'yes' if reassembles else 'no'}")
    payload = {
        "family": seq.descriptor(),
        "raiser": mode,
        "N": degree,
        "coefficients": [p.to_json_list() for p in result.coefficients],
        "reassembles": reassembles,
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if reassembles else 1


def cmd_detect(args, config: dict) -> int:
    degree = args.degree
    seq = _family(config, degree)
    op = _operator(config, "operator", _REQUIRED, seq, degree)
    result = detect_psi_form(op)
    if result.consistent:
        lines = [
            "candidate: " + ", ".join(str(v) for v in result.candidate),
            "series: " + ", ".join(str(c) for c in result.series.coeffs),
            "consistent: yes",
        ]
    else:
        n, k, expected, found = result.violation
        lines = [
            "candidate: " + ", ".join(str(v) for v in result.candidate),
            f"not of psi-form: violation at (n={n}, k={k}): "
            f"expected {expected}, found {found}",
        ]
    payload = {
        "candidate": [str(v) for v in result.candidate],
        "series": [str(c) for c in result.series.coeffs] if result.series else None,
        "consistent": result.consistent,
        "violation": [str(v) for v in result.violation] if result.violation else None,
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_integrate(args, config: dict) -> int:
    degree = args.degree
    seq = _family(config, degree)
    kind = _get(config, "kind", str, "psi")
    if kind == "psi":
        op = IntegralOperator.psi_integral(seq, degree)
    elif kind == "q":
        op = IntegralOperator.q_integral(_rational(config, "q", _REQUIRED), degree)
    elif kind == "r":
        coeffs = _rationals(config, "coefficients", _REQUIRED)
        op = IntegralOperator.r_integral(coeffs, _rational(config, "q", _REQUIRED), degree)
    else:
        raise BadParameterError(f"unknown integral kind {kind!r}")
    p = _polynomial(config, "polynomial", "x")
    integral = op.integrate(p)
    pairing = verify_right_inverse(op, op.partner)
    lines = [
        f"kind: {kind}",
        f"input: {p.to_text()}",
        f"integral: {integral.to_text()}",
        "pairing: verified (window={})".format(pairing.get("window"))
        if pairing["passed"]
        else f"pairing: FAILED {pairing.get('witness')}",
    ]
    payload = {
        "kind": kind,
        "N": degree,
        "input": p.to_json_list(),
        "integral": integral.to_json_list(),
        "pairing_verified": pairing["passed"],
        "window": pairing.get("window"),
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if pairing["passed"] else 1


def cmd_star(args, config: dict) -> int:
    degree = args.degree
    if not any(key in config for key in ("power", "left", "right", "poisson")):
        raise BadParameterError(
            "star needs one of 'power', 'left'/'right', or 'poisson' in the config"
        )
    seq = _family(config, degree)
    ctx = StarContext.create(seq, degree)
    lines = [f"family: {seq.label}"]
    payload = {"family": seq.descriptor(), "N": degree}
    status = 0
    n = _int(config, "power", None, 0, degree)
    if n is not None:
        p = star_power(ctx, n)
        lines.append(f"x^({n}*) = {p.to_text()}")
        payload["power"] = {"n": n, "value": p.to_json_list()}
    if "left" in config or "right" in config:
        left = _polynomial(config, "left", _REQUIRED)
        right = _polynomial(config, "right", _REQUIRED)
        product = star_product(ctx, left, right)
        lines.append(f"product = {product.to_text()}")
        payload["product"] = product.to_json_list()
    block = _get(config, "poisson", dict, None)
    if block is not None:
        lam = _rational(block, "lam", 1, "poisson")
        m_max = _int(block, "m_max", 4, 0, degree, "poisson")
        family = poisson_psi_polynomials(ctx, lam, m_max)
        routes = poisson_raising_route(ctx, lam, m_max)
        agree = all(p == a for p, a in zip(family, routes))
        for m, p in enumerate(family):
            lines.append(f"p_{m} = {p.to_text()}")
        lines.append(f"routes agree: {'yes' if agree else 'no'}")
        payload["poisson"] = {
            "lam": str(lam),
            "entries": [p.to_json_list() for p in family],
            "routes_agree": agree,
        }
        if not agree:
            status = 1
    _emit(args, "\n".join(lines), payload)
    return status


def cmd_spectral(args, config: dict) -> int:
    degree = args.degree
    seq = _family(config, degree)
    kmax = _int(config, "kmax", degree, 0, degree)
    q_series = DeltaSeries.from_list(seq, _rationals(config, "series", [0, 1]), degree)
    s_series = DeltaSeries.from_list(seq, _rationals(config, "prefactor", [1, 1]), degree)
    sheffer = sheffer_sequence(q_series, s_series, degree)
    orth = orthogonality_report(sheffer, kmax=kmax)
    result = spectral_operator(sheffer)
    eigen_ok = all(
        result.definitional.apply(sheffer.table[n]) == sheffer.table[n].scale(n)
        for n in range(degree + 1)
    )
    formula_orders = [t["order"] for t in result.term_agreement if not t["reading_a"]]
    lines = [
        f"family: {seq.label}",
        "orthogonality: {} (kmax={})".format("ok" if orth["passed"] else "FAILED", kmax),
        f"eigen-relation: {'ok' if eigen_ok else 'FAILED'}",
        f"conjugation-route: {'agrees' if result.composition_agrees else 'DISAGREES'}",
        "printed-formula: matches (finding)"
        if not formula_orders
        else f"printed-formula: diverges at order {formula_orders[0]} (finding)",
    ]
    payload = {
        "family": seq.descriptor(),
        "N": degree,
        "orthogonality": orth["passed"],
        "eigen_relation": eigen_ok,
        "conjugation_route": result.composition_agrees,
        "printed_formula_matches": not formula_orders,
        "printed_formula_first_divergence": formula_orders[0] if formula_orders else None,
    }
    _emit(args, "\n".join(lines), payload)
    asserted = orth["passed"] and eigen_ok and result.composition_agrees
    return 0 if asserted else 1


COMMANDS = {
    "sequence": cmd_sequence,
    "verify": cmd_verify,
    "expand": cmd_expand,
    "detect": cmd_detect,
    "integrate": cmd_integrate,
    "star": cmd_star,
    "spectral": cmd_spectral,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config path")
    common.add_argument("--degree", type=int, default=12, metavar="N")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser = argparse.ArgumentParser(
        prog="umbralcalc",
        description="exact operator calculus over generalized integer families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.degree < 2:
            raise BadParameterError("degree bound must be at least 2")
        if args.degree > MAX_DEGREE:
            raise BadParameterError(f"--degree {args.degree} exceeds the limit {MAX_DEGREE}")
        config = _load_config(args.config)
        status = COMMANDS[args.command](args, config)
    except (UmbralError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
