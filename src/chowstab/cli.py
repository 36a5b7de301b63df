"""Command-line surface: thin certified shell over the library.

Every subcommand maps one-to-one onto a library operation and emits a
certificate document, either human-readable or as deterministic JSON
(sorted keys; by default timing_ms is 0 so identical inputs give
byte-identical output, pass --timing to record wall time instead).
Randomized commands require an explicit --seed.  The subcommands are
declared in one table, COMMANDS; the parser is built from it.

Exit codes: 0 success, 2 usage/parse errors, 3 precondition violations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .cycles import multiple_cycle, sum_cycles
from .discriminants import cyclic_critical_exponent, discriminant_binary, \
    quartic_st, singular_locus_enumerate, smoothness_binary, sylvester_resultant
from .errors import ChowstabError, ParseError
from .fields import ZZ, PrimeFieldElem, domain_from_tag, domain_tag
from .poly import Poly, parse_poly
from .stability import BracketSupport, SearchBudget, StabilityCertificate, \
    destab_search, lee_ratio, mu_bracket, mu_hypersurface, \
    torus_certificate, WeightVector
from .thresholds import INFINITY, blowup_discrepancy, fpt_interval, \
    lct_bound_optimize, lct_upper_bound, lee_verdict

SCHEMA_VERSION = "1"


def jsonable(x):
    """Map library values onto deterministic JSON-encodable structures."""
    if isinstance(x, Fraction):
        return str(x)
    if x == INFINITY and isinstance(x, float):
        return "inf"
    if isinstance(x, PrimeFieldElem):
        return x.residue
    if isinstance(x, Poly):
        return x.to_string()
    if isinstance(x, WeightVector):
        return list(x.entries)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, str) \
            or x is None:
        return x
    if hasattr(x, "value") and isinstance(getattr(x, "value"), str):  # Enum
        return x.value
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return str(x)


# -- small input parsers -------------------------------------------------------


def _parse_int_csv(text: str) -> list:
    try:
        return [int(t.strip()) for t in text.split(",")]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}")


def _parse_int_tuple(text: str) -> tuple:
    return tuple(_parse_int_csv(text))


def _parse_weights(text: str) -> WeightVector:
    return WeightVector(_parse_int_tuple(text))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational like 5/6, got {text!r}")


def _parse_bound(text: str):
    """A rational, or inf: a threshold bound may be infinite."""
    return INFINITY if text.strip() == "inf" else _parse_rational(text)


def _parse_rational_csv(text: str) -> list:
    return [_parse_rational(t) for t in text.split(",")]


def _parse_bracket_tuples(text: str) -> list:
    """Parse '{0,1},{0,1};{0,2},{1,3}' into a list of subset tuples."""
    tuples = []
    for chunk in text.split(";"):
        groups = re.findall(r"\{([^}]*)\}", chunk)
        if not groups:
            raise ParseError(f"no subsets found in {chunk!r}")
        tuples.append(tuple(tuple(_parse_int_csv(g)) for g in groups))
    return tuples


def read_poly_file(path: str) -> tuple:
    """Read a polynomial file: header 'vars=N field=TAG', body in the grammar.

    Returns (poly, domain); parse errors carry line and column.
    """
    with open(path, "r", encoding="utf-8") as handle:
        content = handle.read()
    lines = content.splitlines()
    if not lines:
        raise ParseError("empty polynomial file", line=1, position=1)
    header = lines[0].strip()
    match = re.fullmatch(r"vars=(\d+)\s+field=(\S+)", header)
    if not match:
        raise ParseError("expected header 'vars=<N> field=<q|fp:P>'",
                         line=1, position=1)
    nvars = int(match.group(1))
    domain = domain_from_tag(match.group(2))
    body = "\n".join(lines[1:])
    if not body.strip():
        raise ParseError("missing polynomial body", line=2, position=1)
    try:
        poly = parse_poly(body, nvars, domain)
    except ParseError as exc:
        pos = exc.position or 1
        consumed = body[:pos - 1]
        line = 2 + consumed.count("\n")
        col = pos - (consumed.rfind("\n") + 1)
        raise ParseError(exc.message, line=line, position=col) from None
    return poly, domain


def _load_poly(args) -> tuple:
    """Fetch the polynomial from --in FILE or from --poly/--nvars/--field."""
    if args.in_file is not None:
        return read_poly_file(args.in_file)
    if args.poly is None:
        raise ParseError("--poly or --in is required")
    if args.nvars is None:
        raise ParseError("--nvars is required with --poly")
    domain = domain_from_tag(args.field)
    return parse_poly(args.poly, args.nvars, domain), domain


# -- the command table -----------------------------------------------------------


class Option(NamedTuple):
    """One subcommand option: argparse flags and keywords, plus how run()
    treats its value."""

    flags: tuple
    kwargs: dict
    dest: str
    convert: Optional[Callable]  # applied to the value before the command
    signed: bool  # the value may start with '-' (a number or a polynomial)


def _opt(*flags, convert=None, signed=False, **kwargs) -> Option:
    dest = kwargs.get("dest", flags[0].lstrip("-").replace("-", "_"))
    return Option(flags, kwargs, dest, convert, signed)


class Command(NamedTuple):
    """One subcommand.

    compute(args) returns (inputs, result) for the certificate document.
    With poly set, the command takes --nvars/--field/--poly/--in, args.poly
    is the loaded polynomial, and inputs gain its poly and field.
    """

    name: str
    help: str
    compute: Callable
    options: tuple = ()
    poly: bool = False


_POLY_OPTIONS = (
    _opt("--nvars", type=int, default=None,
         help="number of variables (x0..x{N-1})"),
    _opt("--field", default="q", help="coefficient field: q, z, or fp:P"),
    _opt("--poly", default=None, signed=True, help="polynomial text"),
    _opt("--in", dest="in_file", default=None,
         help="polynomial file with a vars/field header"),
)
_N = _opt("--n", type=int, required=True)
_D = _opt("--d", type=int, required=True)
_W = _opt("--w", required=True, convert=_parse_int_tuple, signed=True)
# last in each command's options, where --help lists it (see _at_charts)
_POINTS = _opt("--points", default=None, signed=True)


def _options(cmd: Command) -> tuple:
    return (_POLY_OPTIONS if cmd.poly else ()) + cmd.options


def _certificate_result(cert: StabilityCertificate) -> dict:
    result = {"verdict": cert.verdict.value}
    if cert.witness_r is not None:
        result["witness_r"] = cert.witness_r
    if cert.witness_g is not None:
        result["witness_g"] = [list(row) for row in cert.witness_g]
    if cert.mu_value is not None:
        result["mu"] = cert.mu_value
    if cert.lp_value is not None:
        result["lp_value"] = cert.lp_value
    if cert.search_budget_used is not None:
        result["search_budget_used"] = cert.search_budget_used.as_dict()
        result["note"] = ("unknown_after_search is not a stability proof"
                          if cert.verdict.value == "unknown_after_search"
                          else "witness found by bounded search")
    return result


def _mu_bracket(a):
    # --r is read only after the support is built, so that a bad support is
    # the error reported when both are bad
    bracket = BracketSupport.build(a.n, a.cycle_dim, a.d,
                                   _parse_bracket_tuples(a.tuples))
    r = _parse_weights(a.r)
    return ({"n": a.n, "cycle_dim": a.cycle_dim, "d": a.d,
             "tuples": sorted(map(list, bracket.tuples)), "r": r},
            {"mu": mu_bracket(bracket, r)})


def _lee_ratio(a):
    res = lee_ratio(a.poly, a.r)
    return {"r": a.r}, {"w_f": res.w_f, "sum_wxI": res.sum_wxI,
                        "ratio": res.ratio}


def _search_destab(a):
    budget = SearchBudget(max_candidates=a.max_candidates,
                          transvection_scalars=a.scalars,
                          depth=a.depth, seed=a.seed)
    cert = destab_search(a.poly, budget)
    return ({"budget": {"max_candidates": budget.max_candidates,
                        "scalars": list(budget.transvection_scalars),
                        "depth": budget.depth, "seed": budget.seed}},
            _certificate_result(cert))


def _sum(a):
    if a.poly2 is None:
        raise ParseError("--poly2 is required")
    other = parse_poly(a.poly2, a.poly.nvars, a.poly.domain)
    total = sum_cycles(a.poly, other)
    return {"poly2": other}, {"poly": total, "degree": total.homogeneous_degree}


def _power(a):
    power = multiple_cycle(a.poly, a.m)
    return {"m": a.m}, {"poly": power, "degree": power.homogeneous_degree}


def _at_charts(a, at_chart, key: str, min_key: str) -> dict:
    """Run at_chart at the origin, or at each chart origin in --points and
    report the least value of result[key] as result[min_key]."""
    if not a.points:
        return at_chart(a.poly)
    outcomes = []
    for chunk in a.points.split(";"):
        point = _parse_rational_csv(chunk)
        outcomes.append({"point": point, **at_chart(a.poly.translate(point))})
    return {"per_point": outcomes, min_key: min(r[key] for r in outcomes)}


def _lct_bound(a):
    return ({"w": list(a.w), "points": a.points},
            _at_charts(a, lambda f: {"bound": lct_upper_bound(f, a.w)},
                       "bound", "min_bound"))


def _lct_optimize(a):
    def at_chart(f):
        best = lct_bound_optimize(f, a.max_weight)
        return {"best_bound": best.best_bound, "best_w": list(best.best_w)}

    return ({"max_weight": a.max_weight, "points": a.points},
            _at_charts(a, at_chart, "best_bound", "min_bound"))


def _fpt(a):
    def at_chart(f):
        interval = fpt_interval(f, a.emax)
        return {"lower": interval.lower, "upper": interval.upper,
                "kind": interval.kind,
                "nu_by_e": [list(x) for x in interval.provenance["nu_by_e"]]}

    return ({"emax": a.emax, "points": a.points},
            _at_charts(a, at_chart, "lower", "min_lower"))


def _lee_verdict(a):
    verdict = lee_verdict(a.n, a.d, a.bound, a.bound_kind)
    return ({"n": a.n, "d": a.d, "bound": a.bound,
             "bound_kind": a.bound_kind},
            {"verdict": verdict.outcome.value,
             "threshold": verdict.threshold,
             "boundary": verdict.boundary,
             "note": "lower bound must be certified globally by the caller"})


def _resultant(a):
    domain = domain_from_tag(a.field)
    p = parse_poly(a.p, 2, domain)
    q = parse_poly(a.q, 2, domain)
    value = sylvester_resultant(p, q, a.degp, a.degq)
    return ({"p": p, "q": q, "field": domain_tag(domain),
             "degp": a.degp, "degq": a.degq},
            {"resultant": value})


def _disc(a):
    if a.mode == "generic":
        poly = discriminant_binary(a.d, "generic")
        return ({"d": a.d, "mode": "generic"},
                {"discriminant": poly.to_string(var="a"),
                 "variables": [f"a{i}" for i in range(a.d + 1)]})
    if a.poly is None:
        raise ParseError("numeric mode requires --poly")
    domain = domain_from_tag(a.field)
    form = parse_poly(a.poly, 2, domain)
    value = discriminant_binary(a.d, "numeric", form)
    return ({"d": a.d, "mode": "numeric", "poly": form,
             "field": domain_tag(domain)},
            {"discriminant": value})


def _quartic_st(a):
    domain = domain_from_tag(a.field) if a.field else ZZ
    res = quartic_st(a.coeffs, domain)
    return ({"coeffs": [Fraction(c) for c in a.coeffs],
             "field": domain_tag(domain)},
            {"S": res.S, "T": res.T, "D": res.D})


def _singular_points(a):
    points = singular_locus_enumerate(a.poly, a.ext,
                                      include_form=a.with_form)
    return ({"ext": a.ext, "with_form": a.with_form},
            {"points": [str(pt) for pt in points],
             "count": len(points),
             "semi_decision": True,
             "note": ("empty output does not prove emptiness over "
                      "the algebraic closure")})


def _cyclic_exponent(a):
    value = cyclic_critical_exponent(a.n, a.d)
    return {"n": a.n, "d": a.d}, {"exponent": value, "degenerate": value == 0}


# Library calls are made inside these functions, so a name patched on this
# module (a test double, a tracer) is seen by every subcommand.
COMMANDS = (
    Command("mu", "numerical weight minimum of a form",
            lambda a: ({"r": a.r}, {"mu": mu_hypersurface(a.poly, a.r)}),
            (_opt("--r", required=True, convert=_parse_weights, signed=True,
                  help="weights, e.g. '-1,0,1'"),),
            poly=True),
    Command("mu-bracket", "weight minimum of a bracket support", _mu_bracket,
            (_N, _opt("--cycle-dim", type=int, required=True), _D,
             _opt("--tuples", required=True,
                  help="e.g. '{0,1},{0,1};{0,2},{1,3}'"),
             _opt("--r", required=True, signed=True))),
    Command("lee-ratio", "chart-weight ratio against d/(n+1)", _lee_ratio,
            (_opt("--r", required=True, convert=_parse_weights,
                  signed=True),),
            poly=True),
    Command("certify-torus", "exact diagonal-torus stability verdict",
            lambda a: ({}, _certificate_result(torus_certificate(a.poly))),
            poly=True),
    Command("search-destab",
            "bounded search for destabilizing coordinate changes",
            _search_destab,
            (_opt("--seed", type=int, required=True),
             _opt("--max-candidates", type=int, default=2000),
             _opt("--scalars", default="1,-1", convert=_parse_int_tuple,
                  signed=True),
             _opt("--depth", type=int, default=2)),
            poly=True),
    Command("sum", "Chow form of a sum (product)", _sum,
            (_opt("--poly2", default=None, signed=True),), poly=True),
    Command("power", "Chow form of a multiple (power)", _power,
            (_opt("-m", type=int, required=True),), poly=True),
    Command("lct-bound",
            "weighted upper bound for the threshold at the origin",
            _lct_bound,
            (_W, _opt("--points", default=None, signed=True,
                      help="extra chart origins, e.g. '0,0;1,2'")),
            poly=True),
    Command("lct-optimize", "best weighted bound over primitive weights",
            _lct_optimize,
            (_opt("--max-weight", type=int, required=True), _POINTS),
            poly=True),
    Command("blowup-a", "origin blow-up discrepancy of the weighted pair",
            lambda a: ({"w": list(a.w), "c": a.c},
                       {"discrepancy": blowup_discrepancy(a.poly, a.w, a.c)}),
            (_W, _opt("--c", required=True, convert=_parse_rational,
                      signed=True)),
            poly=True),
    Command("fpt", "F-pure threshold interval", _fpt,
            (_opt("--emax", type=int, required=True), _POINTS), poly=True),
    Command("lee-verdict",
            "stability verdict from a certified threshold lower bound",
            _lee_verdict,
            (_N, _D,
             _opt("--bound", required=True, convert=_parse_bound,
                  signed=True),
             _opt("--bound-kind", choices=["lct_lower", "fpt_lower"],
                  default="lct_lower"))),
    Command("resultant", "Sylvester resultant of two binary forms",
            _resultant,
            (_opt("--p", required=True, signed=True),
             _opt("--q", required=True, signed=True),
             _opt("--field", default="q"),
             _opt("--degp", type=int, default=None),
             _opt("--degq", type=int, default=None))),
    Command("disc", "discriminant of a binary form", _disc,
            (_D, _opt("--mode", choices=["generic", "numeric"],
                      default="generic"),
             _opt("--poly", default=None, signed=True),
             _opt("--field", default="q"))),
    Command("quartic-st", "S, T, and D = 4S^3 - T^2 of a quartic",
            _quartic_st,
            (_opt("--coeffs", required=True, convert=_parse_rational_csv,
                  signed=True, help="a0,a1,a2,a3,a4"),
             _opt("--field", default=None))),
    Command("smooth-binary", "exact smoothness of a binary form",
            lambda a: ({}, {"smooth": smoothness_binary(a.poly)}), poly=True),
    Command("singular-points", "critical points over F_{p^e} (semi-decision)",
            _singular_points,
            (_opt("--ext", type=int, default=1, help="extension degree e"),
             _opt("--with-form", action="store_true",
                  help="require the form itself to vanish too")),
            poly=True),
    Command("cyclic-exponent",
            "exponent constraining critical points of the cyclic form",
            _cyclic_exponent, (_N, _D)),
)


def _execute(cmd: Command, args) -> tuple:
    """The shared steps around compute: load the polynomial, convert."""
    inputs = {}
    if cmd.poly:
        args.poly, domain = _load_poly(args)
        inputs = {"poly": args.poly, "field": domain_tag(domain)}
    for option in cmd.options:
        if option.convert is not None:
            setattr(args, option.dest,
                    option.convert(getattr(args, option.dest)))
    own_inputs, result = cmd.compute(args)
    inputs.update(own_inputs)
    return inputs, result


# -- parser and dispatch -----------------------------------------------------------


# Switches taken before or after the subcommand: (flag, help).
_GLOBAL_FLAGS = (
    ("--json", "emit the certificate document as JSON"),
    ("--timing", "record wall time in timing_ms (breaks byte-for-byte "
                 "determinism)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowstab",
        description="Exact stability certificates and singularity bounds "
                    "for projective hypersurfaces.")
    # after the subcommand, SUPPRESS keeps the subparser from clobbering a
    # value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    for flag, help_text in _GLOBAL_FLAGS:
        parser.add_argument(flag, action="store_true", help=help_text)
        common.add_argument(flag, action="store_true",
                            default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sub = commands.add_parser(cmd.name, parents=[common], help=cmd.help)
        for option in _options(cmd):
            sub.add_argument(*option.flags, **option.kwargs)
        sub.set_defaults(spec=cmd)
    return parser


def _render_human(command: str, result: dict) -> str:
    lines = [f"command: {command}"]
    for key in sorted(result):
        lines.append(f"{key}: {json.dumps(jsonable(result[key]))}")
    return "\n".join(lines)


# Flags whose values may start with '-': merged into --flag=value so
# argparse does not mistake them for options.
_SIGNED_FLAGS = frozenset(option.flags[0] for cmd in COMMANDS
                          for option in _options(cmd) if option.signed)
# Every option string of the parser (-h and --help are argparse's own); a
# signed flag is never merged with one, so that argparse reports the flag's
# missing value.
_OPTION_STRINGS = frozenset(
    flag for cmd in COMMANDS for option in _options(cmd)
    for flag in option.flags) \
    | {flag for flag, _ in _GLOBAL_FLAGS} | {"-h", "--help"}


def _merge_flag_values(argv) -> list:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SIGNED_FLAGS and i + 1 < len(argv) \
                and argv[i + 1] not in _OPTION_STRINGS:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    """Parse argv, dispatch, and print a certificate document."""
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_flag_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    # the document is rendered before anything is printed: an integer past
    # CPython's int-to-str limit raises ValueError here and exits 3
    try:
        inputs, result = _execute(args.spec, args)
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        if args.json:
            doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
                   "inputs": inputs, "result": result,
                   "timing_ms": elapsed_ms if args.timing else 0}
            text = json.dumps(jsonable(doc), sort_keys=True, indent=2)
        else:
            text = _render_human(args.command, result)
    except ParseError as exc:
        print(f"chowstab: parse error: {exc}", file=sys.stderr)
        return 2
    except (ChowstabError, ValueError, OSError) as exc:
        print(f"chowstab: error: {exc}", file=sys.stderr)
        return 3
    print(text)
    if args.timing and not args.json:
        print(f"timing_ms: {elapsed_ms}", file=sys.stderr)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
