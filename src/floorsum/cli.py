"""Command-line front end.

Subcommands: sieve, floorsum, constant, errfit, vaaler-check,
vaughan-check, exppair, balance, expsum, classify. Each _cmd_* computes
and returns a Report, its JSON payload and its CSV table as equal-length
columns; one emitter, _emit, writes either as --format picks and is the
only writer to stdout. CSV columns are declared once, next to each
subparser, and give both the --help epilog and the CSV header. JSON keys
are sorted and rationals are {"num": ..., "den": ...} strings, so
identical inputs give byte-identical output. A CSV cell is an int's
digits, a float's repr, empty for None, two cells for a complex (re, im)
and a Fraction (num, den), and str() of anything else. The CSV is written
_CSV_BLOCK rows at a time, each block with one %-format call whose
conversion is picked per column from the types of that column's cells in
the block, so its memory is bounded by the block, not the table. Exit
codes: 0 success, 2 usage error, 3 domain error, 4 budget exceeded.

Three flags are shared, each declared only by the subcommands that read
it: --max-terms by floorsum, constant, errfit, vaaler-check,
vaughan-check and expsum; --seed by vaughan-check and expsum; --cache-dir
by sieve. A flag that a subcommand does not read, like any unknown
argument, is a usage error reported with that subcommand's usage.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import signal
import sys
from fractions import Fraction
from typing import Any, NamedTuple, Sequence

import numpy as np

from . import balance, cache, constants, expsum, floor_sums, vaaler, vaughan
from . import exponent_pairs as ep
from .errors import BudgetExceededError, DomainError, FloorsumError, charge
from .sieve import DEFAULT_MAX_ENTRIES, DEFAULT_MAX_TERMS, LAMBDA, MU, Kind, sieve_table, tau

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4

_F_RE = re.compile(r"^tau(\d+)$")


class Report(NamedTuple):
    """A subcommand's JSON payload; its CSV table as equal-length columns
    (numpy arrays, ranges or tuples), the condition of their declared
    header ("" by default), and a last JSON line."""

    payload: dict[str, Any]
    columns: Sequence[Sequence]
    when: str = ""
    trailer: dict[str, Any] | None = None


def _parse_kind(text: str, allow_mu: bool = True) -> Kind:
    if text == "lambda":
        return LAMBDA
    if text == "mu":
        if not allow_mu:
            raise DomainError("this command takes lambda or tau kinds")
        return MU
    m = _F_RE.match(text)
    if m:
        return tau(int(m.group(1)))
    raise DomainError(f"unknown kind {text!r} (use lambda, mu, or tauK)")


def _finite(text: str) -> float:
    """The argparse type of every float flag: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# the cell types json.dumps writes as they are, so a list of them is not walked
_JSON_SCALARS = {int, str, bool, type(None)}


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": repr(obj.real), "im": repr(obj.imag)}
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _JSON_SCALARS:
            return obj
        return [_jsonify(v) for v in obj]
    return obj


def _json_line(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True) + "\n"


# The CSV cell rule, by a value's type; any other type is written as str().
_CELLS = {
    type(None): lambda v: "",
    float: float.__repr__,
    complex: lambda v: f"{v.real!r},{v.imag!r}",
    Fraction: lambda v: f"{v.numerator},{v.denominator}",
}

# rows per CSV write: large enough that the per-block calls cost nothing,
# small enough that a block's strings stay a few hundred kB
_CSV_BLOCK = 1 << 13


def _conversion(block: Sequence) -> tuple[str, Sequence]:
    """One column's cells in a block as a %-conversion and its arguments:
    %d for ints, %r for floats, else each cell by _CELLS as %s."""
    cells = block.tolist() if isinstance(block, np.ndarray) else block
    types = set(map(type, cells))
    if types == {int}:
        return "%d", cells
    if types == {float}:
        return "%r", cells
    return "%s", [_CELLS.get(type(v), str)(v) for v in cells]


def _csv_block(columns: Sequence[Sequence], start: int) -> str:
    """Rows [start, start + _CSV_BLOCK) of the table as CSV lines."""
    conversions, cells = zip(*(_conversion(c[start : start + _CSV_BLOCK]) for c in columns))
    rows, width = len(cells[0]), len(cells)
    flat = [None] * (rows * width)  # the block's cells in row order
    for j, column in enumerate(cells):
        flat[j::width] = column
    return (",".join(conversions) + "\n") * rows % tuple(flat)


def _emit(args: argparse.Namespace, report: Report) -> None:
    """Write the report in args.format; a CSV table goes out _CSV_BLOCK
    rows per write, so it never exists as text or Python objects whole."""
    write = sys.stdout.write
    if args.format == "json":
        write(_json_line(report.payload))
        return
    header = args.columns[report.when]
    if header is not None:
        write(header + "\n")
    for start in range(0, len(report.columns[0]), _CSV_BLOCK):
        write(_csv_block(report.columns, start))
    if report.trailer is not None:
        write(_json_line(report.trailer))


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: an option is only ever its full string, so adding
    # or removing an option never changes what another argv means
    parser = argparse.ArgumentParser(
        prog="floorsum",
        allow_abbrev=False,
        description="Floor-quotient sums and the verification toolkit around them.",
    )
    # the flags that several subcommands share, each declared only where it is read
    shared = {
        "--max-terms": dict(type=int, default=DEFAULT_MAX_TERMS, help="term budget for big sums"),
        "--seed": dict(type=int, default=0, help="seed for randomized subcommands"),
        "--cache-dir": dict(default=None, help="table cache directory (else FLOORSUM_CACHE)"),
    }
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, run, help, fmt, columns, note="", reads=()):
        """columns: the CSV header, None for a bare value, or {condition:
        header} when an option changes the rows; reads: the shared flags."""
        headers = columns if isinstance(columns, dict) else {"": columns}
        listed = " or, ".join(f"{when}, {h}" if when else h for when, h in headers.items() if h)
        epilog = " ".join(filter(None, ("csv columns:", listed, note)))
        p = sub.add_parser(name, help=help, epilog=epilog, allow_abbrev=False)
        for flag in reads:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(run=run, columns=headers, format=fmt, parser=p)
        return p

    p = add_parser("sieve", _cmd_sieve, "tabulate lambda base / mu / tau_k on [lo, hi)", "csv",
                   "n,value", "(value is the prime base for lambda)", reads=("--cache-dir",))
    p.add_argument("--kind", required=True, help="lambda, mu, or tauK (e.g. tau2)")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cache", action="store_true", help="read/write the binary table cache")
    p.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
                   help="memory budget: largest table footprint in entries")

    p = add_parser("floorsum", _cmd_floorsum, "S_f(x) by direct, blocked, or dual evaluation",
                   "csv", None, "the value alone (s1/s2 detail in json format)",
                   reads=("--max-terms",))
    p.add_argument("--f", required=True, help="lambda or tauK")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--method", choices=("direct", "blocked", "dual"), default="blocked")
    p.add_argument("--N", type=int, default=None, help="split point for --method dual")

    p = add_parser("constant", _cmd_constant, "certified bracket for sum f(n)/(n(n+1))", "json",
                   "kind,k,terms,lo,hi", reads=("--max-terms",))
    p.add_argument("--kind", required=True, help="lambda or tauK")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--order", choices=("ascending", "blockwise"), default="ascending")

    p = add_parser("errfit", _cmd_errfit, "error series E(x) = S_f(x) - C x and its log-log fit",
                   "csv", "x,S,E,C_lo,C_hi", "plus one trailing json fit line",
                   reads=("--max-terms",))
    p.add_argument("--f", required=True, help="lambda or tauK")
    p.add_argument("--x-lo", type=int, default=10**4)
    p.add_argument("--x-hi", type=int, default=10**6)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--terms", type=int, default=10**6, help="partial-sum terms for the constant")
    p.add_argument("--resolution", type=_finite, default=None)

    p = add_parser("vaaler-check", _cmd_vaaler_check,
                   "sawtooth approximation inequality over a grid", "json",
                   "x,psi,psi_star,delta,slack", reads=("--max-terms",))
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--x-lo", type=_finite, default=-2.0)
    p.add_argument("--x-hi", type=_finite, default=2.0)

    p = add_parser("vaughan-check", _cmd_vaughan_check,
                   "type I/II decomposition identity at one D", "json",
                   "D,D1,U,T1_re,T1_im,T2_re,T2_im,T3_re,T3_im,direct_re,direct_im,abs_err,rel_err",
                   reads=("--max-terms", "--seed"))
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--D1", type=int, default=None)
    p.add_argument("--g", choices=("unit", "random", "phase"), default="unit")
    p.add_argument("--g-x", type=_finite, default=None, help="x for --g phase: g(d) = e(x/d)")

    p = add_parser("exppair", _cmd_exppair, "A/B-process words and bound formulas", "json",
                   "kappa_num,kappa_den,lambda_num,lambda_den")
    p.add_argument("--word", default="")
    p.add_argument("--base", default="1/2,1/2", help="kappa,lambda as exact rationals")
    p.add_argument("--bound", choices=tuple(_BOUNDS), default=None)
    for name in ("Y", "X", "H", "M", "N", "x", "D"):
        p.add_argument(f"--{name}", type=_finite, default=None)

    p = add_parser("balance", _cmd_balance, "exact min-max of affine exponent forms", "json",
                   "parameter,num,den", "rows then a value row")
    p.add_argument("--param", action="append", default=[], help="parameter name (repeatable)")
    p.add_argument("--form", action="append", default=[], help='form text, e.g. "7/15 + r"')
    p.add_argument("--box", action="append", default=[],
                   help='box per parameter as name=lo,hi (default 0,1)')

    p = add_parser("expsum", _cmd_expsum,
                   "evaluate an exponential sum, optionally against a bound", "json",
                   {"": "scenario,shape,ranges,modulus,trivial",
                    "with --bound": "scenario,shape,ranges,measured,bound,ratio"},
                   reads=("--max-terms", "--seed"))
    p.add_argument("--shape", choices=expsum.SHAPES, required=True)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--delta", type=int, default=0)
    for name in ("--n-lo", "--m-lo", "--h-lo"):
        p.add_argument(name, type=int, default=None)
    p.add_argument("--coeffs", choices=expsum.COEFF_SPECS, default="unit")
    p.add_argument("--bound", choices=("vdc", "lwy", "rs"), default=None)
    p.add_argument("--pair", default=None, help="kappa,lambda for bounds that need one")

    p = add_parser("classify", _cmd_classify, "case split of a dyadic factorization", "json",
                   "k,D,factors,case,t,L1,L2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--factors", required=True, help="comma-separated ordered factors")

    for p in sub.choices.values():  # added last, so it closes every option list
        p.add_argument("--format", choices=("csv", "json"), default=p.get_default("format"))
    return parser


def _parse_pair(text: str) -> ep.ExponentPair:
    try:
        k_text, l_text = text.split(",")
    except ValueError as exc:
        raise DomainError(f"pair must be kappa,lambda, got {text!r}") from exc
    return ep.pair(balance.parse_rational(k_text), balance.parse_rational(l_text))


def _num_json(v):
    return repr(v) if isinstance(v, float) else str(v)


def _row(*cells) -> tuple[tuple, ...]:
    """A one-row CSV table: one one-element column per cell."""
    return tuple((c,) for c in cells)


def _cmd_sieve(args) -> Report:
    kind = _parse_kind(args.kind)
    if args.cache:
        table = cache.sieve_table_cached(kind, args.lo, args.hi, args.cache_dir,
                                         max_entries=args.max_entries)
    else:
        table = sieve_table(kind, args.lo, args.hi, max_entries=args.max_entries)
    payload = {"kind": kind.label, "lo": args.lo, "hi": args.hi, "values": table.values}
    return Report(payload, (range(args.lo, args.hi), table.values))


def _cmd_floorsum(args) -> Report:
    kind = _parse_kind(args.f, allow_mu=False)
    payload = {"f": kind.label, "x": args.x, "method": args.method}
    if args.method == "dual":
        if args.N is None:
            raise DomainError("--method dual needs --N")
        split = floor_sums.sum_dual(kind, args.x, args.N, max_terms=args.max_terms)
        value = split.total
        payload.update(N=args.N, s1=_num_json(split.s1), s2=_num_json(split.s2),
                       total=_num_json(value), psi_form_discrepancy=split.psi_form_discrepancy)
    else:
        sum_f = floor_sums.sum_direct if args.method == "direct" else floor_sums.sum_blocked
        value = sum_f(kind, args.x, max_terms=args.max_terms)
        payload["value"] = _num_json(value)
    return Report(payload, _row(value))


def _cmd_constant(args) -> Report:
    kind = _parse_kind(args.kind, allow_mu=False)
    charge(args.terms, args.max_terms, "constant terms")
    bracket = constants.main_constant(kind, args.terms, order=args.order)
    payload = {"kind": kind.name, "k": kind.k, "terms": bracket.terms_used,
               "lo": bracket.lo, "hi": bracket.hi}
    return Report(payload, _row(*payload.values()))


def _cmd_errfit(args) -> Report:
    kind = _parse_kind(args.f, allow_mu=False)
    charge(args.terms, args.max_terms, "constant terms")
    bracket = constants.main_constant(kind, args.terms)
    xs = floor_sums.geometric_grid(args.x_lo, args.x_hi, args.ratio)
    series = floor_sums.error_series(kind, bracket, xs, resolution=args.resolution,
                                     max_terms=args.max_terms)
    fit = floor_sums.fit_exponent(series)
    fit_payload = {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual,
                   "points_used": fit.points_used, "points_excluded": fit.points_excluded}
    points = [{"x": x, "S": s, "E": e, "C_lo": bracket.lo, "C_hi": bracket.hi}
              for x, s, e in zip(series.xs, series.sums, series.errors)]
    n = len(points)
    columns = (series.xs, series.sums, series.errors, (bracket.lo,) * n, (bracket.hi,) * n)
    return Report({"series": points, "fit": fit_payload}, columns, trailer={"fit": fit_payload})


def _cmd_vaaler_check(args) -> Report:
    if args.points < 2 or args.x_hi <= args.x_lo:
        raise DomainError("need points >= 2 and x-hi > x-lo")
    charge(args.points * args.H, args.max_terms, "grid points times H")
    check = vaaler.check_vaaler_inequality(args.H, np.linspace(args.x_lo, args.x_hi, args.points))
    payload = {"H": args.H, "points": args.points, "max_violation": check.max_violation,
               "min_delta": check.min_delta}
    columns = (check.xs, check.psi_values, check.psi_star_values, check.delta_values,
               -check.violations)
    return Report(payload, columns)


def _cmd_vaughan_check(args) -> Report:
    if args.g == "phase" and args.g_x is None:
        raise DomainError("--g phase needs --g-x")
    # decompose holds O(D1) float arrays, D1 = 2D by default
    charge(2 * args.D if args.D1 is None else args.D1, args.max_terms, "weights up to D1")
    # g as a callable, so decompose checks D and D1 before any weights exist
    weights = {
        "unit": lambda d: np.ones(d.size, dtype=np.complex128),
        "random": lambda d: np.exp(2j * np.pi * np.random.default_rng(args.seed).random(d.size)),
        "phase": lambda d: np.exp(2j * np.pi * (args.g_x / d)),
    }
    dec = vaughan.decompose(args.D, weights[args.g], D1=args.D1)
    payload = {"D": dec.D, "D1": dec.D1, "U": dec.U, "T1": dec.t1, "T2": dec.t2,
               "T3": dec.t3, "direct": dec.direct, "abs_err": dec.abs_err,
               "rel_err": dec.rel_err}
    return Report(payload, _row(*payload.values()))


def _bound_payload(bound: ep.BoundEvaluation) -> dict:
    return {
        "lemma": bound.lemma,
        "inputs": bound.inputs,
        "addends": {name: v for name, v in bound.addends},
        "value": bound.value,
        "domain_ok": bound.domain_ok,
        "note": bound.note,
    }


# exppair --bound: the flags each formula reads, in order, after the word's pair
_BOUNDS = {
    "vdc": (("Y", "X"), ep.eval_vdc_bound),
    "lwy": (("X", "H", "M", "N"), ep.eval_lwy_bound),
    "rs": (("X", "H", "M", "N"), lambda _pair, *values: ep.eval_rs_bound(*values)),
    "former": (("x", "D"), lambda _pair, *values: ep.eval_former_bound(*values)),
}


def _cmd_exppair(args) -> Report:
    result = ep.eval_word(args.word, _parse_pair(args.base))
    payload = {"word": args.word, "kappa": result.kappa, "lambda": result.lambda_}
    if args.bound is not None:
        names, formula = _BOUNDS[args.bound]
        values = [getattr(args, name) for name in names]
        if None in values:
            raise DomainError(f"bound {args.bound} needs --{names[values.index(None)]}")
        payload["bound"] = _bound_payload(formula(result, *values))
    return Report(payload, _row(result.kappa, result.lambda_))


def _cmd_balance(args) -> Report:
    if not args.param:
        raise DomainError("balance needs at least one --param")
    forms = [balance.parse_form(text) for text in args.form]
    box: dict[str, tuple[Fraction, Fraction]] = {p: (Fraction(0), Fraction(1)) for p in args.param}
    for spec in args.box:
        try:
            name, bounds_text = spec.split("=")
            lo_text, hi_text = bounds_text.split(",")
        except ValueError as exc:
            raise DomainError(f"--box must be name=lo,hi, got {spec!r}") from exc
        box[name.strip()] = (balance.parse_rational(lo_text), balance.parse_rational(hi_text))
    solution = balance.minimize_max(forms, args.param, box)
    payload = {
        "value": solution.value,
        "assignment": dict(solution.assignment),
        "active": list(solution.active),
    }
    return Report(payload, ((*solution.assignment, "value"),
                            (*solution.assignment.values(), solution.value)))


def _cmd_expsum(args) -> Report:
    scenario = expsum.ExpSumScenario(
        shape=args.shape, x=args.x, h=args.h, delta=args.delta, n_lo=args.n_lo,
        m_lo=args.m_lo, h_lo=args.h_lo, coeffs=args.coeffs, seed=args.seed,
    )
    ranges = ";".join(f"{k}={lo}..{hi}" for k, (lo, hi) in sorted(scenario.ranges().items()))
    # the description holds commas (n(lo,hi]), so its cell is quoted
    cells = (f'"{scenario.describe()}"', scenario.shape, ranges)
    if args.bound is None:
        result = expsum.compute_expsum(scenario, max_terms=args.max_terms)
        payload = {"scenario": scenario.describe(), "value": result.value,
                   "modulus": result.modulus, "terms": result.terms,
                   "trivial_bound": result.trivial_bound}
        return Report(payload, _row(*cells, result.modulus, result.trivial_bound))
    pair = _parse_pair(args.pair) if args.pair else None
    report = expsum.bound_comparison(scenario, pair, args.bound.upper(),
                                     max_terms=args.max_terms)
    payload = {"scenario": scenario.describe(), "lemma": report.lemma,
               "measured": report.measured, "trivial_bound": report.trivial_bound,
               "bound": _bound_payload(report.bound), "ratio": report.ratio,
               "flagged": report.flagged}
    return Report(payload, _row(*cells, report.measured, report.bound.value, report.ratio),
                  when="with --bound")


def _cmd_classify(args) -> Report:
    try:
        factors = [int(f) for f in args.factors.split(",")]
    except ValueError as exc:
        raise DomainError(f"--factors must be integers, got {args.factors!r}") from exc
    split = expsum.classify_factorization(args.k, args.D, factors)
    payload = {"k": split.k, "D": split.D, "factors": list(split.factors),
               "case": split.case, "t": split.t, "L1": split.l1, "L2": split.l2}
    return Report(payload, _row(split.k, split.D, ";".join(map(str, split.factors)),
                                split.case, split.t, split.l1, split.l2))


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            # argparse hands a subcommand's leftovers back to the top-level
            # parser; report them with the subcommand's own usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if min(getattr(args, "max_terms", 1), getattr(args, "max_entries", 1)) <= 0:
            raise DomainError("budgets must be positive")
        report = args.run(args)
    except FloorsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_DOMAIN
    _emit(args, report)
    return EXIT_OK


def entry() -> None:
    # a reader that closes the pipe early (floorsum sieve ... | head) ends
    # the process quietly, as it does other command-line filters
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
