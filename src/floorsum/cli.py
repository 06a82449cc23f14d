"""Command-line front end.

Subcommands: sieve, floorsum, constant, errfit, vaaler-check,
vaughan-check, exppair, balance, expsum, classify. Output is CSV or JSON
per subcommand (--format); JSON keys are sorted and rationals are
serialized as {"num": ..., "den": ...} strings, so identical inputs give
byte-identical output. Exit codes: 0 success, 2 usage error, 3 domain
error, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from . import balance, cache, constants, expsum, floor_sums, vaaler, vaughan
from . import exponent_pairs as ep
from .errors import BudgetExceededError, DomainError, FloorsumError
from .sieve import LAMBDA, MU, Kind, sieve_table, tau

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4

_F_RE = re.compile(r"^tau(\d+)$")


@dataclass(frozen=True)
class RunConfig:
    """A parsed invocation: subcommand, its parameters, and the shared
    output/budget settings."""

    command: str
    params: dict[str, Any]
    output_format: str
    cache_dir: str | None
    max_terms: int
    threads: int
    seed: int

    def __post_init__(self) -> None:
        if self.max_terms <= 0 or self.threads <= 0:
            raise DomainError("budgets must be positive")


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


def _fraction_json(f: Fraction) -> dict[str, str]:
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return _fraction_json(obj)
    if isinstance(obj, complex):
        return {"re": repr(obj.real), "im": repr(obj.imag)}
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit_json(obj) -> None:
    print(json.dumps(_jsonify(obj), sort_keys=True))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorsum",
        description="Floor-quotient sums and the verification toolkit around them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-terms", type=int, default=10**9, help="term budget for big sums")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; sums are identical for every value")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    common.add_argument("--cache-dir", default=None,
                        help="table cache directory (else FLOORSUM_CACHE)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help, csv_columns=None):
        epilog = f"csv columns: {csv_columns}" if csv_columns else None
        return sub.add_parser(name, help=help, parents=[common], epilog=epilog)

    p = add_parser("sieve", help="tabulate lambda base / mu / tau_k on [lo, hi)",
                   csv_columns="n,value (value is the prime base for lambda)")
    p.add_argument("--kind", required=True, help="lambda, mu, or tauK (e.g. tau2)")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--cache", action="store_true", help="read/write the binary table cache")
    p.add_argument("--max-entries", type=int, default=None,
                   help="memory budget: largest table footprint in entries")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add_parser("floorsum", help="S_f(x) by direct, blocked, or dual evaluation",
                   csv_columns="the value alone (s1/s2 detail in json format)")
    p.add_argument("--f", required=True, help="lambda or tauK")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--method", choices=("direct", "blocked", "dual"), default="blocked")
    p.add_argument("--N", type=int, default=None, help="split point for --method dual")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add_parser("constant", help="certified bracket for sum f(n)/(n(n+1))",
                   csv_columns="kind,k,terms,lo,hi")
    p.add_argument("--kind", required=True, help="lambda or tauK")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--order", choices=("ascending", "blockwise"), default="ascending")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("errfit", help="error series E(x) = S_f(x) - C x and its log-log fit",
                   csv_columns="x,S,E,C_lo,C_hi plus one trailing json fit line")
    p.add_argument("--f", required=True, help="lambda or tauK")
    p.add_argument("--x-lo", type=int, default=10**4)
    p.add_argument("--x-hi", type=int, default=10**6)
    p.add_argument("--ratio", type=int, default=2)
    p.add_argument("--terms", type=int, default=10**6, help="partial-sum terms for the constant")
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add_parser("vaaler-check", help="sawtooth approximation inequality over a grid",
                   csv_columns="x,psi,psi_star,delta,slack")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--x-lo", type=float, default=-2.0)
    p.add_argument("--x-hi", type=float, default=2.0)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("vaughan-check", help="type I/II decomposition identity at one D",
                   csv_columns="D,D1,U,T1_re,T1_im,T2_re,T2_im,T3_re,T3_im,direct_re,direct_im,abs_err,rel_err")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--D1", type=int, default=None)
    p.add_argument("--g", choices=("unit", "random", "phase"), default="unit")
    p.add_argument("--g-x", type=float, default=None, help="x for --g phase: g(d) = e(x/d)")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("exppair", help="A/B-process words and bound formulas",
                   csv_columns="kappa_num,kappa_den,lambda_num,lambda_den")
    p.add_argument("--word", default="")
    p.add_argument("--base", default="1/2,1/2", help="kappa,lambda as exact rationals")
    p.add_argument("--bound", choices=("vdc", "lwy", "rs", "former"), default=None)
    p.add_argument("--Y", type=float, default=None)
    p.add_argument("--X", type=float, default=None)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    p.add_argument("--N", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("balance", help="exact min-max of affine exponent forms",
                   csv_columns="parameter,num,den rows then a value row")
    p.add_argument("--param", action="append", default=[], help="parameter name (repeatable)")
    p.add_argument("--form", action="append", default=[], help='form text, e.g. "7/15 + r"')
    p.add_argument("--box", action="append", default=[],
                   help='box per parameter as name=lo,hi (default 0,1)')
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("expsum", help="evaluate an exponential sum, optionally against a bound",
                   csv_columns="scenario,shape,ranges,modulus,trivial or, with --bound, scenario,shape,ranges,measured,bound,ratio")
    p.add_argument("--shape", choices=expsum.SHAPES, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--n-lo", type=int, default=None)
    p.add_argument("--m-lo", type=int, default=None)
    p.add_argument("--h-lo", type=int, default=None)
    p.add_argument("--coeffs", choices=expsum.COEFF_SPECS, default="unit")
    p.add_argument("--bound", choices=("vdc", "lwy", "rs"), default=None)
    p.add_argument("--pair", default=None, help="kappa,lambda for bounds that need one")
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add_parser("classify", help="case split of a dyadic factorization",
                   csv_columns="k,D,factors,case,t,L1,L2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--factors", required=True, help="comma-separated ordered factors")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _parse_pair(text: str) -> ep.ExponentPair:
    try:
        k_text, l_text = text.split(",")
    except ValueError as exc:
        raise DomainError(f"pair must be kappa,lambda, got {text!r}") from exc
    return ep.pair(balance.parse_rational(k_text), balance.parse_rational(l_text))


def _cmd_sieve(cfg: RunConfig) -> None:
    kind = _parse_kind(cfg.params["kind"])
    lo, hi = cfg.params["lo"], cfg.params["hi"]
    budget = {}
    if cfg.params["max_entries"] is not None:
        if cfg.params["max_entries"] <= 0:
            raise DomainError("budgets must be positive")
        budget["max_entries"] = cfg.params["max_entries"]
    if cfg.params["cache"]:
        table = cache.sieve_table_cached(kind, lo, hi, cfg.cache_dir, **budget)
    else:
        table = sieve_table(kind, lo, hi, **budget)
    if cfg.output_format == "json":
        _emit_json({"kind": kind.label, "lo": lo, "hi": hi,
                    "values": [int(v) for v in table.values]})
    else:
        print("n,value")
        for n, v in zip(range(lo, hi), table.values):
            print(f"{n},{v}")


def _cmd_floorsum(cfg: RunConfig) -> None:
    kind = _parse_kind(cfg.params["f"], allow_mu=False)
    x, method = cfg.params["x"], cfg.params["method"]
    if method == "dual":
        split_at = cfg.params["N"]
        if split_at is None:
            raise DomainError("--method dual needs --N")
        split = floor_sums.sum_dual(kind, x, split_at, max_terms=cfg.max_terms)
        payload = {
            "f": kind.label, "x": x, "method": method, "N": split_at,
            "s1": _num_json(split.s1), "s2": _num_json(split.s2),
            "total": _num_json(split.total),
            "psi_form_discrepancy": Fraction(split.psi_form_discrepancy),
        }
        value = split.total
    else:
        if method == "direct":
            value = floor_sums.sum_direct(kind, x, max_terms=cfg.max_terms)
        else:
            value = floor_sums.sum_blocked(kind, x, threads=cfg.threads,
                                           max_terms=cfg.max_terms)
        payload = {"f": kind.label, "x": x, "method": method, "value": _num_json(value)}
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print(repr(value) if isinstance(value, float) else value)


def _num_json(v):
    return repr(v) if isinstance(v, float) else str(v)


def _check_terms(cfg: RunConfig) -> None:
    if cfg.params["terms"] > cfg.max_terms:
        raise BudgetExceededError(
            f"{cfg.params['terms']} constant terms exceed budget {cfg.max_terms}"
        )


def _cmd_constant(cfg: RunConfig) -> None:
    kind = _parse_kind(cfg.params["kind"], allow_mu=False)
    _check_terms(cfg)
    bracket = constants.main_constant(kind, cfg.params["terms"], order=cfg.params["order"])
    payload = {"kind": kind.name, "k": kind.k, "terms": bracket.terms_used,
               "lo": bracket.lo, "hi": bracket.hi}
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print("kind,k,terms,lo,hi")
        print(f"{kind.name},{kind.k if kind.k else ''},{bracket.terms_used},"
              f"{bracket.lo!r},{bracket.hi!r}")


def _cmd_errfit(cfg: RunConfig) -> None:
    kind = _parse_kind(cfg.params["f"], allow_mu=False)
    _check_terms(cfg)
    bracket = constants.main_constant(kind, cfg.params["terms"])
    xs = floor_sums.geometric_grid(cfg.params["x_lo"], cfg.params["x_hi"], cfg.params["ratio"])
    series = floor_sums.error_series(
        kind, bracket, xs, resolution=cfg.params["resolution"], threads=cfg.threads,
        max_terms=cfg.max_terms,
    )
    fit = floor_sums.fit_exponent(series)
    fit_payload = {"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual,
                   "points_used": fit.points_used, "points_excluded": fit.points_excluded}
    if cfg.output_format == "json":
        _emit_json({
            "series": [
                {"x": x, "S": s, "E": e, "C_lo": bracket.lo, "C_hi": bracket.hi}
                for x, s, e in zip(series.xs, series.sums, series.errors)
            ],
            "fit": fit_payload,
        })
    else:
        for row in series.csv_rows():
            print(row)
        print(json.dumps({"fit": _jsonify(fit_payload)}, sort_keys=True))


def _cmd_vaaler_check(cfg: RunConfig) -> None:
    H = cfg.params["H"]
    lo, hi, points = cfg.params["x_lo"], cfg.params["x_hi"], cfg.params["points"]
    if points < 2 or hi <= lo:
        raise DomainError("need points >= 2 and x-hi > x-lo")
    grid = np.linspace(lo, hi, points)
    report = vaaler.check_vaaler_inequality(H, grid)
    if cfg.output_format == "csv":
        for row in report.csv_rows():
            print(row)
    else:
        _emit_json({"H": H, "points": points, "max_violation": report.max_violation,
                    "min_delta": report.min_delta})


def _cmd_vaughan_check(cfg: RunConfig) -> None:
    D, D1 = cfg.params["D"], cfg.params["D1"]
    top = D1 if D1 is not None else 2 * D
    if cfg.params["g"] == "unit":
        g = np.ones(top - D, dtype=np.complex128)
    elif cfg.params["g"] == "random":
        rng = np.random.default_rng(cfg.seed)
        g = np.exp(2j * np.pi * rng.random(top - D))
    else:
        g_x = cfg.params["g_x"]
        if g_x is None:
            raise DomainError("--g phase needs --g-x")
        d = np.arange(D + 1, top + 1, dtype=np.float64)
        g = np.exp(2j * np.pi * (g_x / d))
    dec = vaughan.decompose(D, g, D1=D1)
    payload = {"D": dec.D, "D1": dec.D1, "U": dec.U, "T1": dec.t1, "T2": dec.t2,
               "T3": dec.t3, "direct": dec.direct, "abs_err": dec.abs_err,
               "rel_err": dec.rel_err}
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print("D,D1,U,T1_re,T1_im,T2_re,T2_im,T3_re,T3_im,direct_re,direct_im,abs_err,rel_err")
        print(f"{dec.D},{dec.D1},{dec.U},{dec.t1.real!r},{dec.t1.imag!r},"
              f"{dec.t2.real!r},{dec.t2.imag!r},{dec.t3.real!r},{dec.t3.imag!r},"
              f"{dec.direct.real!r},{dec.direct.imag!r},{dec.abs_err!r},{dec.rel_err!r}")


def _bound_payload(bound: ep.BoundEvaluation) -> dict:
    return {
        "lemma": bound.lemma,
        "inputs": bound.inputs,
        "addends": {name: v for name, v in bound.addends},
        "value": bound.value,
        "domain_ok": bound.domain_ok,
        "note": bound.note,
    }


def _cmd_exppair(cfg: RunConfig) -> None:
    base = _parse_pair(cfg.params["base"])
    result = ep.eval_word(cfg.params["word"], base)
    payload: dict[str, Any] = {"word": cfg.params["word"],
                               "kappa": result.kappa, "lambda": result.lambda_}
    b = cfg.params["bound"]
    if b is not None:
        need = {"vdc": ("Y", "X"), "lwy": ("X", "H", "M", "N"),
                "rs": ("X", "H", "M", "N"), "former": ("x", "D")}[b]
        args = []
        for name in need:
            v = cfg.params[name]
            if v is None:
                raise DomainError(f"bound {b} needs --{name}")
            args.append(v)
        if b == "vdc":
            bound = ep.eval_vdc_bound(result, *args)
        elif b == "lwy":
            bound = ep.eval_lwy_bound(result, *args)
        elif b == "rs":
            bound = ep.eval_rs_bound(*args)
        else:
            bound = ep.eval_former_bound(*args)
        payload["bound"] = _bound_payload(bound)
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print("kappa_num,kappa_den,lambda_num,lambda_den")
        print(f"{result.kappa.numerator},{result.kappa.denominator},"
              f"{result.lambda_.numerator},{result.lambda_.denominator}")


def _cmd_balance(cfg: RunConfig) -> None:
    params = cfg.params["param"]
    if not params:
        raise DomainError("balance needs at least one --param")
    forms = [balance.parse_form(text) for text in cfg.params["form"]]
    box: dict[str, tuple[Fraction, Fraction]] = {p: (Fraction(0), Fraction(1)) for p in params}
    for spec in cfg.params["box"]:
        try:
            name, bounds_text = spec.split("=")
            lo_text, hi_text = bounds_text.split(",")
        except ValueError as exc:
            raise DomainError(f"--box must be name=lo,hi, got {spec!r}") from exc
        box[name.strip()] = (balance.parse_rational(lo_text), balance.parse_rational(hi_text))
    solution = balance.minimize_max(forms, params, box)
    payload = {
        "value": solution.value,
        "assignment": {k: v for k, v in solution.assignment.items()},
        "active": list(solution.active),
    }
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print("parameter,num,den")
        for k, v in solution.assignment.items():
            print(f"{k},{v.numerator},{v.denominator}")
        print(f"value,{solution.value.numerator},{solution.value.denominator}")


def _cmd_expsum(cfg: RunConfig) -> None:
    scenario = expsum.ExpSumScenario(
        shape=cfg.params["shape"], x=cfg.params["x"], h=cfg.params["h"],
        delta=cfg.params["delta"], n_lo=cfg.params["n_lo"], m_lo=cfg.params["m_lo"],
        h_lo=cfg.params["h_lo"], coeffs=cfg.params["coeffs"], seed=cfg.seed,
    )
    if cfg.params["bound"] is None:
        result = expsum.compute_expsum(scenario, max_terms=cfg.max_terms)
        payload = {"scenario": scenario.describe(), "value": result.value,
                   "modulus": result.modulus, "terms": result.terms,
                   "trivial_bound": result.trivial_bound}
        if cfg.output_format == "json":
            _emit_json(payload)
        else:
            print("scenario,shape,ranges,modulus,trivial")
            print(f"{scenario.csv_cells()},{result.modulus!r},{result.trivial_bound!r}")
        return
    pair_arg = _parse_pair(cfg.params["pair"]) if cfg.params["pair"] else None
    report = expsum.bound_comparison(
        scenario, pair_arg, cfg.params["bound"].upper(), max_terms=cfg.max_terms
    )
    if cfg.output_format == "json":
        _emit_json({"scenario": scenario.describe(), "lemma": report.lemma,
                    "measured": report.measured, "trivial_bound": report.trivial_bound,
                    "bound": _bound_payload(report.bound), "ratio": report.ratio,
                    "flagged": report.flagged})
    else:
        print("scenario,shape,ranges,measured,bound,ratio")
        print(report.csv_row())


def _cmd_classify(cfg: RunConfig) -> None:
    factors = [int(f) for f in cfg.params["factors"].split(",")]
    split = expsum.classify_factorization(cfg.params["k"], cfg.params["D"], factors)
    payload = {"k": split.k, "D": split.D, "factors": list(split.factors),
               "case": split.case, "t": split.t, "L1": split.l1, "L2": split.l2}
    if cfg.output_format == "json":
        _emit_json(payload)
    else:
        print("k,D,factors,case,t,L1,L2")
        print(f"{split.k},{split.D},{';'.join(map(str, split.factors))},{split.case},"
              f"{split.t if split.t else ''},{split.l1 if split.l1 else ''},"
              f"{split.l2 if split.l2 else ''}")


_COMMANDS = {
    "sieve": _cmd_sieve,
    "floorsum": _cmd_floorsum,
    "constant": _cmd_constant,
    "errfit": _cmd_errfit,
    "vaaler-check": _cmd_vaaler_check,
    "vaughan-check": _cmd_vaughan_check,
    "exppair": _cmd_exppair,
    "balance": _cmd_balance,
    "expsum": _cmd_expsum,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    shared = {"max_terms", "threads", "seed", "cache_dir", "command"}
    params = {k: v for k, v in vars(args).items() if k not in shared and k != "format"}
    try:
        cfg = RunConfig(
            command=args.command,
            params=params,
            output_format=getattr(args, "format", "json"),
            cache_dir=args.cache_dir,
            max_terms=args.max_terms,
            threads=args.threads,
            seed=args.seed,
        )
        _COMMANDS[cfg.command](cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, FloorsumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
