"""The four benchmark workloads and the output checks behind fail_ratio.

Every input comes from the seed, but sizes sit on a fixed grid that the
seed moves by about 1%: two seeds give different integers (other
factorizations, other quotient sets) for the same amount of work, so the
spread between runs is the machine's, not the draw's.

An op is a call into the program; its check runs right after it, outside
the timed section, and uses a second route (another evaluator, the sieve
against factorization, or a trial-division oracle written here). Ops look
their functions up on the module at call time, so runtime tracing
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from floorsum import cli, constants, floor_sums, primes, sieve
from floorsum.sieve import LAMBDA, MU, tau

TAU2, TAU3 = tau(2), tau(3)
LAMBDA_REL_TOL = 1e-9
VAALER_TOL = 1e-12
VAUGHAN_REL_TOL = 1e-9
SAMPLES = 32


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op]
    # Clear the primes caches before every op, not only before every pass.
    cold_each_op: bool
    before_pass: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str


def jitter(rng: random.Random, value: float, rel: float = 0.01) -> int:
    """value scaled by a seeded factor in [1 - rel, 1 + rel), as an integer."""
    return int(value * (1 + rel * (2 * rng.random() - 1)))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= LAMBDA_REL_TOL * max(1.0, abs(ref))


def _matches(kind, value, ref) -> bool:
    return value == ref if kind.name == "tau" else _close(value, ref)


def trial_value(kind, q: int) -> int:
    """tau_2(q), or the prime base of q, by trial division up to sqrt(q):
    a route that shares no code with the package."""
    d = np.arange(1, math.isqrt(q) + 1, dtype=np.int64)
    divisors = d[q % d == 0]
    if kind == TAU2:
        return 2 * len(divisors) - int(int(divisors[-1]) ** 2 == q)
    if q == 1:
        return 1
    p = int(divisors[1]) if len(divisors) > 1 else q
    while q % p == 0:
        q //= p
    return p if q == 1 else 1


def _split_route(kind, x: int):
    """S_f(x) with n > sqrt(x) grouped by quotient and f read from a sieved
    table there; only the quotients x // n for n <= sqrt(x) use point_value."""
    r = math.isqrt(x)
    q_max = x // (r + 1)
    values = sieve.sieve_table(kind, 1, q_max + 1).values
    qs = np.arange(1, q_max + 1, dtype=np.int64)
    counts = x // qs - x // (qs + 1)
    # Smallest quotient first: right after the op the least recently used
    # cache entries are the largest quotients, so an ascending scan would
    # evict each entry just before reading it.
    large = [sieve.point_value(kind, x // n) for n in range(r, 0, -1)]
    if kind.name == "tau":
        return int(np.dot(values, counts)) + sum(large)
    prime = values > 1
    terms = counts[prime] * np.log(values[prime].astype(np.float64))
    return math.fsum([*terms.tolist(), *(math.log(b) for b in large if b > 1)])


def _check_blocked(kind, x: int, seed: int, value) -> bool:
    rng = random.Random(seed)
    r = math.isqrt(x)
    sampled = [x // (1 + int(rng.random() * r)) for _ in range(SAMPLES)]
    points_ok = all(sieve.point_value(kind, q) == trial_value(kind, q) for q in sampled)
    return points_ok and _matches(kind, value, _split_route(kind, x))


def blocked_large_x(rng: random.Random) -> Workload:
    """sum_blocked for Lambda and tau2 near 1e9 and near 2e9: every
    quotient distinct, so the caches never hit. Ops of one to two seconds
    let a run repeat the pass often enough for per-op medians."""
    ops = []
    for size in (1.05e9, 2.1e9):
        for kind in (LAMBDA, TAU2):
            x = jitter(rng, size)
            check_seed = int(rng.random() * 2**32)
            ops.append(Op(
                f"sum_blocked {kind.label} x={x}",
                lambda kind=kind, x=x: floor_sums.sum_blocked(kind, x),
                lambda v, kind=kind, x=x, s=check_seed: _check_blocked(kind, x, s, v),
            ))
    return Workload(ops, cold_each_op=True)


ORACLE_OPS = 40


def _oracle_op(x: int):
    n_split = max(1, primes.introot(x**7, 15))
    out = []
    for kind in (TAU2, TAU3, LAMBDA):
        split = floor_sums.sum_dual(kind, x, n_split)
        out.append((kind, floor_sums.sum_direct(kind, x), floor_sums.sum_blocked(kind, x),
                    split.total, split.psi_form_discrepancy))
    return out


def _check_oracle(rows) -> bool:
    return all(
        _matches(kind, blocked, direct) and _matches(kind, dual, direct) and discrepancy == 0
        for kind, direct, blocked, dual, discrepancy in rows
    )


def oracle_cross_check(rng: random.Random) -> Workload:
    """Criterion 3's shape: direct against blocked against dual for tau2,
    tau3 and Lambda on a log-uniform grid over [1e3, 1e7], one shared cache
    per pass."""
    xs = [jitter(rng, 10 ** (3 + 4 * (i + 0.5) / ORACLE_OPS)) for i in range(ORACLE_OPS)]
    ops = [Op(f"oracle x={x}", lambda x=x: _oracle_op(x), _check_oracle) for x in xs]
    return Workload(ops, cold_each_op=False)


def _check_table(table, seed: int) -> bool:
    rng = random.Random(seed)
    ns = [table.lo + int(rng.random() * (table.hi - table.lo)) for _ in range(SAMPLES)]
    return all(table.value(n) == sieve.point_value(table.kind, n) for n in ns)


def _check_constant(bracket) -> bool:
    other = constants.main_constant(bracket.kind, bracket.terms_used, order="blockwise")
    return bracket.lo < bracket.hi and max(bracket.lo, other.lo) <= min(bracket.hi, other.hi)


def sieve_constants(rng: random.Random) -> Workload:
    """Windowed sieves far from the origin and certified C_f brackets."""
    ops = []
    for kind in (LAMBDA, MU):
        lo = 10**12 + int(rng.random() * 10**9)
        ops.append(Op(f"sieve_table {kind.label} [{lo}, +1e6)",
                      lambda kind=kind, lo=lo: sieve.sieve_table(kind, lo, lo + 10**6),
                      lambda t, s=int(rng.random() * 2**32): _check_table(t, s)))
    for kind in (TAU2, TAU3):
        hi = 10**7 - int(rng.random() * 10**5)
        ops.append(Op(f"sieve_table {kind.label} [{hi - 10**5}, {hi})",
                      lambda kind=kind, hi=hi: sieve.sieve_table(kind, hi - 10**5, hi),
                      lambda t, s=int(rng.random() * 2**32): _check_table(t, s)))
    for kind, terms in ((LAMBDA, 5 * 10**7), (TAU2, 5 * 10**6)):
        n = terms - int(rng.random() * terms // 100)
        ops.append(Op(f"main_constant {kind.label} terms={n}",
                      lambda kind=kind, n=n: constants.main_constant(kind, n),
                      _check_constant))
    return Workload(ops, cold_each_op=True)


def run_cli(argv: list[str]) -> CliRun:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliRun(code, buf.getvalue())


def _ok(run: CliRun) -> bool:
    return run.code == cli.EXIT_OK and bool(run.stdout)


def _check_sieve_csv(run: CliRun, kind, seed: int) -> bool:
    rows = run.stdout.splitlines()[1:]
    rng = random.Random(seed)
    picked = [rows[int(rng.random() * len(rows))].split(",") for _ in range(SAMPLES)]
    return _ok(run) and all(int(v) == sieve.point_value(kind, int(n)) for n, v in picked)


def _check_sieve_json(run: CliRun, kind, seed: int) -> bool:
    payload = json.loads(run.stdout)
    values, lo = payload["values"], payload["lo"]
    rng = random.Random(seed)
    idx = [int(rng.random() * len(values)) for _ in range(SAMPLES)]
    return _ok(run) and all(values[i] == sieve.point_value(kind, lo + i) for i in idx)


def csv_float(cell: str) -> float:
    """A float CSV cell written as repr(): plain, or numpy 2's np.float64(...)."""
    cell = cell.strip()
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def _check_vaaler_csv(run: CliRun) -> bool:
    # columns x,psi,psi_star,delta,slack: the written slack and the slack
    # recomputed from psi, psi_star and delta must both be >= -tol (NaN fails)
    rows = [[csv_float(c) for c in row.split(",")] for row in run.stdout.splitlines()[1:]]
    return _ok(run) and bool(rows) and all(
        slack >= -VAALER_TOL and delta - abs(psi_star - psi) >= -VAALER_TOL
        for _, psi, psi_star, delta, slack in rows)


def _json_ok(run: CliRun, accept: Callable[[dict], bool]) -> bool:
    return _ok(run) and accept(json.loads(run.stdout))


def cli_reports(rng: random.Random, workdir: Path) -> Workload:
    """Every report subcommand the package has, in process, with stdout
    captured in memory; the cached sieve runs twice against a fresh
    directory per pass so both the write and the read path of cache run."""
    def seeded(lo: int, hi: int) -> int:
        return lo + int(rng.random() * (hi - lo))

    def sample_seed() -> int:
        return int(rng.random() * 2**32)

    cache_dir = workdir / "table-cache"
    lam_lo = seeded(10**9, 2 * 10**9)
    tau_hi = seeded(2 * 10**6, 21 * 10**5)
    mu_lo = seeded(10**8, 2 * 10**8)
    cached = ["sieve", "--kind", "mu", "--lo", str(mu_lo), "--hi", str(mu_lo + 10**5),
              "--cache", "--cache-dir", str(cache_dir), "--format", "json"]
    cache_file = cache_dir / f"mu_{mu_lo}_{mu_lo + 10**5}.tbl"
    cache_seed = sample_seed()
    x_mono, x_bil, x_tri = seeded(10**6, 10**7), seeded(10**8, 10**9), seeded(10**8, 10**9)
    grid_lo = -1.0 - rng.random()
    vaughan_d = jitter(rng, 10**6)
    g_x = seeded(10**7, 10**8) + 0.5
    word = "".join(rng.choice("AB") for _ in range(6))
    r_num = seeded(20, 30)
    k = seeded(2, 5)
    terms = seeded(10**6, 2 * 10**6)
    specs = [
        (["sieve", "--kind", "lambda", "--lo", str(lam_lo), "--hi", str(lam_lo + 10**5)],
         lambda r, s=sample_seed(): _check_sieve_csv(r, LAMBDA, s)),
        (["sieve", "--kind", "tau2", "--lo", str(tau_hi - 5 * 10**4), "--hi", str(tau_hi),
          "--format", "json"],
         lambda r, s=sample_seed(): _check_sieve_json(r, TAU2, s)),
        (cached, lambda r, s=cache_seed: _check_sieve_json(r, MU, s)),
        (cached, lambda r, s=cache_seed: _check_sieve_json(r, MU, s) and cache_file.exists()),
        (["expsum", "--shape", "monomial", "--x", str(x_mono), "--n-lo", "4000",
          "--coeffs", "mu", "--bound", "vdc", "--pair", "1/2,1/2"],
         lambda r: _json_ok(r, lambda p: float(p["measured"]) <= float(p["trivial_bound"]))),
        (["expsum", "--shape", "bilinear", "--x", str(x_bil), "--m-lo", "100", "--n-lo", "200",
          "--coeffs", "random", "--seed", str(sample_seed() % 1000), "--bound", "rs"],
         lambda r: _json_ok(r, lambda p: float(p["measured"]) <= float(p["trivial_bound"]))),
        (["expsum", "--shape", "triple", "--x", str(x_tri), "--h-lo", "10", "--m-lo", "50",
          "--n-lo", "100", "--bound", "rs"],
         lambda r: _json_ok(r, lambda p: float(p["measured"]) <= float(p["trivial_bound"]))),
        (["vaaler-check", "--H", "50", "--points", "20000", "--x-lo", repr(grid_lo),
          "--x-hi", repr(grid_lo + 3.0), "--format", "csv"], _check_vaaler_csv),
        (["vaughan-check", "--D", str(vaughan_d), "--g", "phase", "--g-x", repr(g_x)],
         lambda r: _json_ok(r, lambda p: float(p["rel_err"]) <= VAUGHAN_REL_TOL)),
        (["exppair", "--word", word, "--base", "1/2,1/2", "--bound", "vdc",
          "--Y", "1000", "--X", "100"],
         lambda r: _json_ok(r, lambda p: float(p["bound"]["value"]) > 0)),
        (["balance", "--param", "r", "--param", "w", "--form", f"{r_num}/60+r",
          "--form", "11/24+(7/12)w", "--form", "1/2-w-r"],
         lambda r: _json_ok(r, lambda p: len(p["active"]) >= 1)),
        (["classify", "--k", str(k), "--D", str(2 ** (10 * k)),
          "--factors", ",".join([str(2**10)] * k)],
         lambda r: _json_ok(r, lambda p: p["case"] in ("I", "II", "III"))),
        (["constant", "--kind", "lambda", "--terms", str(terms)],
         lambda r: _json_ok(r, lambda p: float(p["lo"]) < float(p["hi"]))),
    ]
    ops = [Op(" ".join(argv[:3]), lambda argv=argv: run_cli(argv), check)
           for argv, check in specs]
    return Workload(ops, cold_each_op=True,
                    before_pass=lambda: shutil.rmtree(cache_dir, ignore_errors=True))


NAMES = ("blocked-large-x", "oracle-cross-check", "sieve-constants", "cli-reports")


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    if name == "blocked-large-x":
        return blocked_large_x(rng)
    if name == "oracle-cross-check":
        return oracle_cross_check(rng)
    if name == "sieve-constants":
        return sieve_constants(rng)
    if name == "cli-reports":
        return cli_reports(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
