"""Tests of the benchmark's own machinery: span accounting, seam wrapping
and restoring, and the output contract of run.py.

    python3 -m pytest -q bench
"""

import json
import time
import types
from pathlib import Path

import pytest

import run
import spans as sp

BENCH = Path(__file__).resolve().parent


def test_self_time_on_toy_nested_call(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    spans = sp.Spans(["top", "mid", "leaf"])
    ns = types.SimpleNamespace()

    def leaf():
        now[0] += 2.0
        return 7

    def mid():
        now[0] += 1.0
        ns.leaf()
        now[0] += 0.5
        return ns.leaf()

    def top():
        now[0] += 3.0
        return ns.mid()

    ns.top = sp.traced(spans, 0, top)
    ns.mid = sp.traced(spans, 1, mid)
    ns.leaf = sp.traced(spans, 2, leaf, "leaf.values", lambda a, k, out: out)
    assert ns.top() == 7
    calls, self_s = spans.self_times()
    assert calls.tolist() == [1, 1, 2]
    assert self_s.tolist() == [3.0, 1.5, 4.0]
    assert list(spans.parent) == [-1, 0, 1, 1]
    assert spans.counts["leaf.values"] == 14
    assert self_s.sum() == spans.end[0] - spans.start[0] == 8.5


def test_tracer_rebinds_importers_and_restores():
    run.setup()
    import floorsum
    from floorsum import constants, floor_sums, primes, sieve, vaughan

    primes.prime_power_base.cache_clear()
    tracer = sp.Tracer()
    tracer.assert_untraced()
    originals = (floor_sums.point_value, sieve.factor_pairs, constants.sieve_table,
                 vaughan.sieve_table, primes.is_prime, floorsum.sum_blocked)
    spans = sp.Spans([s.name for s in sp.SEAMS])
    tracer.install(spans)
    try:
        wrapped = (floor_sums.point_value, sieve.factor_pairs, constants.sieve_table,
                   vaughan.sieve_table, primes.is_prime, floorsum.sum_blocked)
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        t0 = time.perf_counter()
        floor_sums.sum_blocked(sieve.LAMBDA, 10**6)
        floor_sums.sum_dual(sieve.tau(2), 10**5, 200)
        constants.main_constant(sieve.tau(2), 10**4)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    tracer.assert_untraced()
    calls, self_s = spans.self_times()
    by_name = {s.name: (int(c), float(t)) for s, c, t in zip(sp.SEAMS, calls, self_s)}
    # is_prime is reached only through prime_power_base's module global
    assert by_name["primes.is_prime"][0] > 0
    assert by_name["floor_sums.psi"][0] > 0
    assert by_name["sieve.sieve_table"][0] == 1
    assert spans.counts["sieve.sieve_table.entries"] == 10**4
    assert 0 < self_s.sum() <= wall


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_exactly_the_declared_metrics(capsys, trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    code = run.main(["--workload", "cli-reports", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
