#!/usr/bin/env python3
"""floorsum benchmark: one workload per invocation, from the repository root.

    python3 bench/run.py --workload blocked-large-x --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's op set in passes until --seconds is spent
and reports the end-to-end metrics. --trace 1 runs the op set once
untraced and once with span wrappers installed at every module seam, and
reports the per-layer metrics plus the tracing overhead. The primes caches
are cleared before every pass (before every op where the workload says
so), so no timed call runs warm. Every op's output is checked outside the
timed section, and later passes must reproduce the first pass's output
bit for bit.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Earlier lines give the run record (git sha, nproc, versions,
thread environment, seed, cache sizes) and each metric with its unit; the
record, and the spans of a traced run, are also written under .bench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
P90_MIN_OPS = 100
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
              "op_p50_s": "s", "peak_rss_mb": "MB"}


def setup():
    """Import the package from this checkout and the benchmark modules."""
    sys.path.insert(0, str(ROOT / "src"))
    import floorsum
    import floorsum.cache  # noqa: F401  (not imported by the package itself)
    import floorsum.cli  # noqa: F401

    if Path(floorsum.__file__).resolve().parent != ROOT / "src" / "floorsum":
        raise ImportError(f"floorsum imported from {floorsum.__file__}, not from {ROOT / 'src'}")
    import spans
    import workloads
    return spans, workloads


class ColdCaches:
    """The lru caches of the primes layer: cleared on demand, with their
    hit and miss counts summed across clears."""

    def __init__(self, primes):
        # the cached objects themselves, so tracing wrappers never hide them
        self.funcs = {"factor_pairs": primes.factor_pairs,
                      "prime_power_base": primes.prime_power_base}
        self.hits = dict.fromkeys(self.funcs, 0)
        self.misses = dict.fromkeys(self.funcs, 0)

    def clear(self) -> None:
        for name, fn in self.funcs.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            fn.cache_clear()
            if fn.cache_info().currsize != 0:
                raise AssertionError(f"primes.{name} cache not empty after cache_clear")

    def take_stats(self) -> dict[str, float]:
        """Hit ratio per cache since the last call; call right after clear()."""
        ratios = {name: self.hits[name] / (self.hits[name] + self.misses[name])
                  for name in self.funcs if self.hits[name] + self.misses[name]}
        self.hits = dict.fromkeys(self.funcs, 0)
        self.misses = dict.fromkeys(self.funcs, 0)
        return ratios

    def maxsize(self) -> dict[str, int]:
        return {name: fn.cache_info().maxsize for name, fn in self.funcs.items()}


def digest(value) -> str:
    h = hashlib.sha256()

    def feed(v):
        if hasattr(v, "tobytes"):
            h.update(v.tobytes())
        elif dataclasses.is_dataclass(v):
            for field in dataclasses.fields(v):
                feed(getattr(v, field.name))
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        else:
            h.update(repr(v).encode())
        h.update(b"|")

    feed(value)
    return h.hexdigest()


def run_pass(workload, caches, *, check: bool, spans=None):
    """Run the op set once. Returns (outputs, op walls, op cpus, ok flags);
    ok is the check result, or None when checks are skipped. Only the op
    call itself is timed."""
    workload.before_pass()
    caches.clear()
    outputs, walls, cpus, ok = [], [], [], []
    for i, op in enumerate(workload.ops):
        if workload.cold_each_op:
            caches.clear()
        if spans is not None:
            spans.run_id = i
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.run()
        except Exception:
            out = None
            traceback.print_exc()
            print(f"op failed: {op.label}", file=sys.stderr)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
        outputs.append(out)
        if not check:
            ok.append(None)
            continue
        try:
            good = out is not None and bool(op.check(out))
        except Exception:
            good = False
            traceback.print_exc()
        if not good:
            print(f"check failed: {op.label}", file=sys.stderr)
        ok.append(good)
    return outputs, walls, cpus, ok


def count_failures(reference: list[str | None], ok: list, outputs: list) -> int:
    """Failures of one pass: a failed check, or output that differs from
    the checked first pass."""
    failed = 0
    for ref, good, out in zip(reference, ok, outputs):
        if good is False or out is None or (good is None and digest(out) != ref):
            failed += 1
    return failed


def setup_probe(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import floorsum and build the
    workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def untraced_run(workload, caches, tracer, seconds: float):
    """Passes over the op set until the next one would overrun seconds.
    wall_s and cpu_s sum, over the ops, each op's median across passes:
    time to solution for the op set, robust to a slow spell of the host
    that covers only part of the run."""
    tracer.assert_untraced()
    n = len(workload.ops)
    walls, cpus = [], []
    attempted = failed = 0
    reference: list[str | None] = []
    start = time.perf_counter()
    while True:
        outputs, w, c, ok = run_pass(workload, caches, check=not reference)
        if not reference:
            reference = [digest(o) if good else None for o, good in zip(outputs, ok)]
        attempted += len(outputs)
        failed += count_failures(reference, ok, outputs)
        walls += w
        cpus += c
        elapsed, passes = time.perf_counter() - start, len(walls) // n
        if elapsed + elapsed / passes > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.assert_untraced()
    op_walls = [statistics.median(walls[i::n]) for i in range(n)]
    metrics = {
        "wall_s": sum(op_walls),
        "cpu_s": sum(statistics.median(cpus[i::n]) for i in range(n)),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": statistics.median(op_walls),
        "peak_rss_mb": peak_mb,
    }
    extra = {"passes": len(walls) // n, "ops": len(walls), "op_wall_s": op_walls,
             "pass_wall_s": [sum(walls[i:i + n]) for i in range(0, len(walls), n)]}
    if len(walls) >= P90_MIN_OPS:
        extra["op_p90_s"] = statistics.quantiles(walls, n=10)[-1]
    return metrics, extra, attempted, failed


def traced_run(workload, caches, tracer, spans_mod, workloads_mod, spans_path: Path):
    outputs, walls_u, _, ok = run_pass(workload, caches, check=True)
    reference = [digest(o) if good else None for o, good in zip(outputs, ok)]
    failed = count_failures(reference, ok, outputs)
    caches.clear()
    caches.take_stats()
    spans = spans_mod.Spans([s.name for s in spans_mod.SEAMS])
    tracer.install(spans)
    try:
        traced_out, walls_t, _, ok_t = run_pass(workload, caches, check=False, spans=spans)
    finally:
        tracer.restore()
    caches.clear()
    hit_ratio = caches.take_stats()
    failed += count_failures(reference, ok_t, traced_out)
    traced_wall = sum(walls_t)
    calls, self_s = spans.self_times()
    if self_s.sum() > traced_wall:
        raise AssertionError(f"seam self times {self_s.sum()} exceed traced wall {traced_wall}")
    spans.save(spans_path)
    metrics = {}
    for nid, seam in enumerate(spans_mod.SEAMS):
        metrics[f"{seam.name}.calls"] = int(calls[nid])
        metrics[f"{seam.name}.self_s"] = float(self_s[nid])
        if seam.counter:
            key = f"{seam.name}.{seam.counter}"
            metrics[key] = int(spans.counts[key])
    for name in ("prime_power_base", "factor_pairs"):
        metrics[f"primes.{name}.hit_ratio"] = hit_ratio.get(name, 0.0)
    metrics["cli.stdout_bytes"] = sum(len(o.stdout.encode()) for o in traced_out
                                      if isinstance(o, workloads_mod.CliRun))
    metrics["trace.overhead_s"] = traced_wall - sum(walls_u)
    extra = {"spans": len(spans), "untraced_wall_s": sum(walls_u), "traced_wall_s": traced_wall}
    return metrics, extra, 2 * len(outputs), failed


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    stat = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "overhead_s": "s", "hit_ratio": "ratio", "bytes": "bytes",
            "stdout_bytes": "bytes"}.get(stat, "count")


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        spans_mod, workloads_mod = setup()
    except ImportError as exc:
        print(f"error: cannot import floorsum from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads_mod.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads_mod.NAMES}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"tmp-{os.getpid()}"
    workload = workloads_mod.build(args.workload, args.seed, workdir)
    setup_first = time.perf_counter() - t0
    if args.setup_probe:
        print(setup_first)
        return 0

    from floorsum import primes
    import numpy as np

    caches = ColdCaches(primes)
    tracer = spans_mod.Tracer()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, extra, attempted, failed = traced_run(
                workload, caches, tracer, spans_mod, workloads_mod, OUT / f"{stem}-spans.npz")
        else:
            samples = [setup_first] + [setup_probe(args.workload, args.seed)
                                       for _ in range(SETUP_SAMPLES - 1)]
            metrics, extra, attempted, failed = untraced_run(
                workload, caches, tracer, args.seconds)
            metrics = {"setup_s": statistics.median(samples), **metrics}
            extra["setup_samples_s"] = samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    extra["fail_ratio"] = failed / attempted

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "lru_maxsize": caches.maxsize(), "ops_per_pass": len(workload.ops),
        "op_labels": [op.label for op in workload.ops], **extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps({"record": record, **result}, indent=1))
    print("record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<44} {shown:>16} {unit_of(name)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
