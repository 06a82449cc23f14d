"""Span tracing at the floorsum module seams, installed at runtime only.

A seam is a public function of one package module. Tracing replaces every
binding of a seam function, in every floorsum module that holds it (its
own module and each importer, such as ``sieve.factor_pairs`` or
``constants.sieve_table``), with a wrapper that records one span per call.
Internal calls through a module global are caught too: ``prime_power_base``
calls ``is_prime`` by its global name in ``primes``. No source file is
changed; ``Tracer.restore`` puts every original object back.

Spans live in memory as parallel typed arrays (name id, start, end, parent
span, run id) and are written out once, after the traced run. A span's
self time is its duration minus the durations of its direct children;
calls here are single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Seam:
    """A traced public function and, optionally, a work counter taken from
    its arguments and result."""

    module: str
    function: str
    counter: str | None = None
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


SEAMS = (
    Seam("primes", "prime_power_base"),
    Seam("primes", "factor_pairs"),
    Seam("primes", "is_prime"),
    Seam("primes", "primes_upto"),
    Seam("sieve", "point_value"),
    Seam("sieve", "sieve_table", "entries", lambda a, k, out: len(out.values)),
    Seam("floor_sums", "sum_direct"),
    Seam("floor_sums", "sum_blocked"),
    Seam("floor_sums", "sum_dual"),
    Seam("floor_sums", "distinct_quotients", "blocks", lambda a, k, out: len(out.blocks)),
    Seam("floor_sums", "psi"),
    Seam("summation", "compensated_sum", "elements", lambda a, k, out: int(np.size(a[0]))),
    Seam("constants", "main_constant", "terms", lambda a, k, out: out.terms_used),
    Seam("vaughan", "decompose"),
    Seam("vaughan", "c_coefficients"),
    Seam("vaughan", "w_values"),
    Seam("expsum", "compute_expsum", "terms", lambda a, k, out: out.terms),
    Seam("expsum", "bound_comparison"),
    Seam("vaaler", "psi_star"),
    Seam("vaaler", "delta_majorant"),
    Seam("exponent_pairs", "eval_word"),
    Seam("balance", "minimize_max"),
    Seam("cache", "save_table", "bytes", lambda a, k, out: a[0].values.nbytes),
    Seam("cache", "load_table", "bytes", lambda a, k, out: 0 if out is None else out.values.nbytes),
    Seam("cli", "main"),
)


class Spans:
    """In-memory span store for one traced run."""

    def __init__(self, names: list[str]):
        self.names = list(names)
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(calls, self seconds) per name id."""
        n = len(self)
        if n == 0:
            zeros = np.zeros(len(self.names))
            return zeros, zeros
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        name_id = np.frombuffer(self.name_id, dtype=np.uint16)
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=dur - covered, minlength=len(self.names))
        return calls, self_s

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


def traced(spans: Spans, nid: int, fn: Callable, counter: str | None = None,
           count: Callable | None = None) -> Callable:
    """fn wrapped to record a span per call and, if given, to add
    count(args, kwargs, result) to spans.counts[counter]."""
    clock = time.perf_counter
    name_id, start, end, parent, run, stack = (
        spans.name_id, spans.start, spans.end, spans.parent, spans.run, spans.stack
    )

    def wrapper(*args, **kwargs):
        idx = len(start)
        name_id.append(nid)
        parent.append(stack[-1] if stack else -1)
        run.append(spans.run_id)
        end.append(0.0)
        stack.append(idx)
        start.append(clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            end[idx] = clock()
            stack.pop()
        if count is not None:
            spans.counts[counter] += count(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Every binding of every seam function across the loaded floorsum
    modules, found by identity before anything is wrapped."""

    def __init__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "floorsum" or name.startswith("floorsum.")]
        self.originals = [getattr(sys.modules[f"floorsum.{s.module}"], s.function) for s in SEAMS]
        self.bindings = [(module, attr, nid)
                         for nid, original in enumerate(self.originals)
                         for module in modules
                         for attr, value in vars(module).items() if value is original]

    def install(self, spans: Spans) -> None:
        wrappers = [traced(spans, nid, original, seam.counter and f"{seam.name}.{seam.counter}",
                           seam.count)
                    for nid, (seam, original) in enumerate(zip(SEAMS, self.originals))]
        for module, attr, nid in self.bindings:
            setattr(module, attr, wrappers[nid])

    def restore(self) -> None:
        for module, attr, nid in self.bindings:
            setattr(module, attr, self.originals[nid])
        self.assert_untraced()

    def assert_untraced(self) -> None:
        """Every seam binding is the original function object."""
        for module, attr, nid in self.bindings:
            if getattr(module, attr) is not self.originals[nid]:
                raise AssertionError(f"{module.__name__}.{attr} is not the original function")
