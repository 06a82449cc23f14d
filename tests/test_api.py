"""The library's keyword surface, pinned the way tests/test_cli.py pins the
CLI's option strings, and a smoke run of every demo."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import floorsum

ROOT = Path(__file__).resolve().parents[1]

# Every public function of floorsum that has a parameter with a default,
# mapped to those parameters. Each one has a caller in src/, demos/ or
# bench/ that sets it, so a new knob takes a deliberate edit here.
KEYWORDS = {
    "bound_comparison": ("pair", "lemma", "max_terms"),
    "compute_expsum": ("max_terms",),
    "decompose": ("D1",),
    "error_series": ("resolution", "max_terms"),
    "geometric_grid": ("lo", "hi", "ratio"),
    "main_constant": ("order",),
    "sieve_table": ("max_entries",),
    "sum_direct": ("max_terms",),
    "sum_blocked": ("max_terms",),
    "sum_dual": ("max_terms",),
}


def test_keyword_surface_is_pinned():
    surface = {}
    for name, obj in vars(floorsum).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        keywords = tuple(p.name for p in params if p.default is not p.empty)
        if keywords:
            surface[name] = keywords
    assert surface == KEYWORDS


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), path))))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
