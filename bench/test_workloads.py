"""Tests of the benchmark's output checks.

    python3 -m pytest -q bench
"""

import pytest

import run

run.setup()
import workloads as wl  # noqa: E402  (needs the path run.setup() adds)

HEADER = "x,psi,psi_star,delta,slack"


def vaaler_run(*rows: str) -> wl.CliRun:
    return wl.CliRun(wl.cli.EXIT_OK, "\n".join((HEADER, *rows)) + "\n")


@pytest.mark.parametrize("cell, value", [
    ("-1.2e-05", -1.2e-05),
    ("np.float64(-1.2e-05)", -1.2e-05),
    ("np.float64(0.25)", 0.25),
    ("np.float64(nan)", None),
])
def test_csv_float_reads_plain_and_numpy_reprs(cell, value):
    got = wl.csv_float(cell)
    assert got != got if value is None else got == value


def test_vaaler_check_accepts_a_clean_grid():
    assert wl._check_vaaler_csv(vaaler_run(
        "np.float64(0.1),np.float64(0.4),np.float64(0.39),np.float64(0.02),np.float64(0.01)",
        "0.2,0.3,0.3,0.01,0.01"))


@pytest.mark.parametrize("row", [
    # negative slack in numpy 2's repr form
    "np.float64(0.1),np.float64(0.4),np.float64(0.39),np.float64(0.02),np.float64(-1.2e-05)",
    # slack column fine, but |psi_star - psi| exceeds delta
    "0.1,0.4,0.3,0.02,0.01",
    "0.1,0.4,0.39,0.02,nan",
])
def test_vaaler_check_rejects_a_violation(row):
    assert not wl._check_vaaler_csv(vaaler_run("0.2,0.3,0.3,0.01,0.01", row))


def test_vaaler_check_rejects_empty_output():
    assert not wl._check_vaaler_csv(vaaler_run())
