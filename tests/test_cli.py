import argparse
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import floorsum
from floorsum import cli, decompose, error_series, main_constant, sieve_table, tau
from floorsum.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, _build_parser, main
from floorsum.sieve import LAMBDA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_fraction(obj):
    return F(int(obj["num"]), int(obj["den"]))


def test_exppair_word(capsys):
    code, out, _ = run(capsys, "exppair", "--word", "BA^5", "--base", "13/84,55/84")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert as_fraction(payload["kappa"]) == F(1653, 3494)
    assert as_fraction(payload["lambda"]) == F(1760, 3494)


def test_exppair_with_bound(capsys):
    code, out, _ = run(capsys, "exppair", "--base", "1/2,1/2", "--bound", "vdc",
                       "--Y", "100", "--X", "100")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["bound"]["value"]) == pytest.approx(100.01)


def test_floorsum_direct_plain(capsys):
    code, out, _ = run(capsys, "floorsum", "--f", "tau2", "--x", "4", "--method", "direct")
    assert code == EXIT_OK
    assert out.strip() == "7"


def test_floorsum_blocked_high_tau_order(capsys):
    code, out, _ = run(capsys, "floorsum", "--f", "tau30", "--x", "1000")
    assert code == EXIT_OK
    assert out == "31232666\n"  # sum_direct(tau(30), 1000)


def test_floorsum_json_and_dual(capsys):
    code, out, _ = run(capsys, "floorsum", "--f", "tau2", "--x", "100",
                       "--method", "dual", "--N", "10", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total"] == "191"
    assert as_fraction(payload["psi_form_discrepancy"]) == 0


def test_balance_subcommand(capsys):
    code, out, _ = run(
        capsys, "balance", "--param", "r", "--param", "w",
        "--form", "7/15+r", "--form", "11/24+(7/12)w", "--form", "1/2-w-r",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert as_fraction(payload["value"]) == F(92, 195)
    assert as_fraction(payload["assignment"]["r"]) == F(1, 195)
    assert as_fraction(payload["assignment"]["w"]) == F(3, 130)
    assert len(payload["active"]) == 3


def test_sieve_csv(capsys):
    code, out, _ = run(capsys, "sieve", "--kind", "mu", "--lo", "1", "--hi", "5")
    assert code == EXIT_OK
    assert out.splitlines() == ["n,value", "1,1", "2,-1", "3,-1", "4,0"]


def test_sieve_base_primes_count_against_max_entries(capsys):
    # ten entries, but the base primes up to 1e8 would need 1e8 more
    code, out, err = run(capsys, "sieve", "--kind", "mu", "--lo", str(10**16),
                         "--hi", str(10**16 + 10), "--max-entries", "100")
    assert code == EXIT_BUDGET and out == "" and "budget" in err


def test_sieve_cache_round_trip(tmp_path, capsys):
    args = ("sieve", "--kind", "tau2", "--lo", "1", "--hi", "30", "--cache",
            "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    assert code1 == EXIT_OK and (tmp_path / "tau2_1_30.tbl").exists()
    code2, out2, _ = run(capsys, *args)
    assert code2 == EXIT_OK and out1 == out2


def test_sieve_cache_without_a_directory_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.delenv("FLOORSUM_CACHE", raising=False)
    code, out, err = run(capsys, "sieve", "--kind", "tau3", "--lo", "1", "--hi", "100", "--cache")
    assert code == EXIT_DOMAIN and out == "" and "no cache directory" in err


def test_constant_json(capsys):
    code, out, _ = run(capsys, "constant", "--kind", "lambda", "--terms", "1000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "lambda" and payload["terms"] == 1000
    assert float(payload["lo"]) < float(payload["hi"])


def test_errfit_csv_small(capsys):
    code, out, _ = run(capsys, "errfit", "--f", "tau2", "--x-lo", "1000",
                       "--x-hi", "64000", "--terms", "100000")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "x,S,E,C_lo,C_hi"
    fit = json.loads(lines[-1])
    assert "slope" in fit["fit"]


def test_vaaler_check_json_and_csv(capsys):
    code, out, _ = run(capsys, "vaaler-check", "--H", "10", "--points", "500")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["max_violation"]) <= 1e-12
    code, out, _ = run(capsys, "vaaler-check", "--H", "5", "--points", "50",
                       "--format", "csv")
    assert out.splitlines()[0] == "x,psi,psi_star,delta,slack"
    assert "np." not in out
    rows = out.splitlines()[1:]
    assert len(rows) == 50
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 5
        for cell in cells:
            float(cell)


def test_vaughan_check_json(capsys):
    code, out, _ = run(capsys, "vaughan-check", "--D", "1000", "--g", "random")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["rel_err"]) <= 1e-9
    assert payload["U"] == 10


def test_expsum_plain_and_bound(capsys):
    code, out, _ = run(capsys, "expsum", "--shape", "monomial", "--x", "1000000",
                       "--n-lo", "1000")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert float(payload["modulus"]) <= 1000.0
    code, out, _ = run(capsys, "expsum", "--shape", "monomial", "--x", "1000000",
                       "--n-lo", "1000", "--bound", "vdc", "--pair", "1/2,1/2")
    payload = json.loads(out)
    assert "ratio" in payload and payload["lemma"] == "VDC"


@pytest.mark.parametrize("bound_args, columns", [
    ((), "scenario,shape,ranges,modulus,trivial"),
    (("--bound", "vdc", "--pair", "1/2,1/2"), "scenario,shape,ranges,measured,bound,ratio"),
])
def test_expsum_csv_rows_match_header(capsys, bound_args, columns):
    code, out, _ = run(capsys, "expsum", "--shape", "monomial", "--x", "1000000",
                       "--n-lo", "1000", *bound_args, "--format", "csv")
    assert code == EXIT_OK
    header, row = csv.reader(io.StringIO(out))
    assert ",".join(header) == columns
    assert len(row) == len(header) and all(row)
    assert row[0].endswith("seed=0") and row[1] == "monomial"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--k", "2", "--D", str(2**20),
                       "--factors", f"{2**6},{2**14}")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["case"] == "I"


def test_byte_identical_reruns(capsys):
    args = ("vaughan-check", "--D", "500", "--g", "random", "--seed", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ("errfit", "--f", "tau2", "--x-lo", "1000", "--x-hi", "32000",
            "--terms", "50000", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("method", ["blocked", "dual"])
def test_block_methods_respect_max_terms(capsys, method):
    code, out, err = run(capsys, "floorsum", "--f", "tau2", "--x", str(10**18),
                         "--method", method, "--N", "1000", "--max-terms", "1000000")
    assert code == EXIT_BUDGET and out == "" and "budget" in err


@pytest.mark.parametrize("method", ["direct", "blocked", "dual"])
def test_sums_beyond_factorization_range_are_domain_errors(capsys, method):
    # the budget would also refuse these, so exit 3 shows the x check runs first
    code, out, err = run(capsys, "floorsum", "--f", "tau2", "--x", str(2**63),
                         "--method", method, "--N", "3", "--max-terms", "10")
    assert code == EXIT_DOMAIN and out == "" and "x <=" in err


@pytest.mark.parametrize("argv", [
    ["errfit", "--f", "tau2", "--x-lo", "1000", "--x-hi", "8000", "--terms", "1000",
     "--max-terms", "1"],
    ["constant", "--kind", "lambda", "--terms", "100000", "--max-terms", "10"],
    ["vaughan-check", "--D", "200000", "--max-terms", "10"],
    ["vaaler-check", "--H", "200", "--points", "5000", "--max-terms", "10"],
])
def test_constant_terms_respect_max_terms(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == "" and "budget" in err


@pytest.mark.parametrize("argv", [
    ["sieve", "--kind", "tau20", "--lo", "557256278016", "--hi", "557256278017"],
    ["sieve", "--kind", "tau60", "--lo", "16796160000", "--hi", "16796160001"],
    ["constant", "--kind", "tau200", "--terms", "65536"],
])
def test_tau_tables_past_int64_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == "" and "int64" in err


def test_expsum_seed_picks_the_random_coefficients(capsys):
    def value(seed):
        code, out, _ = run(capsys, "expsum", "--shape", "monomial", "--x", "1000000",
                           "--n-lo", "1000", "--coeffs", "random", "--seed", seed)
        assert code == EXIT_OK
        return out

    assert value("1") != value("2")
    assert value("1") == value("1")


def test_json_round_trip_schema(capsys):
    _, out, _ = run(capsys, "balance", "--param", "r", "--form", "1/2 - r")
    payload = json.loads(out)
    assert set(payload) == {"value", "assignment", "active"}
    _, out, _ = run(capsys, "exppair", "--word", "A", "--base", "1/2,1/2")
    payload = json.loads(out)
    assert set(payload) == {"word", "kappa", "lambda"}


def test_exit_codes(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "vaughan-check", "--D", "50")
    assert code == EXIT_DOMAIN and "error" in err
    code, _, err = run(capsys, "floorsum", "--f", "tau2", "--x", "10000000",
                       "--method", "direct", "--max-terms", "100")
    assert code == EXIT_BUDGET
    code, _, err = run(capsys, "sieve", "--kind", "tau2", "--lo", "1", "--hi", "100000",
                       "--max-entries", "10")
    assert code == EXIT_BUDGET
    code, _, err = run(capsys, "floorsum", "--f", "mu", "--x", "10")
    assert code == EXIT_DOMAIN
    code, _, _ = run(capsys, "balance", "--param", "r", "--form", "r", "--box", "r=1,0")
    assert code == EXIT_DOMAIN
    for factors in ("a,b", "32,32,"):
        code, out, err = run(capsys, "classify", "--k", "2", "--D", "1024", "--factors", factors)
        assert code == EXIT_DOMAIN and out == "" and "--factors" in err
    code, out, err = run(capsys, "vaughan-check", "--D", "1000", "--D1", "900")
    assert code == EXIT_DOMAIN and out == "" and "D1 must lie in (D, 2D]" in err


def test_box_for_an_undeclared_parameter_is_a_domain_error(capsys):
    code, out, err = run(capsys, "balance", "--param", "r", "--form", "r", "--box", "q=0,1")
    assert code == EXIT_DOMAIN and out == "" and "undeclared parameter 'q'" in err


@pytest.mark.parametrize("argv", [
    ["vaaler-check", "--H", "5", "--points", "10", "--x-hi", "inf"],
    ["vaaler-check", "--H", "5", "--points", "10", "--x-lo", "nan", "--format", "csv"],
    ["vaughan-check", "--D", "500", "--g", "phase", "--g-x", "nan"],
    ["expsum", "--shape", "monomial", "--x", "inf", "--n-lo", "10"],
    ["exppair", "--bound", "vdc", "--Y", "nan", "--X", "100"],
    ["exppair", "--bound", "former", "--x=-inf", "--D", "100"],
    ["errfit", "--f", "tau2", "--x-lo", "1000", "--x-hi", "8000", "--terms", "1000",
     "--resolution", "nan"],
])
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "not a finite number" in err


# Every option of every subcommand, --help aside: 71 in all. The shared
# flags (--max-terms, --seed, --cache-dir) appear only where they are read.
OPTIONS = {
    "sieve": "--cache-dir --kind --lo --hi --cache --max-entries --format",
    "floorsum": "--max-terms --f --x --method --N --format",
    "constant": "--max-terms --kind --terms --order --format",
    "errfit": "--max-terms --f --x-lo --x-hi --ratio --terms --resolution --format",
    "vaaler-check": "--max-terms --H --points --x-lo --x-hi --format",
    "vaughan-check": "--max-terms --seed --D --D1 --g --g-x --format",
    "exppair": "--word --base --bound --Y --X --H --M --N --x --D --format",
    "balance": "--param --form --box --format",
    "expsum": "--max-terms --seed --shape --x --h --delta --n-lo --m-lo --h-lo --coeffs --bound "
              "--pair --format",
    "classify": "--k --D --factors --format",
}


def test_option_surface_is_pinned():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: " ".join(s for a in p._actions for s in a.option_strings
                              if s not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert surface == OPTIONS
    assert sum(len(v.split()) for v in OPTIONS.values()) == 71


@pytest.mark.parametrize("argv", [
    ["sieve", "--kind", "mu", "--lo", "1", "--hi", "5", "--max-terms", "1"],
    ["sieve", "--kind", "mu", "--lo", "1", "--hi", "5", "--seed", "1"],
    ["floorsum", "--f", "tau2", "--x", "100", "--threads", "2"],
    ["exppair", "--word", "A", "--threads", "0"],
    ["balance", "--param", "r", "--form", "r", "--max-terms", "0"],
    ["classify", "--k", "2", "--D", "1024", "--factors", "8,128", "--cache-dir", "DIR"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == "" and "unrecognized arguments" in err
    assert err.startswith(f"usage: floorsum {argv[0]} ")


@pytest.mark.parametrize("argv", [
    ["sieve", "--kind", "mu", "--lo", "1", "--hi", "5", "--max", "5"],
    ["constant", "--kind", "lambda", "--t", "100"],
    ["floorsum", "--f", "tau2", "--x", "100", "--meth", "direct"],
    ["--he"],
])
def test_abbreviated_options_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""


# The byte contract: literal stdout of the exact-valued subcommands in
# both formats, and which format each one writes by default.
PINNED = [
    (("sieve", "--kind", "mu", "--lo", "1", "--hi", "7"), "csv",
     "n,value\n1,1\n2,-1\n3,-1\n4,0\n5,-1\n6,1\n",
     '{"hi": 7, "kind": "mu", "lo": 1, "values": [1, -1, -1, 0, -1, 1]}\n'),
    (("sieve", "--kind", "tau2", "--lo", "10", "--hi", "16"), "csv",
     "n,value\n10,4\n11,2\n12,6\n13,2\n14,4\n15,4\n",
     '{"hi": 16, "kind": "tau2", "lo": 10, "values": [4, 2, 6, 2, 4, 4]}\n'),
    (("floorsum", "--f", "tau2", "--x", "100", "--method", "direct"), "csv",
     "191\n",
     '{"f": "tau2", "method": "direct", "value": "191", "x": 100}\n'),
    (("floorsum", "--f", "tau2", "--x", "100", "--method", "dual", "--N", "10"), "csv",
     "191\n",
     '{"N": 10, "f": "tau2", "method": "dual", "psi_form_discrepancy": {"den": "1", "num": "0"}, '
     '"s1": "49", "s2": "142", "total": "191", "x": 100}\n'),
    (("exppair", "--word", "BA^5", "--base", "13/84,55/84"), "json",
     "kappa_num,kappa_den,lambda_num,lambda_den\n1653,3494,880,1747\n",
     '{"kappa": {"den": "3494", "num": "1653"}, "lambda": {"den": "1747", "num": "880"}, '
     '"word": "BA^5"}\n'),
    (("exppair", "--base", "1/2,1/2", "--bound", "vdc", "--Y", "100", "--X", "100"), "json",
     "kappa_num,kappa_den,lambda_num,lambda_den\n1,2,1,2\n",
     '{"bound": {"addends": {"1/Y": "0.01", "Y^kappa X^lambda": "100.00000000000004"}, '
     '"domain_ok": true, "inputs": {"X": "100.0", "Y": "100.0"}, "lemma": "VDC", '
     '"note": "epsilon factor and implied constant excluded", "value": "100.01000000000005"}, '
     '"kappa": {"den": "2", "num": "1"}, "lambda": {"den": "2", "num": "1"}, "word": ""}\n'),
    (("balance", "--param", "r", "--param", "w", "--form", "7/15+r",
      "--form", "11/24+(7/12)w", "--form", "1/2-w-r"), "json",
     "parameter,num,den\nr,1,195\nw,3,130\nvalue,92,195\n",
     '{"active": ["7/15+r", "11/24+(7/12)w", "1/2-w-r"], "assignment": '
     '{"r": {"den": "195", "num": "1"}, "w": {"den": "130", "num": "3"}}, '
     '"value": {"den": "195", "num": "92"}}\n'),
    (("classify", "--k", "2", "--D", str(2**20), "--factors", f"{2**6},{2**14}"), "json",
     "k,D,factors,case,t,L1,L2\n2,1048576,64;16384,I,,,\n",
     '{"D": 1048576, "L1": null, "L2": null, "case": "I", "factors": [64, 16384], '
     '"k": 2, "t": null}\n'),
    (("classify", "--k", "5", "--D", str(2**20), "--factors", ",".join(["16"] * 5)), "json",
     "k,D,factors,case,t,L1,L2\n5,1048576,16;16;16;16;16,III,2,256,4096\n",
     '{"D": 1048576, "L1": 256, "L2": 4096, "case": "III", "factors": [16, 16, 16, 16, 16], '
     '"k": 5, "t": 2}\n'),
]


@pytest.mark.parametrize("argv, default, csv_out, json_out", PINNED)
def test_exact_outputs_are_pinned(capsys, argv, default, csv_out, json_out):
    assert run(capsys, *argv, "--format", "csv") == (EXIT_OK, csv_out, "")
    assert run(capsys, *argv, "--format", "json") == (EXIT_OK, json_out, "")
    assert run(capsys, *argv)[1] == {"csv": csv_out, "json": json_out}[default]


@pytest.mark.parametrize("argv, which", [
    (("sieve", "--kind", "lambda", "--lo", "1", "--hi", "5"), 0),
    (("floorsum", "--f", "tau2", "--x", "4"), None),
    (("constant", "--kind", "tau2", "--terms", "100"), 0),
    (("errfit", "--f", "tau2", "--x-lo", "10", "--x-hi", "40", "--terms", "1000"), 0),
    (("vaaler-check", "--H", "3", "--points", "2"), 0),
    (("vaughan-check", "--D", "200"), 0),
    (("exppair", "--word", "A"), 0),
    (("balance", "--param", "r", "--form", "r"), 0),
    (("expsum", "--shape", "monomial", "--x", "1000", "--n-lo", "10"), 0),
    (("expsum", "--shape", "monomial", "--x", "1000", "--n-lo", "10",
      "--bound", "vdc", "--pair", "1/2,1/2"), 1),
    (("classify", "--k", "2", "--D", "1024", "--factors", "8,128"), 0),
])
def test_csv_header_is_the_help_epilog_columns(capsys, monkeypatch, argv, which):
    monkeypatch.setenv("COLUMNS", "200")
    code, help_text, _ = run(capsys, argv[0], "--help")
    assert code == EXIT_OK
    columns = re.findall(r"\w+(?:,\w+)+", help_text.split("csv columns:")[1])
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == EXIT_OK
    if which is None:  # a bare value, no header line
        assert columns == [] and len(out.splitlines()) == 1
        return
    header, *rows = csv.reader(line for line in out.splitlines() if not line.startswith("{"))
    assert ",".join(header) == columns[which]
    assert rows and all(len(row) == len(header) for row in rows)


def test_vaughan_csv_row_splits_complex_cells(capsys):
    # --g random --seed 3 draws the weights from default_rng(3) on (D, 2D]
    dec = decompose(500, np.exp(2j * np.pi * np.random.default_rng(3).random(500)))
    code, out, _ = run(capsys, "vaughan-check", "--D", "500", "--g", "random", "--seed", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    parts = [dec.t1, dec.t2, dec.t3, dec.direct]
    cells = [repr(getattr(z, part)) for z in parts for part in ("real", "imag")]
    assert out.splitlines()[1] == ",".join(
        map(str, [dec.D, dec.D1, dec.U, *cells, repr(dec.abs_err), repr(dec.rel_err)]))


def test_errfit_csv_rows_are_the_error_series(capsys):
    # the fit needs a third point, so the grid is 10, 20, 40
    bracket = main_constant(tau(2), 1000)
    series = error_series(tau(2), bracket, [10, 20, 40])
    code, out, _ = run(capsys, "errfit", "--f", "tau2", "--x-lo", "10", "--x-hi", "40",
                       "--terms", "1000", "--format", "csv")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[0] == "x,S,E,C_lo,C_hi" and len(rows) == 5 and rows[1].startswith("10,")
    assert rows[1:4] == [f"{x},{s!r},{e!r},{bracket.lo!r},{bracket.hi!r}"
                         for x, s, e in zip(series.xs, series.sums, series.errors)]
    assert set(json.loads(rows[4])) == {"fit"}


def test_expsum_csv_row_of_the_paper_regime(capsys):
    # x = 1e8, D = x^(8/15) ~ 18478, H = D^2 / x^(1 - 1/195) ~ 3.9
    x = 10**8
    d = round(x ** (8 / 15))
    h_lo = max(1, round(d * d / x ** (1 - 1 / 195) / 2))
    code, out, _ = run(capsys, "expsum", "--shape", "triple", "--x", str(float(x)),
                       "--h-lo", str(h_lo), "--m-lo", str(round(math.sqrt(d) / 2)),
                       "--n-lo", str(round(math.sqrt(d))), "--coeffs", "random",
                       "--bound", "lwy", "--pair", "1/2,1/2", "--format", "csv")
    assert code == EXIT_OK
    _, row = csv.reader(io.StringIO(out))
    assert "triple" in ",".join(row) and row[1] == "triple"
    assert math.isfinite(float(row[-1]))


def test_vaaler_csv_rows_on_a_two_point_grid(capsys):
    code, out, _ = run(capsys, "vaaler-check", "--H", "3", "--points", "2", "--x-lo", "0",
                       "--x-hi", "0.25", "--format", "csv")
    assert code == EXIT_OK
    rows = out.splitlines()
    assert rows[0] == "x,psi,psi_star,delta,slack"
    assert len(rows) == 3 and rows[1].startswith("0.0,") and rows[2].startswith("0.25,")


def test_closed_pipe_ends_quietly():
    # like `floorsum sieve ... | head -1`: the reader closes the pipe while
    # the rest of the 200000 rows are still being written
    env = {**os.environ, "PYTHONPATH": str(Path(floorsum.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "floorsum.cli", "sieve", "--kind", "tau2", "--lo", "1",
         "--hi", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,value\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode in (0, -signal.SIGPIPE)


# The reference formatter: one CSV line per row, one Python call per cell,
# and a JSON conversion that walks every value.
REFERENCE_CELLS = {
    type(None): lambda v: "",
    float: float.__repr__,
    complex: lambda v: f"{v.real!r},{v.imag!r}",
    F: lambda v: f"{v.numerator},{v.denominator}",
}


def reference_csv_line(row):
    return ",".join([REFERENCE_CELLS.get(type(v), str)(v) for v in row]) + "\n"


def reference_jsonify(obj):
    if isinstance(obj, np.ndarray):
        return reference_jsonify(obj.tolist())
    if isinstance(obj, F):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, complex):
        return {"re": repr(obj.real), "im": repr(obj.imag)}
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: reference_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonify(v) for v in obj]
    return obj


def reference_output(argv):
    args = _build_parser().parse_args(argv)
    report = args.run(args)
    if args.format == "json":
        return json.dumps(reference_jsonify(report.payload), sort_keys=True) + "\n"
    header = args.columns[report.when]
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in report.columns]
    lines = [] if header is None else [header + "\n"]
    lines += [reference_csv_line(row) for row in zip(*columns)]
    if report.trailer is not None:
        lines.append(json.dumps(reference_jsonify(report.trailer), sort_keys=True) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    # tables that cross block borders and end in a partial block
    ("sieve", "--kind", "lambda", "--lo", "1", "--hi", "70001"),
    ("sieve", "--kind", "mu", "--lo", str(10**9 + 7), "--hi", str(10**9 + 20007)),
    ("vaaler-check", "--H", "5", "--points", "40000"),
    # one-row reports with None, Fraction, complex, bool and float cells
    ("classify", "--k", "2", "--D", str(2**20), "--factors", f"{2**6},{2**14}"),
    ("balance", "--param", "r", "--param", "w", "--form", "7/15+r", "--form", "11/24+(7/12)w",
     "--form", "1/2-w-r"),
    ("exppair", "--word", "BA^5", "--base", "13/84,55/84", "--bound", "vdc", "--Y", "100",
     "--X", "100"),
    ("vaughan-check", "--D", "500", "--g", "random", "--seed", "3"),
    ("floorsum", "--f", "lambda", "--x", "1000"),
    ("floorsum", "--f", "lambda", "--x", "1000", "--method", "dual", "--N", "10"),
    # a list of dicts of floats, and a trailing fit line
    ("errfit", "--f", "lambda", "--x-lo", "1000", "--x-hi", "16000", "--terms", "10000"),
])
def test_output_is_the_reference_formatters(capsys, argv, fmt):
    expected = reference_output([*argv, "--format", fmt])
    assert run(capsys, *argv, "--format", fmt) == (EXIT_OK, expected, "")
    if argv[0] == "sieve" and fmt == "csv":
        assert len(expected.splitlines()) > 2 * cli._CSV_BLOCK + 1


class _Discard:
    def write(self, text):
        return len(text)


def test_csv_memory_is_bounded_by_the_block(monkeypatch):
    # a 2^20-row table as Python ints alone would take more than 8 MB
    table = sieve_table(LAMBDA, 10**9, 10**9 + 2**20)
    monkeypatch.setattr(cli, "sieve_table", lambda *args, **kwargs: table)
    monkeypatch.setattr(sys, "stdout", _Discard())
    tracemalloc.start()
    try:
        code = main(["sieve", "--kind", "lambda", "--lo", str(table.lo), "--hi", str(table.hi)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 4 * 2**20
