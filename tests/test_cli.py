import csv
import io
import json
from fractions import Fraction as F

import pytest

from floorsum.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main


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
])
def test_constant_terms_respect_max_terms(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == "" and "budget" in err


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
