import json
import math

import numpy as np
import pytest

from orthant_t2.cli import main, read_sample_csv, render_json
from orthant_t2.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderJson:
    def test_roundtrip_precision(self):
        s = render_json({"x": 0.1 + 0.2, "n": 3, "flag": True, "none": None, "list": [1.0, 2]})
        parsed = json.loads(s)
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["n"] == 3
        assert parsed["flag"] is True
        assert parsed["none"] is None

    def test_escaping(self):
        assert json.loads(render_json({"s": 'a"b\\c'}))["s"] == 'a"b\\c'


class TestQBound:
    def test_unit_region(self, capsys):
        code, out, _ = run_cli(capsys, "qbound", "--r", "5", "--u", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["q_value"] == 1.0
        assert payload["region"] == "UNIT"
        assert payload["lambda_envelope"] is None

    def test_quadratic_region(self, capsys):
        code, out, _ = run_cli(capsys, "qbound", "--r", "1", "--u", "1.5", "--format", "json")
        payload = json.loads(out)
        assert payload["q_value"] == pytest.approx(1.0 / 2.25, rel=1e-12)
        assert payload["region"] == "QUADRATIC"

    def test_far_ratio_window(self, capsys):
        code, out, _ = run_cli(capsys, "qbound", "--r", "1", "--u", "12", "--format", "json")
        payload = json.loads(out)
        assert 4.0 < payload["lambda"] < 2.0 * math.e**3 / 9.0

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "qbound", "--r", "-1", "--u", "1")
        assert code == 2
        assert "positive" in err

    def test_numerical_failure_exit_3(self, capsys, monkeypatch):
        def overflow(r, u):
            raise OverflowError("math range error")

        monkeypatch.setattr("orthant_t2.cli.q_bound", overflow)
        code, out, err = run_cli(capsys, "qbound", "--r", "400", "--u", "25")
        assert code == 3
        assert out == ""
        assert err == "error: numerical failure: math range error\n"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "qbound", "--r", "5", "--u", "1")
        assert code == 0
        assert "region: UNIT" in out


class TestCritval:
    def test_d1(self, capsys):
        code, out, _ = run_cli(capsys, "critval", "--d", "1", "--delta", "0.05", "--format", "json")
        payload = json.loads(out)
        assert payload["x_delta"] == pytest.approx(1.96, abs=0.01)
        assert payload["x_delta_over_c"] == pytest.approx(2.54, abs=0.01)
        assert payload["z_delta"] == pytest.approx(2.72, abs=0.01)

    def test_d20(self, capsys):
        code, out, _ = run_cli(capsys, "critval", "--d", "20", "--delta", "0.05", "--format", "json")
        payload = json.loads(out)
        assert payload["x_delta"] == pytest.approx(5.61, abs=0.01)
        assert payload["x_delta_over_c"] == pytest.approx(6.10, abs=0.01)
        assert payload["z_delta"] == pytest.approx(6.28, abs=0.01)

    def test_large_delta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "critval", "--d", "2", "--delta", "0.6")
        assert code == 2
        assert "0.5" in err

    def test_dimension_below_one_rejected(self, capsys):
        code, _, err = run_cli(capsys, "critval", "--d", "0.5", "--delta", "0.5")
        assert code == 2
        assert err.count("\n") == 1 and "d >= 1" in err


class TestTable:
    def test_json_all_entries(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--delta", "0.05", "--dims", "1,2,5,10,20,50",
                               "--format", "json")
        reference = {
            1: (1.96, 2.54, 2.72), 2: (2.45, 3.00, 3.18), 5: (3.33, 3.85, 4.03),
            10: (4.28, 4.78, 4.97), 20: (5.61, 6.10, 6.28), 50: (8.22, 8.69, 8.88),
        }
        payload = json.loads(out)
        assert code == 0
        for row in payload["rows"]:
            want = reference[int(row["d"])]
            assert abs(row["x_delta"] - want[0]) <= 0.01
            assert abs(row["x_delta_over_c"] - want[1]) <= 0.01
            assert abs(row["z_delta"] - want[2]) <= 0.01

    def test_text_two_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--dims", "1,2")
        assert "1.96" in out
        assert "2.45" in out
        assert "x_delta_over_c" in out

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--format", "json")
        _, out2, _ = run_cli(capsys, "table", "--format", "json")
        assert out1 == out2

    def test_bad_dims(self, capsys):
        code, _, err = run_cli(capsys, "table", "--dims", "1,two")
        assert code == 2


class TestT2Command:
    def test_antithetic_two_rows(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("1\n-1\n")
        code, out, _ = run_cli(capsys, "t2", "--input", str(path), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["r_squared"] == pytest.approx(0.0, abs=1e-14)
        assert payload["p_upper_Q"] == 1.0
        assert payload["p_upper_eaton"] == 1.0

    def test_single_row_infinite_t2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("2.5,1.0\n")
        code, out, _ = run_cli(capsys, "t2", "--input", str(path), "--format", "json")
        payload = json.loads(out)
        assert payload["t_squared"] is None
        assert payload["t_squared_infinite"] is True
        code, out, _ = run_cli(capsys, "t2", "--input", str(path))
        assert "t_squared: inf" in out

    def test_header_autodetect(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
        code, out, _ = run_cli(capsys, "t2", "--input", str(path), "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["n"] == 2

    def test_malformed_cell_coordinates(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(capsys, "t2", "--input", str(path))
        assert code == 2
        assert "row 2" in err
        assert "column 2" in err

    def test_ragged_row(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        code, _, err = run_cli(capsys, "t2", "--input", str(path))
        assert code == 2
        assert "row 2" in err

    def test_missing_cell(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        path.write_text("1.0,2.0\n3.0,\n")
        code, _, err = run_cli(capsys, "t2", "--input", str(path))
        assert code == 2

    def test_declared_dim_flag(self, tmp_path, capsys):
        rng = np.random.Generator(np.random.PCG64(33))
        X = rng.normal(size=(12, 2))
        path = tmp_path / "s.csv"
        path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
        code, out, _ = run_cli(capsys, "t2", "--input", str(path), "--dim", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["d"] == 4.0
        assert payload["rank"] == 2
        assert payload["rank_matches_dim"] is False

    def test_nan_cell_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n")
        code, _, err = run_cli(capsys, "t2", "--input", str(path))
        assert code == 2


class TestReadSampleCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("1,2\n3,4\n")
        X = read_sample_csv(str(path))
        assert X.shape == (2, 2)
        assert X[1, 0] == 3.0

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError):
            read_sample_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(DomainError):
            read_sample_csv(str(path))


class TestVerifyCommand:
    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "FAIL" not in out

    def test_table_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "table")
        assert code == 0

    def test_unknown_suite_lists_valid(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2
        for name in ("identities", "lambda", "mlr", "moments", "table", "tails"):
            assert name in err

    def test_json_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "moments", "--budget", "5",
                             "--seed", "7", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "moments", "--budget", "5",
                             "--seed", "7", "--format", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["passed"] is True
        assert payload["seed"] == 7

    def test_mlr_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "mlr")
        assert code == 0
