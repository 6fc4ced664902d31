"""CLI surface: parsing, subcommands, exit codes, output determinism."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jacobicode.cli import run_cli
from jacobicode.fields import make_field
from jacobicode.polytext import format_poly, parse_poly


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


class TestPolyText:
    def test_parse_examples(self, f2, f4):
        assert parse_poly("x^5+x^3", f2) == (0, 0, 0, 1, 0, 1)
        assert parse_poly("1", f2) == (1,)
        assert parse_poly("0", f2) == ()
        assert parse_poly("3*x^2+2*x+1", f4) == (1, 2, 3)
        assert parse_poly("x + x", f2) == ()  # repeated monomials add in the field

    def test_parse_rejects_bad_coefficients(self, f2):
        with pytest.raises(ValueError):
            parse_poly("2*x", f2)
        with pytest.raises(ValueError):
            parse_poly("x^-1", f2)
        with pytest.raises(ValueError):
            parse_poly("", f2)

    def test_round_trip(self, f4):
        F5 = make_field(5, 1)
        for field in (f4, F5):
            for enc in range(0, field.q ** 3, 7):
                coeffs = []
                rest = enc
                for _ in range(3):
                    rest, c = divmod(rest, field.q)
                    coeffs.append(c)
                from jacobicode.poly import trim
                t = trim(coeffs)
                assert parse_poly(format_poly(t), field) == t


class TestAnalyze:
    def test_e2_inline(self):
        code, out, _ = invoke(["analyze", "--q", "2", "--h", "1",
                               "--f", "x^5+x^3", "--r", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "1"
        assert data["simple"] is True
        rep = data["rows"][0]["report"]
        assert (rep["n"], rep["k"], rep["d_lb"]) == (13, 9, -8)

    def test_curve_json_string(self):
        curve = {"field": {"p": 2, "a": 1, "modulus": [0, 1]},
                 "h": [1], "f": [0, 0, 0, 1, 0, 1]}
        code, out, _ = invoke(["analyze", "--curve", json.dumps(curve), "--r", "3,4"])
        assert code == 0
        data = json.loads(out)
        assert [row["report"]["r"] for row in data["rows"]] == [3, 4]

    def test_curve_file(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": {"p": 2, "a": 1, "modulus": [0, 1]},
                                    "h": [1], "f": [0, 0, 0, 0, 0, 1]}))
        code, out, _ = invoke(["analyze", "--curve", str(path), "--r", "3"])
        assert code == 0
        assert json.loads(out)["simple"] is False  # E1 splits

    def test_singular_input_is_exit_1(self):
        code, _, err = invoke(["analyze", "--q", "2", "--h", "0", "--f", "x^5"])
        assert code == 1
        assert "error" in err

    def test_missing_args_is_exit_1(self):
        code, _, err = invoke(["analyze", "--q", "2"])
        assert code == 1


class TestBound:
    def test_text_output(self):
        code, out, _ = invoke(["bound", "--q", "2", "--tau", "2", "--pi", "3"])
        assert code == 0 and out.strip() == "7"

    def test_json_output(self):
        code, out, _ = invoke(["bound", "--q", "2", "--tau", "2", "--pi", "2",
                               "--format", "json"])
        assert code == 0 and json.loads(out)["bound"] == 5

    def test_trace_violation_exits_1(self):
        code, _, err = invoke(["bound", "--q", "2", "--tau", "-3", "--pi", "2"])
        assert code == 1 and "tau" in err


class TestJacobian:
    def test_verify_order(self):
        code, out, _ = invoke(["jacobian", "--q", "2", "--h", "1",
                               "--f", "x^5+x^3", "--verify-order"])
        assert code == 0
        data = json.loads(out)
        assert data["order_from_weil"] == 13
        assert data["enumerated"] == 13
        assert data["order_verified"] is True

    def test_enumerate_lists_elements(self):
        code, out, _ = invoke(["jacobian", "--q", "2", "--h", "1",
                               "--f", "x^5", "--enumerate"])
        assert code == 0
        data = json.loads(out)
        assert len(data["elements"]) == 5
        assert {"u": [1], "v": []} in data["elements"]


class TestAttain:
    def test_e2_experiments(self):
        code, out, _ = invoke(["attain", "--q", "2", "--h", "1",
                               "--f", "x^5+x^3", "--r", "3", "--tuples", "12"])
        assert code == 0
        data = json.loads(out)
        assert data["tuples"] == 12
        assert data["max_support"] <= 13
        assert data["bound_respected"] is True  # d_lb <= 0 never constrains
        assert all(not e["attained"] for e in data["experiments"])

    @pytest.mark.parametrize("flag,value", [("--tuples", "0"), ("--r", "1")])
    def test_bad_counts_are_exit_1(self, flag, value):
        code, out, err = invoke(["attain", "--q", "2", "--h", "1",
                                 "--f", "x^5+x^3", flag, value])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestSearch:
    def test_exhaustive_f2_csv(self):
        code, out, _ = invoke(["search", "--q", "2", "--r", "3", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "q,h,f,N1,N2,c1,c2,simplicity,r,n,k,d_lb,certified"
        assert len(lines) == 1 + 128

    def test_byte_identical_runs_and_output_file(self, tmp_path):
        args = ["search", "--q", "2", "--r", "3", "--random", "--trials", "64",
                "--seed", "5", "--format", "json"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert invoke(args + ["--output", str(p1)])[0] == 0
        assert invoke(args + ["--output", str(p2), "--parallel", "2"])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["seed"] == 5 and data["trials"] == 64

    def test_random_needs_seed(self):
        code, _, err = invoke(["search", "--q", "2", "--random", "--trials", "5"])
        assert code == 1

    def test_usage_error_is_exit_1(self):
        code, _, err = invoke(["search"])  # missing --q
        assert code == 1


class TestSelftest:
    def test_small_run(self):
        code, out, _ = invoke(["selftest", "--q", "2"])
        assert code == 0
        assert "selftest q=2" in out
