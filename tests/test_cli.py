"""CLI surface: parsing, subcommands, exit codes, output determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobicode import explore, poly
from jacobicode.cli import run_cli
from jacobicode.fields import make_field
from jacobicode.poly import parse_poly


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
                t = poly.trim(coeffs)
                assert parse_poly(poly.to_string(t), field) == t


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

    def test_repeated_radii_give_one_row_each(self):
        code, out, _ = invoke(["analyze", "--q", "2", "--h", "1", "--f", "x^5+x^3",
                               "--r", "3,3,1", "--format", "csv"])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert [row[header.index("r")] for row in rows] == ["3", "1"]

    def test_curve_file(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"field": {"p": 2, "a": 1, "modulus": [0, 1]},
                                    "h": [1], "f": [0, 0, 0, 0, 0, 1]}))
        code, out, _ = invoke(["analyze", "--curve", str(path), "--r", "3"])
        assert code == 0
        assert json.loads(out)["simple"] is False  # E1 splits

    def test_non_utf8_curve_file_is_one_line_error(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = invoke(["analyze", "--curve", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_long_inline_json_is_not_taken_for_a_path(self):
        curve = {"field": {"p": 2, "a": 1, "modulus": [0, 1]},
                 "h": [1], "f": [0, 0, 0, 1, 0, 1]}
        text = json.dumps(curve, indent=40)  # longer than a file name may be
        assert len(text) > 255
        code, out, _ = invoke(["analyze", "--curve", text])
        assert code == 0 and json.loads(out)["simple"] is True

    def test_singular_input_is_exit_1(self):
        code, _, err = invoke(["analyze", "--q", "2", "--h", "0", "--f", "x^5"])
        assert code == 1
        assert "error" in err

    def test_missing_args_is_exit_1(self):
        code, _, err = invoke(["analyze", "--q", "2"])
        assert code == 1

    def test_empty_radius_list_is_rejected_before_counting(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("counted points for an empty --r list")
        monkeypatch.setattr(explore, "count_points", no_count)
        code, out, err = invoke(["analyze", "--q", "2", "--h", "1",
                                 "--f", "x^5+x^3", "--r", ","])
        assert (code, out, err) == (1, "", "error: empty --r list\n")

    @pytest.mark.parametrize("command,r", [("analyze", "1000000"), ("attain", "7")])
    def test_radius_beyond_the_policy_is_rejected_before_counting(self, monkeypatch,
                                                                  command, r):
        def no_count(*args):
            raise AssertionError(f"counted points for r = {r}")
        monkeypatch.setattr(explore, "count_points", no_count)
        code, out, err = invoke([command, "--q", "2", "--h", "1", "--f", "x^5+x^3",
                                 "--r", r])
        assert (code, out, err) == (1, "", f"error: r must be in 1..6, got {r}\n")


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

    # translate experiments are almost all point-plus-class sums; a change
    # that alters attain output on purpose re-records these digests
    @pytest.mark.parametrize("argv,digest", [
        ("--q 32 --h 1 --f x^5+x^3+1 --r 3 --tuples 200", "f7d505d57485c4d3"),
        ("--q 27 --f x^5+x^2+2 --r 3 --tuples 200", "83436dd2d44db363"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "attain.json"
        assert run_cli(["attain", *argv.split(), "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

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

    # A change that alters search output on purpose re-records these digests.
    @pytest.mark.parametrize("argv,digest", [
        ("--q 2 --r 1,2,3,3 --random --trials 2000 --seed 1", "97ca78bf211c7c75"),
        ("--q 3 --r 3 --format csv", "2c54594c793e5fe8"),
        ("--q 2 --r 3,4 --random --trials 3000 --seed 5 --parallel 2 --format text",
         "1ecc12e34116baa6"),
        ("--q 49 --r 3 --random --trials 300 --seed 1 --format csv", "238f4adcde7fec22"),
    ])
    def test_output_bytes_are_pinned(self, tmp_path, argv, digest):
        path = tmp_path / "table"
        assert run_cli(["search", *argv.split(), "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest

    def test_readme_f16_search(self, tmp_path):
        # the README's F_16 command: its top row is a certified [526, 9, >= 433]
        # code at N1 = 29 (the one N1 = 33 model of the same draws is not simple)
        path = tmp_path / "table.csv"
        argv = "--q 16 --r 3 --random --trials 5000 --seed 2024 --top 10 --format csv"
        assert run_cli(["search", *argv.split(), "--output", str(path)]) == 0
        text = path.read_bytes()
        assert hashlib.sha256(text).hexdigest()[:16] == "251d732ecba10933"
        top = next(csv.DictReader(io.StringIO(text.decode())))
        assert (top["certified"], top["N1"]) == ("True", "29")
        assert (top["n"], top["k"], top["d_lb"]) == ("526", "9", "433")

    def test_random_needs_seed(self):
        code, _, err = invoke(["search", "--q", "2", "--random", "--trials", "5"])
        assert code == 1

    def test_usage_error_is_exit_1(self):
        code, _, err = invoke(["search"])  # missing --q
        assert code == 1


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--q", "2", "--f", "x^5+x^3+7"],
        ["search", "--q", "4", "--random", "--trials", "0", "--seed", "1"],
        ["bound", "--q", "4", "--tau", "0", "--pi", "0"],
        ["bound", "--q", "6", "--tau", "0", "--pi", "3"],
        ["analyze", "--curve", '{"field":{"p":2}}'],
        ["analyze", "--curve", "[1]"],
        ["analyze", "--curve", '{"field":{"p":2,"a":1},"h":[0.5],"f":[0,0,0,1,0,1]}'],
        ["search", "--q", "2", "--modulus", "x"],
        ["search", "--q", "2", "--top", "-1"],
        ["search", "--q", "2", "--r", ","],
        ["selftest"],
        ["bound", "--q", "1000000000000000003", "--tau", "0", "--pi", "3"],
        ["analyze", "--q", "1000000000000000003", "--h", "1", "--f", "x^5"],
        ["analyze", "--curve",
         '{"field":{"p":1000000000000000003,"a":1},"h":[1],"f":[0,0,0,1,0,1]}'],
        ["analyze", "--curve", '{"field":{"p":2,"a":100000000000},"h":[1],"f":[0,0,0,1,0,1]}'],
        ["analyze", "--q", "2", "--h", "1", "--f", "x^5+x^3", "--r", "1000000"],
        ["attain", "--q", "2", "--h", "1", "--f", "x^5+x^3", "--r", "7"],
        # JSON booleans are no integers, though Python's True == 1
        ["analyze", "--curve", '{"field":{"p":2,"a":2},"h":[true],"f":[1,0,0,0,0,1]}'],
        ["analyze", "--curve", '{"field":{"p":2,"a":1},"h":[1],"f":[1,0,0,0,0,1,false]}'],
        ["analyze", "--curve", '{"field":{"p":2,"a":true},"h":[1],"f":[0,0,0,1,0,1]}'],
        ["analyze", "--curve", '{"field":{"p":true,"a":1},"h":[1],"f":[0,0,0,1,0,1]}'],
        ["analyze", "--curve",
         '{"field":{"p":2,"a":1,"modulus":[false,true]},"h":[1],"f":[0,0,0,1,0,1]}'],
        ["analyze", "--curve",
         '{"field":{"p":2,"a":1,"modulus":[0.7,1]},"h":[1],"f":[0,0,0,1,0,1]}'],
        # an exponent no curve model has, and numbers longer than int() reads
        ["analyze", "--q", "2", "--h", "1", "--f", "x^1000000000000000000000"],
        ["analyze", "--q", "2", "--h", "1", "--f", "x^1000000000"],
        ["analyze", "--q", "2", "--h", "1", "--f", "x^" + "1" * 4301],
        ["analyze", "--q", "2", "--h", "1", "--f", "1" * 4301 + "*x^5"],
        ["analyze", "--curve",
         '{"field":{"p":2,"a":1},"h":[1],"f":[' + "1" * 4301 + ',0,0,0,0,1]}'],
    ])
    def test_bad_input_is_one_line_error(self, argv):
        code, out, err = invoke(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--q", "131072", "--h", "1", "--f", "x^5"],
        ["analyze", "--curve", '{"field":{"p":2,"a":17},"h":[1],"f":[0,0,0,1,0,1]}'],
    ])
    def test_size_cap_message_names_no_python_keyword(self, argv):
        code, _, err = invoke(argv)
        assert code == 1 and err.startswith("error:")
        assert "exceeds the cap 65536" in err and "allow_large" not in err

    @pytest.mark.parametrize("command", ["jacobian", "attain"])
    def test_format_is_not_an_option(self, command):
        # both subcommands write JSON only
        code, out, err = invoke([command, "--q", "2", "--h", "1", "--f", "x^5+x^3",
                                 "--format", "csv"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unwritable_output_is_exit_1(self, tmp_path):
        code, _, err = invoke(["bound", "--q", "2", "--tau", "2", "--pi", "3",
                               "--output", str(tmp_path / "missing" / "out.txt")])
        assert code == 1 and err.startswith("error:")

    def test_help_exits_0(self):
        assert invoke(["bound", "--help"])[0] == 0


# argv fuzzing vocabulary: small fields only, so that every run stays cheap
# ("TMP" is replaced by a scratch directory)
_CURVES = ["TMP", "TMP/missing.json", "null", "[1]", "{}", "not json",
           '{"field":{"p":2}}', '{"field":[2,1],"h":[1],"f":[1]}',
           '{"field":{"p":2,"a":0},"h":[1],"f":[0,0,0,1,0,1]}',
           '{"field":{"p":"2","a":1},"h":[1],"f":[0,0,0,1,0,1]}',
           '{"field":{"p":2,"a":1,"modulus":["x"]},"h":[1],"f":[0,0,0,1,0,1]}',
           '{"field":{"p":2,"a":1},"h":5,"f":[0,0,0,1,0,1]}',
           '{"field":{"p":2,"a":1},"h":"x","f":[0,0,0,1,0,1]}',
           '{"field":{"p":2,"a":1},"h":[1],"f":[0,0,0,1,0,1]}',
           '{"field":{"p":3,"a":1},"h":[],"f":[1,0,0,0,0,1]}']
_POLYS = ["", "+", "0", "1", "x", "2*x", "x^-1", "x^5", "x^5+x^3", "x^5+x^3+7",
          "x^5+x+1", "x^5+2*x+1", "x^6+1"]
_Q = ["-1", "0", "1", "2", "3", "4", "6", "9", "x"]
_OUTPUT = {"--output": ["TMP/out.txt", "TMP/missing/out.txt", "TMP"]}
_OUT = {"--format": ["json", "csv", "text", "xml"], **_OUTPUT}
_CURVE = {"--curve": _CURVES, "--q": _Q, "--modulus": ["", "x", "0,1", "1,1", "1,1,1"],
          "--h": _POLYS, "--f": _POLYS}
_NUM = ["-1", "0", "1", "2", "3", "7", "x"]
_ARGV_OPTIONS = {
    "analyze": {**_CURVE, "--r": _NUM + ["3,4", ""], **_OUT},
    "jacobian": {**_CURVE, "--enumerate": None, "--verify-order": None, **_OUTPUT},
    "bound": {"--q": _Q + ["1000003"], "--tau": ["-5", "0", "2", "x"], "--pi": _NUM, **_OUT},
    "attain": {**_CURVE, "--r": _NUM, "--tuples": _NUM, **_OUTPUT},
    "search": {"--q": ["-1", "0", "2", "3", "6", "x"], "--modulus": ["x", "0,1", "1,1"],
               "--kind": ["imaginary", "real", "other"], "--r": _NUM + ["3,4"],
               "--exhaustive": None, "--random": None, "--trials": _NUM, "--seed": _NUM,
               "--top": _NUM, "--parallel": ["-1", "0", "1"], **_OUT},
}


# valid starting points; options drawn after them override or break them
_CURVE_BASES = [[], ["--q", "2", "--h", "1", "--f", "x^5+x^3"],
                ["--q", "4", "--h", "x", "--f", "x^5+2*x+3"], ["--curve", _CURVES[-1]]]
_ARGV_BASES = {
    "analyze": _CURVE_BASES,
    "jacobian": _CURVE_BASES,
    "bound": [[], ["--q", "2", "--tau", "2", "--pi", "3"]],
    "attain": _CURVE_BASES,
    "search": [[], ["--q", "2"], ["--q", "3", "--random", "--seed", "1", "--trials", "20"]],
}


@st.composite
def _argvs(draw):
    cmd = draw(st.sampled_from(sorted(_ARGV_OPTIONS)))
    options = _ARGV_OPTIONS[cmd]
    argv = [cmd, *draw(st.sampled_from(_ARGV_BASES[cmd]))]
    for opt in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
        argv.append(opt)
        if options[opt] is not None:
            argv.append(draw(st.sampled_from(options[opt])))
    return argv


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cli_fuzz"))


@given(argv=_argvs())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_fuzz_argv_error_contract(scratch_dir, argv):
    code, _, err = invoke([arg.replace("TMP", scratch_dir) for arg in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error:")
