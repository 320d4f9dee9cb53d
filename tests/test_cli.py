"""Command-line surface: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibanyon import multicopy, verify
from fibanyon.cli import main

TAU_STATE = {"sectors": {"tau": [1.0]}}

#: ``verify --seed 42 --cases 3`` stdout.  Each detail depends on the seeded
#: draws, so a change in the order in which the suite consumes its
#: generator shows up here.
VERIFY_SEED42_CASES3 = (
    "PASS  golden-identity: d_tau**2 == d_tau + 1 in Q[sqrt(5)]\n"
    "PASS  total-dimension: sum_c dim(n,c) d_c == d_tau**n for n <= 20\n"
    "PASS  fusion-paths: dim matches brute-force enumeration for n <= 12\n"
    "PASS  decomposition-closed-form: max |AREE - ACE - CE| = 2.220e-16 over 3 states\n"
    "PASS  decomposition-numeric: max numeric residual = 4.441e-16 over 3 states\n"
    "PASS  separable-oracle-value: max |numeric - closed| = 2.220e-16 over 3 states\n"
    "PASS  separable-oracle-gradient: min gradient = 7.349e-01 over 2 states x 40 directions\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 3.553e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 5.329e-15 for n <= 6\n"
    "PASS  omega-idempotence: max deviation = 0.000e+00\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  omega-expectations: max product-observable deviation = 5.551e-17\n"
    "PASS  tsirelson: max |CHSH| = 2.2913701359 over 1000 draws\n"
    "PASS  chsh-omega-invariance: max deviation = 2.220e-16\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "16/16 checks passed\n"
)

#: ``chsh --copies n`` stdout on the tau-pair for n = 1, 2, 3.
CHSH_TAU_PAIR = {
    1: '{"value":2.0,"angles":null,"copies":1,"verdict":"local-bound-respected"}\n',
    2: '{"value":2.0,"angles":null,"copies":2,"verdict":"local-bound-respected"}\n',
    3: (
        '{"value":2.632862008901,"angles":[0.0,1.570796326795,0.785398163397,'
        '5.497787143782],"copies":3,"verdict":"violation"}\n'
    ),
}

#: A state with a rank-2 vacuum sector and a tau sector.
MIXED_STATE = {"sectors": {"1": [0.3, 0.2], "tau": [0.5]}}

#: ``series --max-n 12`` stdout on the tau-pair.
SERIES_TAU_PAIR = (
    "n,aee,aree,ace,ce\n"
    "1,0.694241913631,1.38848382726,1.38848382726,0\n"
    "2,0.694241913631,0.90877446315,0.90877446315,0\n"
    "3,0.694241913631,0.871026456692,0.616382449192,0.2546440075\n"
    "4,0.694241913631,0.817158126965,0.463589941122,0.353568185844\n"
    "5,0.694241913631,0.795530443776,0.371016112502,0.424514331275\n"
    "6,0.694241913631,0.777708252698,0.309197962827,0.468510289871\n"
    "7,0.694241913631,0.766092497343,0.265029043131,0.501063454212\n"
    "8,0.694241913631,0.757008232076,0.231900696681,0.525107535395\n"
    "9,0.694241913631,0.750069148214,0.206133989389,0.543935158825\n"
    "10,0.694241913631,0.744474409492,0.185520595282,0.55895381421\n"
    "11,0.694241913631,0.739911991161,0.168655087261,0.5712569039\n"
    "12,0.694241913631,0.736104690531,0.154600496742,0.581504193789\n"
)

#: ``series --max-n 6`` stdout on ``MIXED_STATE``.
SERIES_MIXED = (
    "n,aee,aree,ace,ce\n"
    "1,1.83259625404,2.17971721086,1.69424191363,0.485475297227\n"
    "2,1.83259625404,2.05978986983,0.919375734297,1.14041413553\n"
    "3,1.83259625404,1.99510769851,0.617862169721,1.37724552879\n"
    "4,1.83259625404,1.95704059184,0.463762423379,1.49327816846\n"
    "5,1.83259625404,1.93278477759,0.371038197773,1.56174657982\n"
    "6,1.83259625404,1.91624971053,0.309200754977,1.60704895555\n"
)

#: ``measures`` stdout on ``MIXED_STATE``.
MEASURES_MIXED = (
    '{"aee":1.832596254043,"aree":2.179717210858,"ace":1.694241913631,'
    '"ce":0.485475297227}\n'
)


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(TAU_STATE), encoding="utf-8")
    return str(path)



@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_STATE), encoding="utf-8")
    return str(path)

def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasures:
    def test_exact_json_line(self, capsys, tau_file):
        code, out, _ = run(capsys, ["measures", "--state", tau_file])
        assert code == 0
        assert out.strip() == (
            '{"aee":0.694241913631,"aree":1.388483827261,'
            '"ace":1.388483827261,"ce":0.0}'
        )

    def test_round_trip(self, capsys, tau_file):
        code, out, _ = run(capsys, ["measures", "--state", tau_file])
        payload = json.loads(out)
        assert set(payload) == {"aee", "aree", "ace", "ce"}
        assert payload["ce"] == 0.0

    def test_csv_format(self, capsys, tau_file):
        code, out, _ = run(capsys, ["measures", "--state", tau_file, "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "aee,aree,ace,ce"
        assert float(row.split(",")[0]) == pytest.approx(0.6942419136, abs=1e-9)

    def test_golden_mixed_state(self, capsys, mixed_file):
        code, out, _ = run(capsys, ["measures", "--state", mixed_file])
        assert code == 0
        assert out == MEASURES_MIXED

    def test_unwritable_output_file(self, tmp_path, capsys, tau_file):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, ["measures", "--state", tau_file, "--out", str(target)])
        assert code == 1
        assert out == ""
        assert "cannot write output file" in err


class TestSeries:
    def test_rows_match_closed_forms(self, capsys, tau_file):
        code, out, _ = run(capsys, ["series", "--state", tau_file, "--max-n", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,aee,aree,ace,ce"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        n3 = [float(x) for x in rows[2][1:]]
        assert n3 == pytest.approx(
            [0.6942419136, 0.8710264567, 0.6163824492, 0.2546440075], abs=1e-9
        )

    def test_deterministic_output_file(self, tmp_path, capsys, tau_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["series", "--state", tau_file, "--max-n", "6", "--out", str(out1)]) == 0
        assert main(["series", "--state", tau_file, "--max-n", "6", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_json_format(self, capsys, tau_file):
        code, out, _ = run(
            capsys, ["series", "--state", tau_file, "--max-n", "2", "--format", "json"]
        )
        payload = json.loads(out)
        assert [row["n"] for row in payload["rows"]] == [1, 2]

    def test_golden_tau_pair(self, capsys, tau_file):
        code, out, _ = run(capsys, ["series", "--state", tau_file, "--max-n", "12"])
        assert code == 0
        assert out == SERIES_TAU_PAIR

    def test_golden_mixed_state(self, capsys, mixed_file):
        code, out, _ = run(capsys, ["series", "--state", mixed_file, "--max-n", "6"])
        assert code == 0
        assert out == SERIES_MIXED


class TestChsh:
    def test_three_copies_violation(self, capsys, tau_file):
        code, out, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "violation"
        assert payload["copies"] == 3
        assert payload["value"] == pytest.approx(2.63286, abs=1e-4)
        assert len(payload["angles"]) == 4

    def test_two_copies_local(self, capsys, tau_file):
        code, out, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", "2"])
        payload = json.loads(out)
        assert payload["verdict"] == "local-bound-respected"
        assert payload["value"] <= 2.0 + 1e-6

    def test_deterministic_with_seed(self, capsys, tau_file):
        # chsh draws no random numbers, so it takes no seed; runs repeat exactly.
        _, out1, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", "3"])
        _, out2, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", "3"])
        assert out1 == out2

    @pytest.mark.parametrize("copies", sorted(CHSH_TAU_PAIR))
    def test_golden_tau_pair(self, capsys, tau_file, copies):
        code, out, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", str(copies)])
        assert code == 0
        assert out == CHSH_TAU_PAIR[copies]

    def test_largest_copy_count(self, capsys, tau_file):
        code, out, _ = run(capsys, ["chsh", "--state", tau_file, "--copies", "24"])
        assert code == 0
        assert json.loads(out)["copies"] == 24


class TestCertify:
    def test_two_copies_certificate(self, capsys, tau_file):
        code, out, _ = run(capsys, ["certify", "--state", tau_file, "--copies", "2"])
        payload = json.loads(out)
        assert payload["local"] is True
        assert len(payload["terms"]) == 2
        assert payload["reconstruction_residual"] < 1e-12
        total = sum(term["p"] for term in payload["terms"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_three_copies_refusal(self, capsys, tau_file):
        code, out, _ = run(capsys, ["certify", "--state", tau_file, "--copies", "3"])
        payload = json.loads(out)
        assert payload["local"] is False
        assert payload["reason"] == "CE_POSITIVE"


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--cases", "10", "--seed", "3"])
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_golden_transcript(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert code == 0
        assert out == VERIFY_SEED42_CASES3

    def test_decomposition_violation_is_a_failed_check(self, capsys, monkeypatch):
        real = verify.e_ce_pure
        monkeypatch.setattr(verify, "e_ce_pure", lambda state: real(state) + 1e-6)
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert code == 2
        assert "FAIL  decomposition-closed-form: max |AREE - ACE - CE| = 1.000e-06" in out
        assert out.endswith("15/16 checks passed\n")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_verify(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "fibanyon", "verify", "--seed", "42", "--cases", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == VERIFY_SEED42_CASES3


class TestExitCodes:
    def test_validation_error_names_coefficient(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"sectors":{"tau":[-0.1,1.1]}}', encoding="utf-8")
        code, _, err = run(capsys, ["measures", "--state", str(path)])
        assert code == 1
        assert "-0.1" in err and "tau" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["measures", "--state", "/nonexistent.json"])
        assert code == 1
        assert "error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, _ = run(capsys, ["measures", "--state", str(path)])
        assert code == 1

    def test_state_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, ["measures", "--state", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not UTF-8 text" in err

    def test_joint_rank_beyond_int64(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"sectors": {"tau": [0.001] * 1000}}), encoding="utf-8")
        code, out, err = run(capsys, ["chsh", "--state", str(path), "--copies", "7"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: n=7 copies have joint rank") and err.count("\n") == 1

    def test_composition_budget(self, tmp_path, capsys):
        values = [float(v) for v in np.random.default_rng(4).dirichlet(np.ones(20))]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"sectors": {"1": values[:10], "tau": values[10:]}}))
        code, out, err = run(capsys, ["chsh", "--state", str(path), "--copies", "8"])
        assert code == 1
        assert out == ""
        assert err == (
            "error: n=8 copies of 20 distinct coefficients need 2220075 compositions, "
            "over the budget of 200000\n"
        )

    def test_series_closed_form_mismatch(self, capsys, tau_file, monkeypatch):
        real = multicopy.e_aree_ncopy
        monkeypatch.setattr(multicopy, "e_aree_ncopy", lambda state, n: real(state, n) + 1e-6)
        code, out, err = run(capsys, ["series", "--state", tau_file, "--max-n", "3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: n=1: constructed AREE ") and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 64
        assert "usage" in err.lower()

    def test_no_command(self, capsys):
        code, _, err = run(capsys, [])
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, ["measures"])
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--cases", "0"],
            ["verify", "--cases", "-2"],
            ["chsh", "--copies", "0"],
            ["certify", "--copies", "0"],
            ["series", "--max-n", "0"],
            ["series", "--max-n", "x"],
        ],
    )
    def test_nonpositive_count_is_usage_error(self, capsys, tau_file, argv):
        if argv[0] != "verify":
            argv = [argv[0], "--state", tau_file, *argv[1:]]
        code, _, err = run(capsys, argv)
        assert code == 64
        assert f"argument {argv[-2]}: must be a positive integer" in err

    def test_usage_line_names_the_subcommand(self, capsys):
        code, _, err = run(capsys, ["verify", "--cases", "0"])
        assert code == 64
        assert err.startswith("usage: fibanyon verify")

    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--copies", "30"],
            ["certify", "--copies", "30"],
            ["series", "--max-n", "30"],
        ],
    )
    def test_copy_count_above_limit_is_usage_error(self, capsys, tau_file, argv):
        code, _, err = run(capsys, [argv[0], "--state", tau_file, *argv[1:]])
        assert code == 64
        assert err.startswith(f"usage: fibanyon {argv[0]}")
        assert f"argument {argv[1]}: must be at most 24, got '30'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"sectors":{"tau":["abc"]}}', "is not a number"),
            ('{"sectors":{"tau":[NaN,1.0]}}', "non-finite Schmidt coefficient nan"),
            pytest.param(
                '{"sectors":{"tau":5}}', "sector 'tau' must be an array of numbers", id="int-sector"
            ),
            pytest.param(
                '{"sectors":{"tau":"1"}}',
                "sector 'tau' must be an array of numbers",
                id="string-sector",
            ),
            pytest.param(
                '{"sectors":{"tau":{"1":1}}}',
                "sector 'tau' must be an array of numbers",
                id="object-sector",
            ),
            pytest.param(
                '{"sectors":{"tau":[true]}}',
                "coefficient True at sector 'tau' index 0 is not a number",
                id="bool",
            ),
            pytest.param(
                '{"sectors":{"tau":[1e308,1e308]}}',
                "coefficient 1e+308 in sector 'tau' exceeds 1",
                id="overflow",
            ),
            pytest.param(
                '{"sectors":{"tau":[1' + "0" * 400 + "]}}", "is not a number", id="huge-int"
            ),
            pytest.param(
                '{"sectors":{"tau":' + "[" * 100_000 + "]" * 100_000 + "}}",
                "is nested too deeply to parse",
                id="deep-nesting",
            ),
        ],
    )
    def test_malformed_coefficient(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["measures", "--state", str(path)])
        assert code == 1
        assert out == ""
        assert message in err


#: Coefficients a valid state may hold, ordinary, sub-normal and zero, and
#: ones it may not: negative, huge, non-finite (``json`` writes and reads
#: NaN and Infinity), integers and other JSON values.
_VALID_COEFFICIENTS = st.floats(0.0, 1.0) | st.sampled_from(
    [5e-324, 1e-310, 2.2250738585072014e-308, 0.0, 0, 1]
)
_ANY_COEFFICIENTS = st.one_of(
    _VALID_COEFFICIENTS,
    st.floats(),
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@st.composite
def state_documents(draw):
    """``{"sectors": ...}`` with short, repeated and over-long coefficient lists.

    Half of the documents draw only from valid labels and coefficients, and
    half of all documents are rescaled so their finite positive entries sum
    to 1, so that valid states are common.
    """
    wild = draw(st.booleans())
    labels = ["1", "tau", "sigma"] if wild else ["1", "tau"]
    coefficients = _ANY_COEFFICIENTS if wild else _VALID_COEFFICIENTS
    sectors = {
        label: draw(st.lists(coefficients, max_size=6)) * draw(st.sampled_from([1, 2, 7, 1000]))
        for label in draw(st.lists(st.sampled_from(labels), unique=True, max_size=3))
    }
    total = sum(v for values in sectors.values() for v in values if _positive_finite(v))
    if draw(st.booleans()) and 0.0 < total < math.inf:
        sectors = {
            label: [v / total if _positive_finite(v) else v for v in values]
            for label, values in sectors.items()
        }
    return {"sectors": sectors}


def _positive_finite(value):
    return type(value) in (int, float) and 0 < value < math.inf


class TestMeasuresRobustness:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(document=state_documents(), fmt=st.sampled_from(["json", "csv"]))
    def test_finite_answer_or_one_error_line(self, document, fmt):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["measures", "--state", path, "--format", fmt])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            if fmt == "json":
                values = list(json.loads(out).values())
            else:
                header, row = out.splitlines()
                assert header == "aee,aree,ace,ce"
                values = [float(field) for field in row.split(",")]
            assert len(values) == 4 and all(math.isfinite(v) for v in values)
        else:
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
