"""Command-line surface: formats, determinism, exit codes."""

import json

import pytest

from fibanyon import verify
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


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(TAU_STATE), encoding="utf-8")
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
        ],
    )
    def test_malformed_coefficient(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["measures", "--state", str(path)])
        assert code == 1
        assert out == ""
        assert message in err
