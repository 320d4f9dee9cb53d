"""Command-line surface: formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibanyon as fa
from fibanyon import bell, cli, errors, multicopy, oracle, verify
from fibanyon.cli import main
from fibanyon.oracle import GradedDensityOperator

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
    "PASS  aee-dense: max |numeric - closed| = 2.220e-16 over 3 states\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 3.553e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 3.553e-15 for n <= 6\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "PASS  locality-certificate: closed-form terms iff dense gap < 1e-12 iff local verdict "
    "iff type A/B on 6 states; max local gap = 5.551e-17\n"
    "14/14 checks passed\n"
)

#: ``verify --seed 42`` stdout at the default 100 cases, the transcript the
#: ``verify-suite`` benchmark workload runs.
VERIFY_SEED42 = (
    "PASS  golden-identity: d_tau**2 == d_tau + 1 in Q[sqrt(5)]\n"
    "PASS  total-dimension: sum_c dim(n,c) d_c == d_tau**n for n <= 20\n"
    "PASS  fusion-paths: dim matches brute-force enumeration for n <= 12\n"
    "PASS  decomposition-closed-form: max |AREE - ACE - CE| = 6.661e-16 over 100 states\n"
    "PASS  decomposition-numeric: max numeric residual = 1.554e-15 over 100 states\n"
    "PASS  separable-oracle-value: max |numeric - closed| = 1.332e-15 over 100 states\n"
    "PASS  separable-oracle-gradient: min gradient = -6.407e-16 over 10 states x 40 directions\n"
    "PASS  aee-dense: max |numeric - closed| = 4.441e-16 over 100 states\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 3.553e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 5.329e-15 for n <= 6\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "PASS  locality-certificate: closed-form terms iff dense gap < 1e-12 iff local verdict "
    "iff type A/B on 13 states; max local gap = 5.551e-17\n"
    "14/14 checks passed\n"
)

#: ``verify --seed 7 --cases 150`` stdout: past 100 cases, the closed form
#: reads every state while the dense checks read the first 100.
VERIFY_SEED7_CASES150 = (
    "PASS  golden-identity: d_tau**2 == d_tau + 1 in Q[sqrt(5)]\n"
    "PASS  total-dimension: sum_c dim(n,c) d_c == d_tau**n for n <= 20\n"
    "PASS  fusion-paths: dim matches brute-force enumeration for n <= 12\n"
    "PASS  decomposition-closed-form: max |AREE - ACE - CE| = 5.551e-16 over 150 states\n"
    "PASS  decomposition-numeric: max numeric residual = 1.332e-15 over 100 states\n"
    "PASS  separable-oracle-value: max |numeric - closed| = 1.332e-15 over 100 states\n"
    "PASS  separable-oracle-gradient: min gradient = -3.203e-16 over 10 states x 40 directions\n"
    "PASS  aee-dense: max |numeric - closed| = 8.882e-16 over 100 states\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 2.665e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 7.105e-15 for n <= 6\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "PASS  locality-certificate: closed-form terms iff dense gap < 1e-12 iff local verdict "
    "iff type A/B on 13 states; max local gap = 5.551e-17\n"
    "14/14 checks passed\n"
)

#: ``verify --seed 101`` stdout at the default 100 cases.
VERIFY_SEED101 = (
    "PASS  golden-identity: d_tau**2 == d_tau + 1 in Q[sqrt(5)]\n"
    "PASS  total-dimension: sum_c dim(n,c) d_c == d_tau**n for n <= 20\n"
    "PASS  fusion-paths: dim matches brute-force enumeration for n <= 12\n"
    "PASS  decomposition-closed-form: max |AREE - ACE - CE| = 6.661e-16 over 100 states\n"
    "PASS  decomposition-numeric: max numeric residual = 1.332e-15 over 100 states\n"
    "PASS  separable-oracle-value: max |numeric - closed| = 8.882e-16 over 100 states\n"
    "PASS  separable-oracle-gradient: min gradient = -3.203e-16 over 10 states x 40 directions\n"
    "PASS  aee-dense: max |numeric - closed| = 4.441e-16 over 100 states\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 3.553e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 1.776e-14 for n <= 6\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "PASS  locality-certificate: closed-form terms iff dense gap < 1e-12 iff local verdict "
    "iff type A/B on 13 states; max local gap = 1.110e-16\n"
    "14/14 checks passed\n"
)

#: ``verify --seed 1234567`` stdout at the default 100 cases.
VERIFY_SEED1234567 = (
    "PASS  golden-identity: d_tau**2 == d_tau + 1 in Q[sqrt(5)]\n"
    "PASS  total-dimension: sum_c dim(n,c) d_c == d_tau**n for n <= 20\n"
    "PASS  fusion-paths: dim matches brute-force enumeration for n <= 12\n"
    "PASS  decomposition-closed-form: max |AREE - ACE - CE| = 6.661e-16 over 100 states\n"
    "PASS  decomposition-numeric: max numeric residual = 1.055e-15 over 100 states\n"
    "PASS  separable-oracle-value: max |numeric - closed| = 8.882e-16 over 100 states\n"
    "PASS  separable-oracle-gradient: min gradient = 0.000e+00 over 10 states x 40 directions\n"
    "PASS  aee-dense: max |numeric - closed| = 4.441e-16 over 100 states\n"
    "PASS  aee-additivity: max |aee(n-copy) - n aee| = 1.776e-15\n"
    "PASS  multicopy-closed-form: max |closed - constructed| = 1.954e-14 for n <= 6\n"
    "PASS  omega-from-joint: max |Omega(embed) - Omega| = 0.000e+00\n"
    "PASS  copy-series-trends: aee drift 2.220e-16; CE zeros at n=1,2; ACE strictly decreasing\n"
    "PASS  chsh-three-copies: n=3 optimum 2.632862 (target 2.632862); n<=2 stays local\n"
    "PASS  locality-certificate: closed-form terms iff dense gap < 1e-12 iff local verdict "
    "iff type A/B on 13 states; max local gap = 1.110e-16\n"
    "14/14 checks passed\n"
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

#: ``certify --copies n`` stdout for n = 1, 2, 3 on the tau-pair, ``MIXED_STATE``,
#: a vacuum-and-tau state of rank 1 per sector, and the vacuum product state.
CERTIFY_GOLDEN = {
    ("tau", 1): (
        '{"local":true,"copies":1,"terms":[{"p":1.0,"charge":"tau","index":0}],'
        '"reconstruction_residual":0.0}\n'
    ),
    ("tau", 2): (
        '{"local":true,"copies":2,"terms":[{"p":0.38196601125,"charge":"1","index":0},'
        '{"p":0.61803398875,"charge":"tau","index":0}],"reconstruction_residual":0.0}\n'
    ),
    ("tau", 3): '{"local":false,"reason":"CE_POSITIVE","copies":3}\n',
    ("mixed", 1): '{"local":false,"reason":"CE_POSITIVE","copies":1}\n',
    ("mixed", 2): '{"local":false,"reason":"CE_POSITIVE","copies":2}\n',
    ("mixed", 3): '{"local":false,"reason":"CE_POSITIVE","copies":3}\n',
    ("rank-one", 1): (
        '{"local":true,"copies":1,"terms":[{"p":0.4,"charge":"1","index":0},'
        '{"p":0.6,"charge":"tau","index":0}],"reconstruction_residual":0.0}\n'
    ),
    ("rank-one", 2): '{"local":false,"reason":"CE_POSITIVE","copies":2}\n',
    ("rank-one", 3): '{"local":false,"reason":"CE_POSITIVE","copies":3}\n',
    **{
        ("vacuum", n): (
            f'{{"local":true,"copies":{n},"terms":[{{"p":1.0,"charge":"1","index":0}}],'
            '"reconstruction_residual":0.0}\n'
        )
        for n in (1, 2, 3)
    },
}

#: The states of ``CERTIFY_GOLDEN``.
CERTIFY_STATES = {
    "tau": TAU_STATE,
    "mixed": MIXED_STATE,
    "rank-one": {"sectors": {"1": [0.4], "tau": [0.6]}},
    "vacuum": {"sectors": {"1": [1.0]}},
}

#: States with a rank->=2 joint sector whose top-pair CHSH value lies within
#: 1e-9 of 2: ``MIXED_STATE`` at many copies, a tau pair with one tiny
#: coefficient, and a faint tau sector: rank 1 at one copy, rank 2 at two.
NEAR_LOCAL_STATES = {
    "mixed": MIXED_STATE,
    "tiny-pair": {"sectors": {"tau": [0.9999999999999, 1e-13]}},
    "faint-tau": {"sectors": {"1": [1.0], "tau": [1e-12]}},
}

_ANGLES_TOP_PAIR = '"angles":[0.0,1.570796326795,0.785398163397,5.497787143782]'

#: ``(command, copies): stdout`` on each of ``NEAR_LOCAL_STATES``: the chsh
#: verdict is a violation exactly when ``certify`` refuses.
NEAR_LOCAL_GOLDEN = {
    "mixed": {
        **{
            ("chsh", n): (
                f'{{"value":{value},{_ANGLES_TOP_PAIR},"copies":{n},"verdict":"violation"}}\n'
            )
            for n, value in (
                (18, "2.00000000177"),
                (19, "2.000000000547"),
                (24, "2.000000000002"),
                # The top-pair bound is below 2 + 5e-13 and prints as 2.0.
                (25, "2.0"),
            )
        },
        **{
            ("certify", n): f'{{"local":false,"reason":"CE_POSITIVE","copies":{n}}}\n'
            for n in (18, 19, 24, 25)
        },
    },
    "tiny-pair": {
        ("chsh", 1): (
            '{"value":2.0,"angles":[0.0,1.570796326795,6.32456e-07,6.283184674724],'
            '"copies":1,"verdict":"violation"}\n'
        ),
        ("certify", 1): '{"local":false,"reason":"CE_POSITIVE","copies":1}\n',
        ("measures", 1): (
            '{"aee":0.694241913635,"aree":1.388483827266,"ace":1.388483827261,"ce":4e-12}\n'
        ),
    },
    "faint-tau": {
        ("certify", 1): (
            '{"local":true,"copies":1,"terms":[{"p":0.999999999999,"charge":"1","index":0},'
            '{"p":1e-12,"charge":"tau","index":0}],"reconstruction_residual":0.0}\n'
        ),
        ("chsh", 2): (
            f'{{"value":2.000000000002,{_ANGLES_TOP_PAIR},"copies":2,"verdict":"violation"}}\n'
        ),
        ("certify", 2): '{"local":false,"reason":"CE_POSITIVE","copies":2}\n',
    },
}

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


#: Every error class the package defines.
_PACKAGE_ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, Exception) and value is not errors.FibanyonError
]


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

    def test_rows_to_the_copy_limit(self, capsys, tau_file):
        """Row 66 is a 50-digit reference printed with 12 significant digits."""
        code, out, err = run(capsys, ["series", "--state", tau_file, "--max-n", "66"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 1 + 66
        assert lines[-1] == "66,0.694241913631,0.701853401024,0.0281091812284,0.673744219796"

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


class TestExactVerdict:
    """``chsh``, ``certify``, ``measures`` and ``classify`` agree on near-local states."""

    @pytest.mark.parametrize("name", sorted(NEAR_LOCAL_GOLDEN))
    def test_golden(self, capsys, tmp_path, name):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(NEAR_LOCAL_STATES[name]), encoding="utf-8")
        for (command, copies), expected in NEAR_LOCAL_GOLDEN[name].items():
            extra = [] if command == "measures" else ["--copies", str(copies)]
            code, out, err = run(capsys, [command, "--state", str(path), *extra])
            assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize(
        "name, single, double",
        [("tiny-pair", "TYPE_C", "TYPE_C"), ("faint-tau", "TYPE_B", "TYPE_C")],
    )
    def test_classify(self, name, single, double):
        state = fa.state_from_dict(NEAR_LOCAL_STATES[name])
        assert fa.classify(state).name == single
        assert fa.classify(fa.n_copy(state, 2)).name == double


class TestCertify:
    def test_two_copies_certificate(self, capsys, tau_file):
        code, out, _ = run(capsys, ["certify", "--state", tau_file, "--copies", "2"])
        payload = json.loads(out)
        assert payload["local"] is True
        assert len(payload["terms"]) == 2
        assert payload["reconstruction_residual"] < 1e-12
        total = sum(term["p"] for term in payload["terms"])
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name, copies", sorted(CERTIFY_GOLDEN))
    def test_golden(self, capsys, tmp_path, name, copies):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(CERTIFY_STATES[name]), encoding="utf-8")
        code, out, _ = run(capsys, ["certify", "--state", str(path), "--copies", str(copies)])
        assert code == 0
        assert out == CERTIFY_GOLDEN[(name, copies)]

    def test_three_copies_refusal(self, capsys, tau_file):
        code, out, _ = run(capsys, ["certify", "--state", tau_file, "--copies", "3"])
        payload = json.loads(out)
        assert payload["local"] is False
        assert payload["reason"] == "CE_POSITIVE"

    def test_reconstruction_residual_is_exit_2(self, capsys, tau_file, monkeypatch):
        """A mixture off its dense Omega image fails ``verify``; ``certify`` never builds one."""
        real = oracle.omega_project

        def perturbed(state):
            omega = real(state)
            blocks = {key: omega.block(key) for key in omega.keys()}
            first = omega.keys()[0]
            # Scaled, not shifted: a shift puts weight outside the support of
            # the separable candidate, and the numeric decomposition raises.
            blocks[first] = blocks[first] * (1.0 + 1e-6)
            return GradedDensityOperator(blocks, ranks=omega.ranks)

        monkeypatch.setattr(oracle, "omega_project", perturbed)
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert code == 2
        assert "FAIL  locality-certificate: " in out
        code, out, err = run(capsys, ["certify", "--state", tau_file, "--copies", "2"])
        assert (code, out, err) == (0, CERTIFY_GOLDEN[("tau", 2)], "")


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

    def test_golden_transcript_default_cases(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "42"])
        assert code == 0
        assert out == VERIFY_SEED42

    def test_golden_transcript_past_100_cases(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "7", "--cases", "150"])
        assert code == 0
        assert out == VERIFY_SEED7_CASES150

    @pytest.mark.parametrize(
        "seed, golden", [("101", VERIFY_SEED101), ("1234567", VERIFY_SEED1234567)]
    )
    def test_golden_transcript_other_seeds(self, capsys, seed, golden):
        code, out, _ = run(capsys, ["verify", "--seed", seed])
        assert code == 0
        assert out == golden

    def test_each_report_and_joint_is_derived_once(self, monkeypatch):
        """Every drawn state reaches ``measure_report`` once, and each joint of
        n >= 2 copies that the multi-copy and locality checks read is built once."""
        made, reports, joints = [], Counter(), Counter()
        real_draw, real_new = verify.random_schmidt_state, verify.new_schmidt_state
        real_report, real_n_copy = verify.measure_report, verify.n_copy

        def draw(rng):
            made.append(real_draw(rng))
            return made[-1]

        def new(sectors):
            made.append(real_new(sectors))
            return made[-1]

        def report(state):
            reports[id(state)] += 1
            return real_report(state)

        def build(state, n):
            joints[id(state), n] += n >= 2
            return real_n_copy(state, n)

        monkeypatch.setattr(verify, "random_schmidt_state", draw)
        monkeypatch.setattr(verify, "new_schmidt_state", new)
        for module in (verify, bell, multicopy):
            monkeypatch.setattr(module, "n_copy", build)
        for module in (verify, multicopy):
            monkeypatch.setattr(module, "measure_report", report)
        assert all(r.passed for r in verify.run_suite(seed=42, cases=3))
        *drawn, tau = made
        assert [reports[id(s)] for s in drawn] == [1, 1, 1]
        assert [joints[id(s), n] for s in drawn for n in range(2, 7)] == [1] * 15
        # The tau-pair at n = 2, 3: once each in the copy series, and once
        # for both the three-copy CHSH check and the locality rows.
        assert [joints[id(tau), n] for n in (2, 3)] == [2, 2]

    def test_each_dense_operator_is_built_once_per_signature(self, monkeypatch):
        """The dense pass embeds, Omega-projects and builds the separable candidate
        of each rank signature's stack once, for every dense check; only the three
        tau-pair locality joints build their own image and candidate."""
        drawn, calls = [], {"embed": [], "omega_project": [], "closest_separable_candidate": []}
        real_draw = verify.random_schmidt_state

        def draw(rng):
            drawn.append(real_draw(rng))
            return drawn[-1]

        monkeypatch.setattr(verify, "random_schmidt_state", draw)
        for name, seen in calls.items():
            real = getattr(oracle, name)

            def counted(states, real=real, seen=seen):
                seen.append(states)
                return real(states)

            for module in (verify, oracle):
                monkeypatch.setattr(module, name, counted)
        assert all(r.passed for r in verify.run_suite(seed=42))
        signatures = {}
        for s in drawn:
            signatures.setdefault(tuple(s.ranks.items()), []).append(id(s))
        stacks = list(signatures.values())
        assert len(stacks) == 15
        tau = fa.new_schmidt_state({"tau": [1.0]})
        tau_ranks = [multicopy.n_copy(tau, n).ranks for n in (1, 2, 3)]
        for name, seen in calls.items():
            built = [[id(s) for s in stack] for stack in seen[: len(stacks)]]
            assert built == stacks, name
            assert [s.ranks for s in seen[len(stacks) :]] == ([] if name == "embed" else tau_ranks)

    def test_raising_closed_form_fails_the_groups_that_read_it(self, capsys, monkeypatch):
        def raising(state):
            raise errors.DecompositionViolation("reached")

        monkeypatch.setattr(verify, "measure_report", raising)
        code, out, err = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert (code, err) == (2, "")
        expected = VERIFY_SEED42_CASES3.splitlines()
        for i in (3, 4, 5, 7, 8, 9):
            expected[i] = f"FAIL  {expected[i].split()[1]} DecompositionViolation: reached"
        expected[-1] = "8/14 checks passed"
        assert out.splitlines() == expected

    def test_decomposition_violation_is_a_failed_check(self, capsys, monkeypatch):
        real = verify.measure_report

        def shifted(state):
            # A plain namespace: MeasureReport itself would raise on the shifted CE.
            fields = real(state).as_dict()
            return SimpleNamespace(**{**fields, "ce": fields["ce"] + 1e-6})

        monkeypatch.setattr(verify, "measure_report", shifted)
        code, out, _ = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert code == 2
        assert "FAIL  decomposition-closed-form: max |AREE - ACE - CE| = 1.000e-06" in out
        assert out.endswith("13/14 checks passed\n")


    def test_raising_oracle_is_a_failed_check(self, capsys, monkeypatch):
        """An oracle that raises fails each check of its group; the suite goes on."""
        real = oracle.omega_project

        def shifted(state):
            omega = real(state)
            blocks = {key: omega.block(key) for key in omega.keys()}
            first = omega.keys()[0]
            blocks[first] = blocks[first] + 1e-6
            return GradedDensityOperator(blocks, ranks=omega.ranks)

        for module in (verify, oracle):
            monkeypatch.setattr(module, "omega_project", shifted)
        code, out, err = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert (code, err) == (2, "")
        lines = out.splitlines()
        raised = "ValidationError: rho has weight outside sigma's support in a matched block"
        golden = VERIFY_SEED42_CASES3.splitlines()
        # The closed form is its own group, so the numeric oracle's error
        # leaves it passing.
        assert lines[3:5] == [golden[3], f"FAIL  decomposition-numeric: {raised}"]
        # The Omega check and the certificates read the same shifted image.
        assert lines[10] == "FAIL  omega-from-joint: max |Omega(embed) - Omega| = 1.000e-06"
        assert lines[13].startswith("FAIL  locality-certificate: ")
        assert [line.split()[1] for line in lines[:-1]] == [line.split()[1] for line in golden[:-1]]
        assert lines[-1] == "11/14 checks passed"

    def test_raising_value_oracle_keeps_later_draws(self, capsys, monkeypatch):
        """Only the checks that read the raising oracle fail (the numeric
        decomposition and the separable value); the gradient draws and every
        later group read the generator as in a healthy run."""

        def raising(rho, sigma):
            raise errors.ValidationError("reached")

        monkeypatch.setattr(verify, "relative_entropy", raising)
        code, out, err = run(capsys, ["verify", "--seed", "42", "--cases", "3"])
        assert (code, err) == (2, "")
        expected = VERIFY_SEED42_CASES3.splitlines()
        expected[4] = "FAIL  decomposition-numeric: ValidationError: reached"
        expected[5] = "FAIL  separable-oracle-value: ValidationError: reached"
        expected[-1] = "12/14 checks passed"
        assert out.splitlines() == expected

    def test_nan_dense_value_fails(self, monkeypatch):
        """A NaN for the second state of each stack fails both checks that read
        the relative entropy, though it is neither the first value nor the last."""
        real = verify.relative_entropy

        def second_nan(rho, sigma):
            value = real(rho, sigma)
            if np.ndim(value) and len(value) > 1:
                value = value.copy()
                value[1] = np.nan
            return value

        monkeypatch.setattr(verify, "relative_entropy", second_nan)
        failed = {r.name: r.detail for r in verify.run_suite(seed=42) if not r.passed}
        assert failed == {
            "decomposition-numeric": "max numeric residual = nan over 100 states",
            "separable-oracle-value": "max |numeric - closed| = nan over 100 states",
        }

    def test_nan_gradient_fails(self, monkeypatch):
        real = verify.minimality_gradient

        def one_nan(state, directions):
            gradients = real(state, directions).copy()
            gradients[1] = np.nan
            return gradients

        monkeypatch.setattr(verify, "minimality_gradient", one_nan)
        failed = {r.name: r.detail for r in verify.run_suite(seed=42) if not r.passed}
        assert failed == {
            "separable-oracle-gradient": "min gradient = nan over 10 states x 40 directions"
        }

    def test_nan_aee_drift_fails(self):
        rows = multicopy.copy_series(fa.new_schmidt_state({"tau": [1.0]}), 12).rows
        rows = rows[:5] + ((6, math.nan, *rows[5][2:]),) + rows[6:]
        (result,) = verify.check_copy_series_trends(multicopy.CopySeries(rows))
        assert not result.passed
        assert result.detail.startswith("aee drift nan;")


class TestSharedParser:
    """``main`` builds its parser once per process and reuses it."""

    def test_reused_parser_matches_a_fresh_one(self, capsys, tau_file):
        argvs = [
            ["measures", "--state", tau_file, "--format", "csv"],
            ["measures", "--state", tau_file],
            ["chsh", "--state", tau_file, "--copies", "0"],
            ["chsh", "--state", tau_file, "--copies", "3"],
            ["measures", "--state", "/nonexistent.json"],
            ["verify", "--cases", "1"],
        ]
        cli.build_parser.cache_clear()
        reused = [run(capsys, argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [0, 0, 64, 0, 1, 0]
        assert reused[1][1].startswith('{"aee":')
        assert reused[2][2] == (
            "usage: fibanyon chsh [-h] --state F [--copies COPIES] [--out F2]\n"
            "error: argument --copies: must be a positive integer, got '0'\n"
        )

    def test_parser_is_built_once(self):
        """Importing builds no parser; the first ``main`` builds the root
        parser and one per command; later calls build none."""
        script = (
            "import argparse, contextlib, io, json\n"
            "built = []\n"
            "real = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(type(self).__name__)\n"
            "    real(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from fibanyon import cli\n"
            "counts = [len(built)]\n"
            "for argv in (['verify', '--cases', '0'], ['chsh'], "
            "['measures', '--state', '/nonexistent.json']):\n"
            "    before = len(built)\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        cli.main(argv)\n"
            "    counts.append(len(built) - before)\n"
            "print(json.dumps({'counts': counts, 'types': sorted(set(built))}))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {
            "counts": [0, 1 + len(cli._DISPATCH), 0, 0],
            "types": ["_Parser"],
        }


def test_import_set():
    """``import fibanyon.cli`` in a fresh interpreter loads these package modules
    and none of the test-only libraries: start-up time moves with the import path."""
    script = (
        "import json, sys\n"
        "import fibanyon.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('fibanyon', 'scipy', 'sympy', 'mpmath', 'hypothesis'))))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    modules = ["bell", "cli", "errors", "measures", "model", "multicopy", "oracle", "states",
               "verify"]
    assert json.loads(done.stdout) == ["fibanyon", *(f"fibanyon.{m}" for m in modules)]


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "fibanyon", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_python_dash_m_runs_verify(self):
        done = self.run_module("verify", "--seed", "42", "--cases", "3")
        assert done.returncode == 0, done.stderr
        assert done.stdout == VERIFY_SEED42_CASES3

    def test_python_dash_m_help_exits_zero(self):
        done = self.run_module("-h")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: fibanyon [-h]")


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

    @pytest.mark.parametrize("error", _PACKAGE_ERRORS, ids=lambda e: e.__name__)
    def test_every_package_error_has_one_exit_code(self, capsys, tau_file, monkeypatch, error):
        def failing(state):
            raise error("reached")

        monkeypatch.setattr(cli, "measure_report", failing)
        code, out, err = run(capsys, ["measures", "--state", tau_file])
        assert code == (2 if error is errors.DecompositionViolation else 1)
        assert out == ""
        assert err == "error: reached\n"

    def test_error_root_keeps_builtin_bases(self):
        for error in _PACKAGE_ERRORS:
            assert issubclass(error, errors.FibanyonError)
            assert issubclass(error, AssertionError if error is errors.DecompositionViolation
                              else ValueError)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda s: fa.n_copy(s, 0), "copy count must be positive, got 0"),
            (lambda s: fa.optimize_chsh(s, copies=0), "copy count must be positive, got 0"),
            (lambda s: fa.copy_series(s, 0), "copy count must be positive, got 0"),
            (lambda s: fa.e_aree_ncopy(s, 0), "copy count must be positive, got 0"),
            (lambda s: fa.fusion_space_dim(0, fa.Charge.TAU), "need at least one anyon, got n=0"),
            (lambda s: fa.PHI_EXACT**-1, "negative powers not supported"),
        ],
        ids=["n_copy", "optimize_chsh", "copy_series", "e_aree_ncopy", "fusion_space_dim", "pow"],
    )
    def test_out_of_domain_argument_is_a_package_error(self, call, message):
        with pytest.raises(errors.FibanyonError, match=message):
            call(fa.new_schmidt_state({"tau": [1.0]}))

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_negative_seed_is_usage_error(self, capsys, seed):
        code, out, err = run(capsys, ["verify", "--seed", seed])
        assert code == 64
        assert out == ""
        assert err.startswith("usage: fibanyon verify")
        assert f"argument --seed: must be a non-negative integer, got '{seed}'" in err

    @pytest.mark.parametrize("cases", ["10001", "99999999999999999999"])
    def test_case_count_above_limit_is_usage_error(self, capsys, cases):
        code, out, err = run(capsys, ["verify", "--cases", cases])
        assert code == 64
        assert out == ""
        assert f"argument --cases: must be at most 10000, got '{cases}'" in err

    def test_case_limit_is_in_the_help(self, capsys):
        assert main(["verify", "--help"]) == 0
        assert "at most 10000" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, usage",
        [(["-h"], "usage: fibanyon [-h]"), (["measures", "-h"], "usage: fibanyon measures")],
    )
    def test_help_returns_zero_in_process(self, capsys, argv, usage):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                '{"sectors":{"1":[NaN],"tau":[-0.5]}}',
                "error: non-finite Schmidt coefficient nan in sector '1'\n",
            ),
            (
                '{"sectors":{"tau":[2.0,-0.5]}}',
                "error: Schmidt coefficient 2.0 in sector 'tau' exceeds 1\n",
            ),
        ],
    )
    def test_first_faulty_coefficient_names_the_error(self, tmp_path, capsys, text, message):
        """Coefficients are checked in one pass, so the first fault in file
        order is the one reported, whatever its kind."""
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert run(capsys, ["measures", "--state", str(path)]) == (1, "", message)

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
            ["chsh", "--copies", "67"],
            ["certify", "--copies", "67"],
            ["series", "--max-n", "67"],
        ],
    )
    def test_copy_count_above_limit_is_usage_error(self, capsys, tau_file, argv):
        """Not a usage error: the count parses, and the library's copy limit refuses it."""
        code, out, err = run(capsys, [argv[0], "--state", tau_file, *argv[1:]])
        assert (code, out) == (1, "")
        assert err == (
            "error: n=67 exceeds the copy limit 66, past which C(n, k) overflows int64\n"
        )

    def test_rank_guard_after_the_last_admitted_count(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"sectors": {"1": [0.7], "tau": [0.3]}}), encoding="utf-8")
        code, out, _ = run(capsys, ["chsh", "--state", str(path), "--copies", "45"])
        assert (code, json.loads(out)["copies"]) == (0, 45)
        code, out, err = run(capsys, ["chsh", "--state", str(path), "--copies", "46"])
        assert (code, out) == (1, "")
        assert err == (
            "error: n=46 copies have joint rank 12200160415121876738, more than 2**63 - 1\n"
        )

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
            # Two faults each: the first in input order, a sector's label
            # before its coefficients, names the error.
            pytest.param(
                '{"sectors":{"bogus":["x"]}}',
                "error: unknown charge label 'bogus'; expected '1' or 'tau'\n",
                id="label-then-coefficient",
            ),
            pytest.param(
                '{"sectors":{"tau":[-1],"1":["x"]}}',
                "error: negative Schmidt coefficient -1 at sector 'tau' index 0\n",
                id="first-sector-first",
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

    Half of the documents are valid states: one to four positive
    coefficients in each of one or two sectors, rescaled to sum to 1, so
    that every command often succeeds.  Of the other documents, half draw
    only from valid labels and coefficients, and half are rescaled so
    their finite positive entries sum to 1.
    """
    if draw(st.booleans()):
        sectors = {
            label: draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
            for label in draw(st.lists(st.sampled_from(["1", "tau"]), unique=True, min_size=1))
        }
        total = sum(v for values in sectors.values() for v in values)
        return {"sectors": {label: [v / total for v in vs] for label, vs in sectors.items()}}
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


#: ``measures`` in both formats, and ``series``, ``chsh`` and ``certify`` at 1 to 4 copies.
_COMMANDS = st.sampled_from([["measures", "--format", "json"], ["measures", "--format", "csv"]]) | (
    st.builds(
        lambda flag, n: [*flag, str(n)],
        st.sampled_from([["series", "--max-n"], ["chsh", "--copies"], ["certify", "--copies"]]),
        st.integers(1, 4),
    )
)


def _printed_numbers(command, out):
    """Every number that a successful ``command`` printed, checking the layout."""
    name = command[0]
    if name == "series" or command[-1] == "csv":
        header, *rows = out.splitlines()
        assert header == ("n,aee,aree,ace,ce" if name == "series" else "aee,aree,ace,ce")
        assert len(rows) == (int(command[-1]) if name == "series" else 1)
        return [float(field) for row in rows for field in row.split(",")]
    payload = json.loads(out)
    if name == "measures":
        assert len(payload) == 4
        return list(payload.values())
    if name == "chsh":
        return [payload["value"], *(payload["angles"] or [])]
    if payload["local"]:
        return [payload["reconstruction_residual"], *(term["p"] for term in payload["terms"])]
    return []


class TestMeasuresRobustness:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(document=state_documents(), command=_COMMANDS)
    def test_finite_answer_or_one_error_line(self, document, command):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(document))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], "--state", path, *command[1:]])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == ""
            assert all(math.isfinite(v) for v in _printed_numbers(command, out))
        else:
            assert code in (1, 2)
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _more_than_three_cases(text):
    """True when ``text`` is a valid ``--cases`` above 3, which the property must not run."""
    try:
        return 3 < int(text) <= 10_000
    except ValueError:
        return False


#: Digit strings of 19 to 6000 digits: past int64, and past the 4300 digits
#: that ``int`` converts.
_HUGE = st.builds(lambda digit, k: digit * k, st.sampled_from("123456789"), st.integers(19, 6000))
_SEEDS = st.one_of(
    st.integers(0, 2**64).map(str),
    st.integers(max_value=-1).map(str),
    _HUGE,
    st.text(max_size=8),
)
#: Half valid, 1 to 3; half out of range, huge or free text.
_CASES = st.integers(1, 3).map(str) | st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(10_001).map(str),
    _HUGE,
    st.text(max_size=8).filter(lambda text: not _more_than_three_cases(text)),
)


@st.composite
def verify_argv(draw):
    """``verify`` with an optional ``--seed`` and a ``--cases`` that runs at most 3 cases."""
    argv = ["verify"]
    for flag, values in (("--seed", _SEEDS), ("--cases", _CASES)):
        if flag == "--cases" or draw(st.booleans()):
            value = draw(values)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestVerifyRobustness:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(argv=verify_argv())
    @example(argv=["verify", "--seed", "9" * 4300, "--cases", "1"])
    @example(argv=["verify", "--seed", "9" * 4301, "--cases", "1"])
    @example(argv=["verify", "--seed= 7_0 ", "--cases=\u0663"])
    def test_exit_code_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10.0
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if code == 64:
            assert out == ""
            assert err.startswith("usage: fibanyon verify") and err.count("error: ") == 1
        else:
            assert code in (0, 2)
            assert err == ""
            assert out.endswith("/14 checks passed\n")
