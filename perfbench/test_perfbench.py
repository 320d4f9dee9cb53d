"""Tests of the benchmark itself: tiny smoke runs, the checks, and failure counting."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads


def _result(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


#: A per-layer count that each workload's traced pass must make nonzero.
LOADED_LAYER = {
    "flagship-chsh": "bell.optimize_chsh.calls",
    "series-wide": "multicopy.compositions",
    "verify-suite": "verify.run_suite.calls",
}


# Every workload BENCHMARK.json names runs traced; the untraced path, which
# only differs in how passes are timed, runs on the cheapest workload.
@pytest.mark.parametrize(
    "workload, trace",
    [(w["name"], 1) for w in run.SPEC["workloads"]] + [("series-wide", 0)],
)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    result, out = _result(capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER if trace else run.END_TO_END)
    if not trace:
        assert all(metric["value"] > 0 for metric in metrics.values())
    else:
        # One warm-up op, then one untraced and one traced pass.
        assert metrics["cli.main.calls"]["value"] == (result["attempted"] - 1) // 2
        assert metrics[LOADED_LAYER[workload]]["value"] > 0
        assert (tmp_path / f"spans-{workload}-s3.jsonl").is_file()
    assert re.search(r"fail_frac\s+0 ", out)
    report = json.loads((tmp_path / f"report-{workload}-s3-trace{trace}.json").read_text())
    assert report["environment"]["src_lines"] > 0
    assert all(len(op["digests"]) == 1 for op in report["ops"])


class _CorruptingCli:
    """Runs the real CLI, then rewrites the stdout of one command."""

    def __init__(self, real, command, corrupt):
        self.real, self.command, self.corrupt = real, command, corrupt

    def main(self, argv):
        if argv[0] != self.command:
            return self.real.main(argv)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.real.main(argv)
        sys.stdout.write(self.corrupt(buffer.getvalue()))
        return code


def _lower_chsh_value(text: str) -> str:
    payload = json.loads(text)
    payload["value"] -= 0.01
    return json.dumps(payload)


def _bump_last_series_row(text: str) -> str:
    lines = text.strip().splitlines()
    n, aee, aree, ace, ce = lines[-1].split(",")
    lines[-1] = ",".join([n, aee, repr(float(aree) + 1e-6), ace, ce])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "workload, command, corrupt",
    [
        ("flagship-chsh", "chsh", _lower_chsh_value),
        ("series-wide", "series", _bump_last_series_row),
    ],
)
def test_corrupted_output_counts_as_failure(workload, command, corrupt, tmp_path, capsys, monkeypatch):
    real = run.import_program()
    monkeypatch.setattr(run, "import_program", lambda: _CorruptingCli(real, command, corrupt))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1",
            "--size", "tiny", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    result, out = _result(capsys)
    report = json.loads((tmp_path / f"report-{workload}-s3-trace0.json").read_text())
    corrupted = {op["name"] for op in report["ops"] if op["argv"][0] == command}
    assert corrupted and set(report["errors"]) == corrupted | {report["warmup"]}
    assert result["correct"] is False
    assert result["failed"] == len(corrupted) * report["passes"] + 1
    fail_frac = float(re.search(r"fail_frac\s+(\S+)", out).group(1))
    assert fail_frac == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_oracles_match_the_paper():
    tau = {"tau": [1.0]}
    assert workloads.joint_rank(tau, 12) == 233
    assert workloads.joint_rank({"1": [0.3], "tau": [0.7]}, 8) == 1597
    assert workloads.largest_copies(tau) == 16
    assert workloads.chsh_floor(workloads.joint_groups(tau, 3)) == pytest.approx(
        workloads.TAU_PAIR_N3, abs=1e-12
    )
    assert workloads.chsh_floor(workloads.joint_groups(tau, 2)) == 2.0
    measures = workloads.closed_measures(tau)
    assert measures["aee"] == pytest.approx(workloads.LOG2_PHI)
    assert workloads.aree_ncopy(tau, 1) == pytest.approx(measures["aree"])
    assert workloads.series_length(10, 100_000) == 9


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(1, 31)]
    assert run.tail(values) == 20.0
    assert run.tail(values[:5]) == 5.0


def test_refuses_a_checkout_without_sources(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "series-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

