"""The benchmark's own tests, on test-sized (``--tiny``) workloads.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import run_workload
from perfbench.run import check_sim
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace, section):
    proc = _run_cli(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny", "--spans-dir", str(tmp_path),
    )
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    if trace:
        # the traced run left its span table behind
        assert (tmp_path / f"{workload}.json").is_file()


def test_traced_layers_read_zero_where_the_workload_bypasses_them(tmp_path):
    metrics = {}
    for workload in ("fanout_hot", "rgame_ramp"):
        proc = _run_cli(
            ROOT, "--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", "1", "--tiny", "--spans-dir", str(tmp_path),
        )
        metrics[workload] = {k: v["value"] for k, v in _result(proc)["metrics"].items()}
    for values in metrics.values():
        assert all(v == 0 for k, v in values.items() if k.startswith("reliability."))
    fanout = metrics["fanout_hot"]
    assert all(
        v == 0 for k, v in fanout.items() if k.startswith(("balancer.", "policy."))
    )
    assert metrics["rgame_ramp"]["balancer.plan_pushes"] > 0
    assert metrics["rgame_ramp"]["policy.decide_calls"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_simulated_outputs_follow_the_seed(workload):
    first = run_workload(workload, 1, tiny=True)["sim"]
    again = run_workload(workload, 1, tiny=True)["sim"]
    other = run_workload(workload, 2, tiny=True)["sim"]
    assert again == first
    assert other["digest"] != first["digest"]
    assert other != first


def test_ledger_catches_an_injected_loss():
    dropped = []

    def drop_every_seventh(kind, deliver):
        if kind != "deliver":
            return deliver

        def callback(channel, body, envelope):
            dropped.append(None)
            if len(dropped) % 7:
                deliver(channel, body, envelope)

        return callback

    baseline = run_workload("fanout_hot", 4, tiny=True)
    lossy = run_workload("fanout_hot", 4, tiny=True, callback_hook=drop_every_seventh)
    assert baseline["sim"]["lost"] == 0
    # every tiny fan-out delivery is owed, so each swallowed one is a loss
    assert lossy["sim"]["lost"] == len(dropped) // 7 > 0
    assert any("lost" in problem for problem in check_sim([lossy]))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(
        tmp_path, "--workload", "fanout_hot", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
