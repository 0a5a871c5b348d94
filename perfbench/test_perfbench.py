"""Tests of the repository benchmark itself.

The contract checks take a second.  The sensitivity test runs the
benchmark ten times (about seven minutes on a 2-core host): a fixed delay
added from outside to one public function must move the end-to-end metric
``design.json`` predicts past its bound on the workload that calls the
function, and must leave every workload that never calls it inside all of
its bounds.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())
END_TO_END = {metric["name"]: metric for metric in BENCH["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


# --------------------------------------------------------------- contract


def test_benchmark_json_keeps_to_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in BENCH["end_to_end"]] + [
        m["name"] for m in BENCH["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_design_record_matches_benchmark_json():
    assert sorted(DESIGN["workloads"]) == sorted(WORKLOADS)
    assert sorted(DESIGN["end_to_end"]) == sorted(END_TO_END)
    recorded = {
        name: {"name": name, "unit": unit, "better": better}
        for group in DESIGN["per_layer"]
        for name, (unit, better) in group["metrics"].items()
    }
    assert [recorded[m["name"]] for m in BENCH["per_layer"]] == BENCH["per_layer"]
    assert len(recorded) == len(BENCH["per_layer"])


def test_run_fails_without_the_program():
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
        try:
            scratch.rmdir()  # unless a benchmark run is using it
        except OSError:
            pass
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------ sensitivity


def bench(workload: str, delay: str = "") -> tuple[dict, int]:
    """One benchmark run; returns its metric values and the delay's calls."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(BENCH["run_seconds"]),
               "--trace", "0"]
    if delay:
        command += ["--delay", delay]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    calls = 0
    for line in lines:
        found = re.match(r"delay\s*: \S+ called (\d+) times", line)
        if found:
            calls = int(found.group(1))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}, calls


def worsening(name: str, base: float, value: float) -> float:
    """Share by which ``value`` is worse than ``base`` (negative: better)."""
    change = (value - base) / base
    return change if END_TO_END[name]["better"] == "lower" else -change


DELAYS = DESIGN["sensitivity"]["delays"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_delays_move_only_the_workloads_that_call_them(workload):
    # Each delayed run follows its baseline directly, so the host's drift
    # between the two stays small.
    baseline, _ = bench(workload)
    for function, spec in sorted(DELAYS.items()):
        if workload != spec["workload"] and workload not in spec["never_called_on"]:
            continue
        metrics, calls = bench(workload, f"{function}={spec['ms']}")
        if workload == spec["workload"]:
            assert calls > 0, function
            for name in spec["moves"]:
                moved = worsening(name, baseline[name], metrics[name])
                assert moved > END_TO_END[name]["bound"], (function, name, moved)
        else:
            # calls == 0 covers set-up too, so setup_s cannot move; like the
            # benchmark's own spread rule, it is not held to its bound on a
            # single pair of runs (three fresh set-ups range over +-25%).
            assert calls == 0, function
            for name, metric in END_TO_END.items():
                if name == "setup_s":
                    continue
                moved = worsening(name, baseline[name], metrics[name])
                assert moved <= metric["bound"], (function, name, moved)
