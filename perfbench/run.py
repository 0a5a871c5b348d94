"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cold-threaded --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Every sample is a fresh interpreter
(``worker.py``) that imports and builds the system from the checkout's
``src``; nothing persisted by an earlier run is read.  The workloads, the
metrics and what each layer metric should move are recorded in
``perfbench/design.json``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over three fresh processes (the measured one included); every other
figure comes from the measured process, whose timed phase runs in three
parts with the other two set-ups in between, so that it samples the
host's speed over the whole run rather than one stretch of it.

``--trace 1`` reports the per-layer metrics: one untraced process gives
the reference ``wall_rps``, then one traced process gives the layers and
the traced ``wall_rps``, whose difference is ``trace.overhead_pct``.

Each process pins the BLAS/OpenMP pools to one thread (set in its
environment before numpy loads) and writes its journal and reindex
checkpoint to a fresh directory under ``.perfbench_tmp/``, removed when
the run ends.  An output check that fails, a missing ``src/repro``, or a
process that overruns makes the run exit non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-threaded", "zipf-async", "drift-routed")
#: one thread per native pool: OpenBLAS's default pool spins on the second
#: core and bills that to the process
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: a run must end within this many seconds, whatever its children do
RUN_BUDGET_S = 170.0
#: fresh processes per run whose set-up time is the median setup_s
SETUP_SAMPLES = 3


class RunFailed(RuntimeError):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default="",
                        help="NAME=MS: sleep MS before every call of one public "
                             "function (used by the sensitivity test)")
    return parser.parse_args(argv)


def _child(args, tmp_root: Path, deadline: float, *extra: str,
           between=()) -> dict:
    """Run one worker process to completion; return its JSON line.

    With ``between``, the worker's timed phase runs in ``len(between) + 1``
    parts, and each callable runs here while the worker waits between two
    parts.
    """
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--tmp", str(tmp),
        "--segments", str(len(between) + 1),
        *extra,
    ]
    if args.delay:
        command += ["--delay", args.delay]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a process")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    overran = threading.Event()

    def kill() -> None:
        overran.set()
        proc.kill()

    watchdog = threading.Timer(remaining, kill)
    watchdog.start()
    try:
        if between:
            _expect(proc, "ready")
            for task in (None, *between):
                if task is not None:
                    task()
                proc.stdin.write("go\n")
                proc.stdin.flush()
                _expect(proc, "paused")
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if overran.is_set():
        raise RunFailed(f"a benchmark process overran the {RUN_BUDGET_S:.0f} s "
                        "budget")
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"benchmark process exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _expect(proc: subprocess.Popen, word: str) -> None:
    line = proc.stdout.readline().strip()
    if line != word:
        raise RunFailed(f"benchmark process said {line!r}, expected {word!r}")


def run(args) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunFailed(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    deadline = time.monotonic() + RUN_BUDGET_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        if args.trace:
            plain = _child(args, tmp_root, deadline)
            traced = _child(args, tmp_root, deadline, "--trace")
            layers = traced["layers"]
            reference = plain["metrics"]["wall_rps"]["value"]
            layers["trace.overhead_pct"] = (
                100.0 * (reference - traced["metrics"]["wall_rps"]["value"])
                / reference
            )
            units = per_layer_units()
            if set(layers) != set(units):
                raise RunFailed("traced run reported "
                                f"{sorted(set(layers) ^ set(units))} unexpectedly")
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in sorted(layers.items())}
            return {
                "correct": True,
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "metrics": metrics,
            }
        # The other set-up samples run while the measured process waits
        # between the parts of its timed phase.
        setups: list[float] = []

        def sample_setup() -> None:
            setups.append(
                _child(args, tmp_root, deadline, "--setup-only")["setup_s"]
            )

        measured = _child(args, tmp_root, deadline,
                          between=[sample_setup] * (SETUP_SAMPLES - 1))
        setups.append(measured["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update(measured["metrics"])
        print(f"setup    : {len(setups)} fresh processes, "
              + ", ".join(f"{value:.3f}" for value in setups) + " s")
        return {
            "correct": True,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": metrics,
        }
    finally:
        try:
            tmp_root.rmdir()  # only if no concurrent run still uses it
        except OSError:
            pass


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as recorded in design.json."""
    design = json.loads((HERE / "design.json").read_text())
    return {name: unit for group in design["per_layer"]
            for name, (unit, _better) in group["metrics"].items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
