"""End-to-end and per-layer benchmark of the Virtual Thread simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-isolated --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``sweep-isolated``, ``sim-heavy`` and ``static-suite`` (see
``perfbench/README.md``).  With ``--trace 0`` the
run reports the end-to-end metrics of ``BENCHMARK.json``: set-up time is
the median of nine fresh interpreters, the rest come from one measured
run of about ``--seconds`` seconds.  With ``--trace 1`` it reports the
per-layer metrics: import-time probes of fresh interpreters, then a
traced pass beside an untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are for people.  Every cell's outputs are checked; a cell that fails
counts in ``failed``.  The exit code is 0 when a result was printed, and
2 when the benchmark cannot run (no simulator sources, a bad argument, or
a benchmark process that failed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_child(role: str, args, workdir: Path) -> tuple[float, dict]:
    """Start ``child.py`` in a fresh interpreter; returns the seconds from
    its start to its first submitted cell, and its report."""
    command = [sys.executable, str(HERE / "child.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--workdir", str(workdir)]
    started = time.monotonic()
    # Its own session, so that a timeout also kills the sweep workers.
    proc = subprocess.Popen(command, cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} run exceeded {CHILD_TIMEOUT_S:g}s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} run exited with {proc.returncode}")
    report = json.loads(lines[-1])
    return report["submitted_at"] - started, report


def import_profile(code: str) -> list[tuple[int, str, float]]:
    """``python -X importtime -c code`` as (depth, module, cumulative s)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import probe {code!r} failed:\n{proc.stderr}")
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(parts[1]) / 1e6))
    return rows


def import_metrics() -> dict[str, float]:
    """Import costs from fresh interpreters, each the median of
    ``IMPORT_SAMPLES``: the CLI, networkx within it, and what a spawned
    sweep worker imports before its first cell (the spawn bootstrap, the
    orchestrator and the kernel registry).  Modules a bare interpreter
    already imports at start-up are left out."""
    startup = {name for _, name, _ in import_profile("pass")}

    def total(rows) -> float:
        return sum(s for depth, name, s in rows
                   if depth == 0 and name not in startup)

    cli, networkx, worker = [], [], []
    for _ in range(IMPORT_SAMPLES):
        rows = import_profile("import repro.cli")
        cli.append(total(rows))
        networkx.append(sum(s for _, name, s in rows if name == "networkx"))
        worker.append(total(import_profile(
            "import multiprocessing.spawn, repro.analysis.orchestrator, "
            "repro.kernels.registry")))
    return {"cli.import_s": statistics.median(cli),
            "cli.import_networkx_s": statistics.median(networkx),
            "orchestrator.worker_import_s": statistics.median(worker)}


def load_metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def calibrated_setup_s(seconds: float, report: dict) -> float:
    """One set-up sample at the reference host speed: the calibration
    blocks the child timed before its set-up are taken out, and the rest
    is divided by the slowdown that they and the blocks after it show."""
    return ((seconds - report["setup_calibration_busy_s"])
            / calibrate.slowdown(report["setup_calibration_s"]))


def bench(args) -> dict:
    specs = load_metric_specs()
    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    raw_setups, setups = [], []
    if args.trace:
        measured = import_metrics()
        _, report = run_child("trace", args, scratch / "trace")
        measured.update(report["metrics"])
        wanted = specs["per_layer"]
    else:
        # Set-up samples on both sides of the measured run, so that a host
        # speed phase shorter than the run does not set their median.
        def setup_sample(role: str, i: int) -> dict:
            seconds, child = run_child(role, args, scratch / f"{role}-{i}")
            raw_setups.append(seconds)
            setups.append(calibrated_setup_s(seconds, child))
            return child

        for i in range(SETUP_SAMPLES // 2):
            setup_sample("setup", i)
        report = setup_sample("measure", 0)
        for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1):
            setup_sample("setup", i)
        measured = {"setup_s": statistics.median(setups), **report["metrics"]}
        wanted = specs["end_to_end"]
    shutil.rmtree(scratch, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    walls = sorted(report["pass_walls_s"])
    print(f"passes {len(walls)}: wall min {walls[0]:.4g} s median "
          f"{statistics.median(walls):.4g} s max {walls[-1]:.4g} s; host "
          f"slowdown {calibrate.slowdown(report['calibration_s']):.4g} "
          f"over {len(report['calibration_s'])} calibration blocks")
    if setups:
        print(f"set-up: median {statistics.median(raw_setups):.4g} s of "
              f"{len(setups)} interpreters before calibration")
    if "walls_s" in report:
        print("traced pass {traced:.4g} s, untraced pass {untraced:.4g} s"
              .format(**report["walls_s"]))
    print(f"stats_digest {report['digest']}")
    print(f"cells attempted {attempted}  failed {failed}  "
          f"failed_ratio {failed / max(1, attempted):.4f}")
    for error in report["errors"]:
        print(f"  FAILED {error}")
    for metric in wanted:
        print(f"  {metric['name']:<38} {measured[metric['name']]:>16.6g} "
              f"{metric['unit']}")
    return {
        "correct": bool(report["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the simulator.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
