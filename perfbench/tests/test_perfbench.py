"""Self-tests of the benchmark: seeds, metric names, tracing, failures.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

import calibrate
import child
import run
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_cell_order(name):
    def keys(seed):
        cells = workloads.make_cells(name, seed)
        assert {c.workload_seed for c in cells} == {seed}
        return [c.key for c in cells]

    assert keys(7) == keys(7)
    assert keys(8) != keys(7)
    assert sorted(keys(8), key=str) == sorted(keys(7), key=str)
    assert len(set(keys(7))) == len(keys(7))


def test_metric_names_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reported_metrics_match_the_spec(spec, tmp_path):
    workload = workloads.Workload("sweep-isolated", 1, tmp_path)
    workload.cells = workloads.make_cells("sweep-isolated", 1)
    empty = workloads.PassResult(wall_s=1.0, outcomes=[])
    e2e = {"setup_s", *child.end_to_end([empty], 1.0, 1.0)}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    layers = set(child.per_layer(workload, tracing.Tracer(), tracing.Tracer(),
                                 [empty], 1.0))
    layers |= {"cli.import_s", "cli.import_networkx_s",
               "orchestrator.worker_import_s"}
    assert layers == {m["name"] for m in spec["per_layer"]}


def test_wrappers_are_restored():
    from repro.analysis import runner
    from repro.isa import assembler
    from repro.kernels.registry import all_benchmarks, get
    from repro.sim.config import scaled_fermi
    from repro.sim.smcore import SMCore

    benches = all_benchmarks()
    before = {t: vars(t.owner())[t.attr] for t in tracing.TARGETS}
    prepares = [b.prepare for b in benches]
    late = types.ModuleType("repro._late_import")
    tracer = tracing.Tracer()
    try:
        with tracer.active(tracing.TARGETS, benches):
            assert tracing.wrapped_targets(tracing.TARGETS, benches)
            # A module imported while tracing binds the wrapper by name.
            late.assemble = assembler.assemble
            sys.modules[late.__name__] = late
            runner.run_benchmark_safe(get("vecadd"),
                                      scaled_fermi(num_sms=1), 0.1)
        assert tracing.wrapped_targets(tracing.TARGETS, benches) == []
        assert late.assemble is before[tracing.STARTUP_TARGETS[0]]
    finally:
        sys.modules.pop(late.__name__, None)
    assert {t: vars(t.owner())[t.attr] for t in tracing.TARGETS} == before
    assert [b.prepare for b in benches] == prepares
    assert SMCore.step is before[next(t for t in tracing.TARGETS
                                      if t.qualname == "SMCore.step")]
    assert tracer.counts["runner.cell"] == 1
    assert tracer.counts["sim.gpu.launch.baseline"] == 1
    assert tracer.counts["kernels.prepare"] == 1
    assert tracer.counts["kernels.check"] == 1
    assert tracer.counts["sim.smcore.step"] > 0
    # Self times never exceed the spans that contain them.
    assert tracer.self_time["runner.cell"] <= tracer.wall["runner.cell"]
    calls_after = dict(tracer.counts)
    runner.run_benchmark_safe(get("vecadd"), scaled_fermi(num_sms=1), 0.1)
    assert dict(tracer.counts) == calls_after


def test_forced_failure_is_counted(tmp_path):
    workload = workloads.Workload("sweep-isolated", 3, tmp_path)
    workload.setup()
    for cell in workload.cells:
        cell.max_cycles = 20
    result = workload.run_pass(in_process=True)
    assert len(result.outcomes) == len(workload.cells) == 71
    assert workload.verify(result) == 71
    assert all(not o.ok and "SimulationTimeout" in (o.error or "")
               for o in result.outcomes)


def test_digest_mismatch_fails_the_cell(tmp_path):
    workload = workloads.Workload("sweep-isolated", 1, tmp_path)
    outcomes = [workloads.CellOutcome(key=("k", arch), ok=True,
                                      digest=f"sha256:{arch}")
                for arch in ("baseline", "vt")]
    assert workload.verify(workloads.PassResult(1.0, outcomes)) == 0
    changed = [workloads.CellOutcome(key=("k", "baseline"), ok=True,
                                     digest="sha256:other"),
               workloads.CellOutcome(key=("k", "vt"), ok=True,
                                     digest="sha256:vt")]
    assert workload.verify(workloads.PassResult(1.0, changed)) == 1
    assert not changed[0].ok and changed[1].ok


def test_calibration_is_independent_of_the_program():
    """The reference work loads no simulator code, so only the host's
    speed can change its time."""
    import subprocess

    code = ("import sys, calibrate; calibrate.block(); "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
    assert calibrate.slowdown([calibrate.REFERENCE_BLOCK_S * 1.5] * 3) \
        == pytest.approx(1.5)


def test_calibration_thread_shares_the_core_and_lets_it_go():
    import os

    speedometer = calibrate.Speedometer()
    before = os.sched_getaffinity(0)
    with speedometer.running(share_core=True):
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == before
    assert speedometer.samples and speedometer.busy_s > 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "sweep-isolated", "--seed", "1",
                     "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
