"""The benchmark workloads: their cells, set-up and one measured pass.

A *cell* is one unit of work: one (kernel, config) simulation, or one
kernel's static analysis.  Every workload is a fixed set of cells; the
seed only sets the order in which they are submitted and the
``SweepCell.workload_seed`` that feeds the store fingerprints.  Kernel
input data are fixed by the kernel registry, so the simulated statistics
of a cell do not depend on the seed.

All load comes from one process with at most ``JOBS`` workers.  Nothing
here imports ``repro`` at module level: the simulator is imported inside
:func:`setup`, so that its import cost lands in the measured set-up time.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep-isolated", "sim-heavy", "static-suite")

#: Worker-pool width of the isolated sweep: never more than the host's cores.
JOBS = max(1, min(2, os.cpu_count() or 1))

ARCHS = ("baseline", "vt", "ideal-sched")
SWEEP_SCALE = 0.1
SWEEP_SMS = 2
#: Scheduling-limited kernels that sweep-isolated also runs as a
#: baseline/VT pair at ``VT_PAIR_SCALE``, where VT gains cycles; at
#: ``SWEEP_SCALE`` every kernel's baseline/VT cycle ratio is exactly 1.
VT_PAIR_KERNELS = ("stride", "kmeans", "bfs", "hotspot")
VT_PAIR_SCALE = 1.0
#: sim-heavy's 32-SM cell: the per-cycle scan over many SMs, and VT
#: polling that never swaps.
CHASE_SMS = 32
STATIC_SCALE = 1.0
STATIC_SMS = 2


@dataclass
class CellOutcome:
    """What one cell produced in one pass."""

    key: tuple
    ok: bool
    digest: str | None
    instructions: int = 0
    cycles: int = 0
    stats: object | None = None  # SimStats, for simulating workloads
    error: str | None = None
    #: static-suite only: the perf oracle's steady-state cycles per
    #: resident warp, per arch.
    predicted: dict = field(default_factory=dict)


@dataclass
class PassResult:
    """One pass over every cell of a workload."""

    wall_s: float
    outcomes: list[CellOutcome]
    store_stats: dict | None = None
    workers_started: int = 0

    @property
    def instructions(self) -> int:
        return sum(o.instructions for o in self.outcomes)


def cell_specs(workload: str) -> list[tuple[str, float, int, str]]:
    """The workload's cells as (kernel, scale, SMs, arch), in registry order."""
    from repro.kernels.registry import all_benchmarks

    if workload == "sweep-isolated":
        return [(b.name, SWEEP_SCALE, SWEEP_SMS, arch)
                for b in all_benchmarks() if b.name != "chase"
                for arch in ARCHS] + [
                    (name, VT_PAIR_SCALE, SWEEP_SMS, arch)
                    for name in VT_PAIR_KERNELS for arch in ("baseline", "vt")]
    if workload == "sim-heavy":
        return [(name, VT_PAIR_SCALE, SWEEP_SMS, arch)
                for name in VT_PAIR_KERNELS for arch in ("baseline", "vt")] + [
                    ("chase", VT_PAIR_SCALE, CHASE_SMS, arch)
                    for arch in ("baseline", "vt")]
    if workload == "static-suite":
        return [(b.name, STATIC_SCALE, STATIC_SMS, "static")
                for b in all_benchmarks()]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def make_cells(workload: str, seed: int) -> list:
    """The workload's cells as ``SweepCell`` objects in seed order."""
    from repro.analysis.orchestrator import SweepCell
    from repro.sim.config import scaled_fermi

    specs = cell_specs(workload)
    random.Random(seed).shuffle(specs)
    cells = []
    for name, scale, sms, arch in specs:
        cfg = scaled_fermi(num_sms=sms)
        if arch != "static":
            cfg = cfg.with_(arch=arch)
        cells.append(SweepCell(benchmark=name, cfg=cfg, scale=scale,
                               check=True, workload_seed=seed,
                               key=(name, arch, sms, scale)))
    return cells


def key_text(key: tuple) -> str:
    return "/".join(str(part) for part in key)


def workload_digest(outcomes: list[CellOutcome]) -> str:
    """Digest over every cell's digest, keyed by cell key, so it is
    independent of submission order and of the seed."""
    from repro.store.cas import stats_digest

    return stats_digest({key_text(o.key): o.digest for o in outcomes})


class Workload:
    """One workload's cells, its set-up, and its passes."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = Path(workdir)
        self.cells: list = []
        #: Reference digests per cell key, from the first pass.
        self.reference: dict[tuple, str | None] = {}
        self._passes = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Imports, registry load and cell generation."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cells = make_cells(self.name, self.seed)
        if self.name == "static-suite":
            from repro.isa.analysis import bounds, lint, perf  # noqa: F401

    # -- passes ------------------------------------------------------------

    def run_pass(self, *, in_process: bool = False,
                 timed=contextlib.nullcontext, speedometer=None) -> PassResult:
        """Submit every cell once and time it.

        ``in_process`` runs the isolated sweep through the serial path (the
        traced and reference runs); sim-heavy always runs in-process, with
        no journal and no store.  ``timed`` is a context manager entered
        around the timed region only; the tracer passes one that installs
        its wrappers and restores them, so the correctness checks that
        follow run untraced.  A ``speedometer`` (see :mod:`calibrate`)
        times calibration blocks between the static cells, outside their
        timing, or in a thread of its own while a sweep runs; an in-process
        sweep's wall leaves out the time the blocks held the interpreter.
        """
        self._passes += 1
        scratch = self.workdir / f"pass-{self._passes}"
        try:
            if self.name == "static-suite":
                return self._static_pass(timed, speedometer)
            from repro.analysis import orchestrator

            if self.name == "sim-heavy":
                jobs, files = 0, {}
            else:
                jobs = 0 if in_process else JOBS
                files = {"journal_dir": str(scratch / "journal"),
                         "store": str(scratch / "store")}
            busy = speedometer.busy_s if speedometer else 0.0
            with timed(), (speedometer.running(share_core=jobs == 0)
                           if speedometer else contextlib.nullcontext()):
                start = time.perf_counter()
                result = orchestrator.run_sweep(self.cells, jobs=jobs, **files)
                wall = time.perf_counter() - start
            if speedometer and jobs == 0:
                wall -= speedometer.busy_s - busy
            workers = 0
            if jobs > 0 and not result.degraded_to_serial:
                workers = sum(result.attempts.get(c.key, 1) for c in self.cells
                              if c.key not in result.cached)
            return PassResult(wall, _sweep_outcomes(self.cells, result),
                              store_stats=result.store_stats,
                              workers_started=workers)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _static_pass(self, timed, speedometer) -> PassResult:
        from repro.isa.analysis import bounds, lint, perf
        from repro.kernels.registry import get

        outcomes = []
        wall = 0.0
        with timed():
            for cell in self.cells:
                if speedometer:
                    speedometer.tick()
                start = time.perf_counter()
                bench = get(cell.benchmark)
                predictions = perf.predict_kernel(
                    bench.kernel, cell.cfg,
                    layout=perf.layout_for(bench, cell.scale))
                cell_bounds = [bounds.bench_bounds(bench, cell.cfg, mode=mode,
                                                   scale=cell.scale)
                               for mode in ("baseline", "vt")]
                report = lint.lint_kernel(bench.kernel)
                wall += time.perf_counter() - start
                outcomes.append((cell, predictions, cell_bounds, report))
        return PassResult(wall, [_static_outcome(*o) for o in outcomes])

    # -- correctness ---------------------------------------------------------

    def verify(self, result: PassResult) -> int:
        """Fail every cell whose digest disagrees with the first pass's;
        returns the failed-cell count."""
        if not self.reference:
            self.reference = {o.key: o.digest for o in result.outcomes if o.ok}
        failed = 0
        for outcome in result.outcomes:
            if outcome.ok and outcome.key in self.reference \
                    and self.reference[outcome.key] != outcome.digest:
                outcome.ok = False
                outcome.error = "stats digest differs from the reference path"
            failed += not outcome.ok
        return failed


def _sweep_outcomes(cells, result) -> list[CellOutcome]:
    from repro.store.cas import stats_digest

    outcomes = []
    for cell in cells:
        record = result.records[cell.key]
        stats = record.stats if record.ok else None
        outcomes.append(CellOutcome(
            key=cell.key, ok=record.ok,
            digest=stats_digest(stats.to_dict()) if stats is not None else None,
            instructions=stats.instructions if stats is not None else 0,
            cycles=stats.cycles if stats is not None else 0,
            stats=stats,
            error=record.error))
    return outcomes


def _static_outcome(cell, predictions, cell_bounds, report) -> CellOutcome:
    """Digest (canonical-JSON SHA-256, as for stats) and sanity checks of
    one kernel's static analysis.

    A cell fails when the lint finds errors or strict warnings (the CI
    gate is strict-clean), or a cycle interval is empty.  Its instruction
    count is the oracle's loop-expanded warp-instruction estimate times
    the launched warps.
    """
    from repro.store.cas import stats_digest

    payload = {
        "predictions": [p.to_dict() for p in predictions],
        "bounds": [b.to_dict() for b in cell_bounds],
        "lint": report.to_dict(strict=True),
    }
    errors = []
    if not report.ok(strict=True):
        errors.append("lint is not strict-clean")
    if any(b.lo > b.hi for b in cell_bounds):
        errors.append("empty cycle interval")
    profile = predictions[0].profile
    return CellOutcome(
        key=cell.key, ok=not errors, digest=stats_digest(payload),
        instructions=profile.instructions * cell_bounds[0].warps,
        error="; ".join(errors) or None,
        predicted={p.arch: max(p.bounds.values()) / p.warps
                   for p in predictions})


def vt_speedup(outcomes: list[CellOutcome]) -> float:
    """Geomean over baseline/VT pairs of baseline cycles / VT cycles
    (simulated).  A pair is one kernel at one scale.

    On static-suite the ratio is the perf oracle's: its steady-state
    cycles per resident warp under baseline over those under VT.
    Cells that failed are left out; with no complete pair the value is 0.
    """
    base: dict = {}
    vt: dict = {}
    for o in outcomes:
        if not o.ok:
            continue
        name, arch, _, scale = o.key
        pair = (name, scale)
        if arch == "static":
            base[pair] = o.predicted.get("baseline", 0.0)
            vt[pair] = o.predicted.get("vt", 0.0)
        elif arch == "baseline":
            base[pair] = o.cycles
        elif arch == "vt":
            vt[pair] = o.cycles
    ratios = [base[k] / vt[k] for k in base if k in vt and base[k] and vt[k]]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def model_metrics(outcomes: list[CellOutcome]) -> dict[str, float]:
    """Simulated (exact) model statistics summed over the pass's cells."""
    stats = [o.stats for o in outcomes if o.stats is not None]
    sms = [sm for s in stats for sm in s.sm_stats]
    l1_acc = sum(sm.l1_accesses for sm in sms)
    l2_acc = sum(s.l2_accesses for s in stats)
    sm_cycles = sum(sm.cycles for sm in sms)
    return {
        "model.cycles": sum(s.cycles for s in stats),
        "model.instructions": sum(s.instructions for s in stats),
        "model.swaps": sum(s.total_swaps for s in stats),
        "model.l1_hit_ratio": (sum(sm.l1_hits for sm in sms) / l1_acc
                               if l1_acc else 0.0),
        "model.l2_hit_ratio": (sum(s.l2_hits for s in stats) / l2_acc
                               if l2_acc else 0.0),
        "model.dram_requests": sum(s.dram_requests for s in stats),
        "model.idle_mem_share": (sum(sm.idle_cycles_mem for sm in sms)
                                 / sm_cycles if sm_cycles else 0.0),
    }
