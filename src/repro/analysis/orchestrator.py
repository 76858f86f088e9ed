"""Process-isolated, checkpointed sweep orchestration.

``run_matrix`` executes a sweep serially inside the calling interpreter:
one segfault, OOM kill, or Ctrl-C loses the whole multi-hour matrix, and a
pathological cell can only be bounded in *cycles*, not wall-clock time.
This module runs each (benchmark, config, scale) cell as a **job** on a
pool of at most ``jobs`` **warm worker** subprocesses (``multiprocessing``
*spawn* context — a fresh interpreter, nothing inherited from the parent).
A worker is started lazily, pays its interpreter start and imports once,
and then takes one cell at a time until the sweep ends; every cell still
builds its own chip state from scratch, so a cell's stats do not depend on
which worker ran it or what ran before.  So:

* a worker dying for any reason costs one cell, not the sweep; the dead
  worker is thrown away and a fresh one is spawned at the next dispatch;
* every cell has a **wall-clock deadline** — the parent kills the worker
  outright when it expires, complementing the in-simulation cycle budget
  and progress watchdog (which cannot fire if the interpreter itself is
  wedged or thrashing).  Workers never prefetch, so a kill costs only the
  cell in flight;
* completed cells stream into an append-only JSONL journal
  (:mod:`repro.analysis.journal`), keyed by a deterministic fingerprint,
  so ``repro sweep --resume`` re-runs only what is missing after a crash
  or interrupt.

Failure handling is a per-status retry policy (:data:`RETRY_POLICY`) with
exponential backoff + jitter:

* ``timeout``      — retried with a **doubled cycle budget** (the budget
  may simply have been tight for this cell);
* ``wall-timeout`` — retried with a **doubled wall-clock budget**;
* ``worker-died``  — retried in a fresh process (transient OOM/segfault);
* ``deadlock`` / ``violation`` / ``check-failed`` / ``error`` — never
  retried: these are deterministic, more attempts cannot help.

The pool also **degrades gracefully**: repeated worker deaths halve the
pool (memory pressure is the usual culprit) down to one worker, and if
workers keep dying even then, the orchestrator falls back to the existing
in-process serial path (:func:`repro.analysis.runner.run_benchmark_safe`)
for the remaining cells rather than aborting the sweep.

Warm workers pin glibc's ``M_MMAP_THRESHOLD`` at start (see
:func:`_pin_mmap_threshold`): without it, every cell's 16 MB global-memory
image would stay fully resident once the first one had been freed.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.analysis.journal import (
    Journal,
    JournalEntry,
    cell_fingerprint,
    config_from_dict,
    config_to_dict,
    record_from_dict,
    record_to_dict,
)
from repro.analysis.runner import RunRecord, run_benchmark_safe
from repro.analysis.tables import format_table
from repro.sim.config import GPUConfig

# NOTE: repro.store.cas imports this package's journal module, so pulling
# it in at module scope would be a circular import when the store package
# loads first; run_sweep/to_summary import it lazily instead.

#: Statuses the orchestrator adds on top of ``runner.STATUSES``.
ORCHESTRATOR_STATUSES = ("wall-timeout", "worker-died")

#: status -> retryable?  (See module docstring for the rationale.)
RETRY_POLICY = {
    "timeout": True,
    "wall-timeout": True,
    "worker-died": True,
    "deadlock": False,
    "violation": False,
    "check-failed": False,
    "error": False,
    "divergence": False,  # fuzz cases are deterministic end to end
    "ok": False,
}

#: Consecutive worker deaths before the pool is halved (and, once the pool
#: is already a single worker, before falling back to in-process serial).
DEGRADE_AFTER = 3


@dataclass
class SweepCell:
    """One unit of sweep work: a benchmark name + a full configuration.

    Benchmarks are carried *by name* and re-resolved from the registry
    inside the worker — only plain data crosses the process boundary.
    ``key`` is how the caller wants the result keyed (defaults to
    ``(benchmark, arch)``, matching ``run_matrix``).
    """

    benchmark: str
    cfg: GPUConfig
    scale: float = 1.0
    check: bool = True
    max_cycles: int | None = None
    faults: object | None = None  # FaultPlan; picklable, spawn-safe
    workload_seed: int = 0
    key: tuple | None = None
    #: Which worker entry point runs this cell: "bench" resolves
    #: ``benchmark`` from the kernel registry; "fuzz" hands the payload to
    #: :func:`repro.fuzz.campaign.run_fuzz_cell` (for fuzz cells,
    #: ``faults`` carries the injected fault plan as a plain field dict).
    runner: str = "bench"
    #: Extra runner-specific payload (plain data only); fuzz cells carry
    #: {"spec": ..., "oracle": ...} here.  Not part of the fingerprint —
    #: fuzz encodes the spec fingerprint in ``benchmark`` instead.
    extra: dict = field(default_factory=dict)
    #: Test-only fault injection: attempts (1-based) on which the worker
    #: that receives the cell hard-exits, simulating a segfault/OOM kill.
    die_on_attempts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.key is None:
            self.key = (self.benchmark, self.cfg.arch)

    @property
    def fingerprint(self) -> str:
        return cell_fingerprint(self.benchmark, self.cfg, self.scale,
                                self.workload_seed)


@dataclass
class SweepResult:
    """Everything a sweep produced, plus how hard it had to work."""

    records: dict[tuple, RunRecord] = field(default_factory=dict)
    attempts: dict[tuple, int] = field(default_factory=dict)
    resumed: list[tuple] = field(default_factory=list)  # keys skipped via journal
    cached: list[tuple] = field(default_factory=list)  # keys served by the store
    fingerprints: dict[tuple, str] = field(default_factory=dict)
    dump_paths: dict[tuple, str] = field(default_factory=dict)
    journal_path: str | None = None
    store_stats: dict | None = None  # ResultStore counters, when attached
    quarantined_lines: int = 0
    degraded_to_serial: bool = False
    final_pool_size: int = 0
    workers_started: int = 0  # worker processes actually spawned

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    def counts(self) -> dict[str, int]:
        ok = sum(1 for r in self.records.values() if r.ok)
        retried = sum(1 for k, r in self.records.items()
                      if self.attempts.get(k, 1) > 1 or r.retried)
        return {
            "total": len(self.records),
            "ok": ok,
            "failed": len(self.records) - ok,
            "retried": retried,
            "resumed": len(self.resumed),
            "cached": len(self.cached),
        }

    def summary_table(self) -> str:
        """The final per-cell summary: status, attempts, dump paths.

        ``ok*`` marks a cell that only succeeded after a retry — a healthy
        sweep should not hide that a cell needed a second attempt.
        """
        rows = []
        for key in sorted(self.records, key=str):
            record = self.records[key]
            attempts = self.attempts.get(key, 1)
            marker = "*" if (attempts > 1 or record.retried) else ""
            cell = (f"ok{marker} ({record.cycles} cyc)" if record.ok
                    else record.failure)
            note = ("cached" if key in self.cached
                    else "resumed" if key in self.resumed else "")
            rows.append(("/".join(str(part) for part in key), cell,
                         attempts, self.dump_paths.get(key, "") or note))
        counts = self.counts()
        table = format_table(
            ("cell", "result", "attempts", "dump / note"), rows,
            title=f"sweep summary - {counts['ok']}/{counts['total']} ok "
                  f"({counts['retried']} retried, {counts['resumed']} resumed, "
                  f"{counts['cached']} cached)",
        )
        notes = []
        if any(self.attempts.get(k, 1) > 1 or r.retried
               for k, r in self.records.items()):
            notes.append("* = completed only after a retry")
        if self.degraded_to_serial:
            notes.append("pool degraded to the in-process serial path "
                         "after repeated worker deaths")
        if self.workers_started:
            notes.append(f"{self.workers_started} worker process(es) started")
        if self.quarantined_lines:
            notes.append(f"{self.quarantined_lines} corrupted journal line(s) "
                         f"quarantined at resume")
        if self.cached:
            notes.append(f"{len(self.cached)} cell(s) served from the result "
                         f"store without re-simulating")
        if self.journal_path:
            notes.append(f"journal: {self.journal_path}")
        return table + ("\n" + "\n".join(notes) if notes else "")

    def to_summary(self) -> dict:
        """Machine-readable sweep summary (``repro sweep --format json``).

        Mirrors the lint/predict JSON discipline: external callers (the CI
        serve smoke job in particular) assert on structured results instead
        of scraping the summary table.  Per-cell ``stats_sha256`` is the
        byte-identity witness; the full stats dict rides along so byte
        comparisons need no second run.
        """
        from repro.store.cas import stats_digest

        cells = []
        for key in sorted(self.records, key=str):
            record = self.records[key]
            stats = record.stats.to_dict() if record.stats is not None else None
            cells.append({
                "key": [str(part) for part in key],
                "benchmark": record.benchmark,
                "arch": record.arch,
                "fingerprint": self.fingerprints.get(key),
                "status": record.status,
                "ok": record.ok,
                "attempts": self.attempts.get(key, 1),
                "retried": record.retried,
                "resumed": key in self.resumed,
                "cached": key in self.cached,
                "cycles": record.stats.cycles if record.ok else None,
                "error": record.error,
                "dump_path": self.dump_paths.get(key),
                "stats_sha256": stats_digest(stats),
                "stats": stats,
            })
        return {
            "v": 1,
            "ok": self.ok,
            "counts": self.counts(),
            "journal": self.journal_path,
            "store": self.store_stats,
            "quarantined_lines": self.quarantined_lines,
            "degraded_to_serial": self.degraded_to_serial,
            "workers_started": self.workers_started,
            "cells": cells,
        }


# ---------------------------------------------------------------------------
# Worker side (runs in a spawned subprocess)
# ---------------------------------------------------------------------------

def _pin_mmap_threshold() -> None:
    """Keep large allocations on mmap for the worker's whole life.

    glibc raises its mmap threshold dynamically: once a large mmap'd block
    is freed, later blocks up to that size come from the brk heap instead.
    Each cell's ``GlobalMemory.data`` is a 16 MB ``np.zeros`` array; fresh
    from mmap it is lazily zeroed pages that only touched lines make
    resident, but from the heap it is memset and fully resident.  A worker
    that outlives its first cell would therefore pay the whole image on
    every later cell.  Pinning ``M_MMAP_THRESHOLD`` also switches the
    dynamic adjustment off.  Not glibc (macOS, musl): nothing to do.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD = 128 KiB


def _worker_main(conn) -> None:
    """Entry point of one warm worker: run cells until told to stop.

    Must stay importable at module top level — the *spawn* start method
    re-imports this module in the child to find it.  The worker answers
    each payload with exactly one record dict and exits on a ``None``
    sentinel or when the parent's end of the pipe closes.  Only a hard
    crash (segfault, OOM kill, ``os._exit``) leaves a cell unanswered,
    which the parent classifies as ``worker-died``.
    """
    _pin_mmap_threshold()
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if payload is None:
            break
        if payload["attempt"] in payload["die_on_attempts"]:
            os._exit(86)  # simulated hard crash (test hook)
        try:
            conn.send(_run_payload(payload))
        except OSError:  # the parent is gone
            break
    conn.close()


def _run_payload(payload: dict) -> dict:
    """Run one cell; everything that can go wrong becomes a record dict."""
    try:
        if payload.get("runner") == "fuzz":
            from repro.fuzz.campaign import run_fuzz_cell

            record = run_fuzz_cell(payload)
        else:
            from repro.kernels.registry import get

            cfg = config_from_dict(payload["config"])
            bench = get(payload["benchmark"])
            record = run_benchmark_safe(
                bench, cfg, payload["scale"], payload["check"],
                max_cycles=payload["max_cycles"], faults=payload["faults"],
                retry_timeouts=False,  # retries are the orchestrator's job
            )
        return record_to_dict(record)
    except BaseException as exc:  # noqa: BLE001 - last-ditch isolation
        return {
            "benchmark": payload["benchmark"],
            "arch": payload["config"].get("arch", "?"),
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "dump": None, "retried": False, "stats": None,
            "config": payload["config"],
        }


def _cell_payload(cell: SweepCell, attempt: int, max_cycles: int | None) -> dict:
    return {
        "benchmark": cell.benchmark,
        "config": config_to_dict(cell.cfg),
        "scale": cell.scale,
        "check": cell.check,
        "max_cycles": max_cycles,
        "faults": cell.faults,
        "runner": cell.runner,
        "extra": cell.extra,
        "attempt": attempt,
        "die_on_attempts": cell.die_on_attempts,
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Worker:
    """One warm worker process and the parent's end of its pipe."""

    def __init__(self, ctx):
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,),
                                daemon=True)
        self.proc.start()
        child_conn.close()  # the child holds the only other end

    def submit(self, payload: dict) -> bool:
        """Hand the worker one cell; False if it is already dead."""
        if not self.proc.is_alive():
            return False
        try:
            self.conn.send(payload)
        except OSError:
            return False
        return True

    def receive(self) -> dict | None:
        """The worker's answer, or None if it died without one."""
        try:
            if self.conn.poll(0):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


def _stop_workers(workers) -> None:
    """Stop idle workers: sentinel to all first, so they exit together."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:
            pass
    for worker in workers:
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()


@dataclass
class _Job:
    """One cell's sweep state across attempts."""

    cell: SweepCell
    attempt: int = 0  # attempts started so far
    max_cycles: int | None = None  # current cycle budget (doubles on timeout)
    wall_budget: float | None = None  # current wall budget (doubles on kill)
    ready_at: float = 0.0  # monotonic time before which backoff holds it
    started: float = 0.0
    first_started: float | None = None
    worker: _Worker | None = None  # the worker running the current attempt

    def run_on(self, worker: _Worker) -> bool:
        """Send the next attempt to ``worker``; False (and no attempt
        charged) if the worker turned out to be dead."""
        payload = _cell_payload(self.cell, self.attempt + 1, self.max_cycles)
        if not worker.submit(payload):
            return False
        self.attempt += 1
        self.worker = worker
        self.started = time.monotonic()
        if self.first_started is None:
            self.first_started = self.started
        return True

    @property
    def deadline(self) -> float | None:
        if self.wall_budget is None:
            return None
        return self.started + self.wall_budget

    @property
    def elapsed(self) -> float:
        return time.monotonic() - (self.first_started or self.started)


def _failed_record(cell: SweepCell, status: str, message: str) -> RunRecord:
    return RunRecord(benchmark=cell.benchmark, arch=cell.cfg.arch, stats=None,
                     config=cell.cfg, status=status, error=message)


def run_sweep(cells, *, jobs: int = 1, wall_timeout: float | None = None,
              retries: int = 1, journal_dir=None, resume: bool = False,
              store=None, backoff_base: float = 0.5, backoff_cap: float = 30.0,
              seed: int = 0, progress=None) -> SweepResult:
    """Run every cell on a pool of warm worker subprocesses; never raises
    for a cell-level failure.

    ``jobs`` is the worker-pool width: at most ``jobs`` spawn workers live
    for this call, each taking one cell at a time, and a worker is replaced
    only when it dies or misses a wall deadline (``SweepResult.
    workers_started`` counts the spawns).  ``0`` forces the in-process
    serial path — no isolation, but also no spawn overhead; still journaled
    and resumable.  ``wall_timeout`` is the per-cell wall-clock budget in
    seconds (``None`` = unbounded: only the cycle budget and watchdog
    bound the cell).  ``retries`` caps *extra* attempts per cell under
    :data:`RETRY_POLICY`.  With ``journal_dir`` every completed cell is
    journaled; adding ``resume`` skips cells already present (matched by
    fingerprint) and quarantines corrupted lines.

    ``store`` (a :class:`~repro.store.cas.ResultStore` or its root path)
    attaches the global content-addressed cache: cells whose fingerprint
    has a verified entry are served from it without simulating (tracked in
    ``SweepResult.cached``), every freshly computed ``ok`` cell is
    committed back crash-safely, and each computed cell emits an
    ``artifacts/<fp>.json`` audit record.  The per-sweep journal and the
    global store compose — journal resume stays sweep-local.

    Duplicate fingerprints in ``cells`` are an error: the journal could
    not tell their results apart.
    """
    cells = list(cells)
    by_print: dict[str, SweepCell] = {}
    for cell in cells:
        other = by_print.setdefault(cell.fingerprint, cell)
        if other is not cell:
            raise ValueError(
                f"duplicate sweep cell: {cell.key} and {other.key} have the "
                f"same fingerprint (same benchmark, config, scale, and seed)")

    journal = Journal.open(journal_dir, resume=resume) if journal_dir else None
    if store is not None:
        from repro.store.cas import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
    rng = random.Random(seed)
    result = SweepResult(journal_path=str(journal.path) if journal else None,
                         quarantined_lines=journal.quarantined if journal else 0)

    def note(message: str) -> None:
        if progress:
            progress(message)

    # -- resume: skip cells already journaled (sweep-local) or with a
    # verified entry in the global result store ---------------------------
    todo: list[_Job] = []
    for cell in cells:
        result.fingerprints[cell.key] = cell.fingerprint
        entry = journal.lookup(cell.fingerprint) if journal else None
        if entry is not None:
            result.records[cell.key] = entry.record
            result.attempts[cell.key] = entry.attempts
            result.resumed.append(cell.key)
            if entry.dump_path:
                result.dump_paths[cell.key] = entry.dump_path
            continue
        cached = store.get(cell.fingerprint) if store is not None else None
        if cached is not None:
            result.records[cell.key] = cached.record
            result.attempts[cell.key] = cached.attempts
            result.cached.append(cell.key)
            if journal:  # make the sweep dir self-contained for resume
                journal.append(JournalEntry(
                    fingerprint=cell.fingerprint, record=cached.record,
                    attempts=cached.attempts, elapsed_s=cached.elapsed_s,
                    scale=cell.scale, seed=cell.workload_seed))
            continue
        todo.append(_Job(cell=cell, max_cycles=cell.max_cycles,
                         wall_budget=wall_timeout))
    if result.resumed or result.cached:
        note(f"resume: {len(result.resumed)}/{len(cells)} cells already "
             f"journaled, {len(result.cached)} served from the store, "
             f"{len(todo)} to run")

    def finalize(job: _Job, record: RunRecord) -> None:
        key = job.cell.key
        result.records[key] = record
        result.attempts[key] = job.attempt
        dump_path = None
        if journal:
            dump_path = journal.write_dump(job.cell.fingerprint, record.dump)
            journal.append(JournalEntry(
                fingerprint=job.cell.fingerprint, record=record,
                attempts=job.attempt, elapsed_s=job.elapsed,
                scale=job.cell.scale, seed=job.cell.workload_seed,
                dump_path=dump_path))
        if dump_path:
            result.dump_paths[key] = dump_path
        if store is not None and record.ok:
            from repro.store.cas import build_artifact

            finished = time.time()
            path = store.put(
                job.cell.fingerprint, record, scale=job.cell.scale,
                seed=job.cell.workload_seed, attempts=job.attempt,
                elapsed_s=job.elapsed)
            store.write_artifact(job.cell.fingerprint, build_artifact(
                job.cell.fingerprint, record, scale=job.cell.scale,
                seed=job.cell.workload_seed, attempts=job.attempt,
                elapsed_s=job.elapsed, source="computed",
                started_at=finished - job.elapsed, finished_at=finished,
                store_path=str(path) if path else None))

    def run_serial(job: _Job) -> None:
        """The degraded / ``jobs=0`` path: in-process, no isolation."""
        from repro.kernels.registry import get

        job.attempt += 1
        if job.first_started is None:
            job.first_started = time.monotonic()
        if job.cell.runner == "fuzz":
            from repro.fuzz.campaign import run_fuzz_cell

            finalize(job, run_fuzz_cell(
                _cell_payload(job.cell, job.attempt, job.max_cycles)))
            return
        try:
            bench = get(job.cell.benchmark)
        except KeyError as exc:
            finalize(job, _failed_record(job.cell, "error", str(exc)))
            return
        record = run_benchmark_safe(
            bench, job.cell.cfg, job.cell.scale, job.cell.check,
            max_cycles=job.max_cycles, faults=job.cell.faults,
            retry_timeouts=retries > 0, wall_budget=wall_timeout)
        if record.retried:
            job.attempt += 1
        finalize(job, record)

    if jobs <= 0:
        for job in todo:
            run_serial(job)
        result.final_pool_size = 0
        if store is not None:
            result.store_stats = store.stats.to_dict()
        return result

    # -- the process pool -------------------------------------------------
    from multiprocessing.connection import wait  # off the CLI import path

    ctx = multiprocessing.get_context("spawn")
    pool_size = max(1, jobs)
    pending = list(todo)  # jobs waiting for a worker (or for backoff)
    active: list[_Job] = []  # jobs whose attempt is on a worker
    idle: list[_Worker] = []  # warm workers with nothing to do
    death_streak = 0  # consecutive worker deaths, reset by any result
    serial_fallback = False

    def dispatch(job: _Job) -> None:
        """Start the job's next attempt on an idle or a fresh worker.  A
        worker found dead while idle is replaced; the cell is not charged."""
        while True:
            if idle:
                worker = idle.pop()
            else:
                worker = _Worker(ctx)
                result.workers_started += 1
            if job.run_on(worker):
                active.append(job)
                return
            worker.kill()

    def retire(job: _Job) -> None:
        """Kill the job's worker (dead or past its deadline) and drop it."""
        job.worker.kill()
        job.worker = None
        active.remove(job)

    def backoff(job: _Job) -> None:
        delay = min(backoff_cap, backoff_base * (2 ** (job.attempt - 1)))
        delay *= 1.0 + rng.random()  # jitter: avoid lockstep retries
        job.ready_at = time.monotonic() + delay

    def settle(job: _Job, record: RunRecord) -> None:
        """Retry under the policy, or finalize the cell."""
        nonlocal death_streak
        retryable = RETRY_POLICY.get(record.status, False)
        allowance = retries
        if record.status == "worker-died":
            death_streak += 1
            # Worker deaths get a more generous allowance than --retries:
            # a sick *environment* should trip the pool-degradation logic
            # (which needs DEGRADE_AFTER consecutive deaths, twice) before
            # any one cell is terminally charged for it.  A cell that
            # reliably kills its own worker still fails terminally here.
            allowance = max(retries, 2 * DEGRADE_AFTER)
        else:
            death_streak = 0
        if retryable and job.attempt <= allowance:
            if record.status == "timeout":
                budget = job.max_cycles or job.cell.cfg.max_cycles
                job.max_cycles = 2 * budget  # a tight budget, not a hang
            elif record.status == "wall-timeout" and job.wall_budget:
                job.wall_budget *= 2
            backoff(job)
            note(f"{'/'.join(map(str, job.cell.key))}: {record.status} on "
                 f"attempt {job.attempt}, retrying")
            pending.append(job)
            return
        record.retried = record.retried or job.attempt > 1
        finalize(job, record)

    try:
        while pending or active:
            # Degrade: repeated worker deaths mean the environment (not one
            # cell) is sick — shrink the pool, then give up on isolation.
            if death_streak >= DEGRADE_AFTER:
                death_streak = 0
                if pool_size > 1:
                    pool_size = max(1, pool_size // 2)
                    note(f"repeated worker deaths: pool degraded to "
                         f"{pool_size} worker(s)")
                else:
                    serial_fallback = True
                    note("workers keep dying: falling back to the "
                         "in-process serial path")
            if serial_fallback:
                # Drain what is still running, then finish serially.
                for job in list(active):
                    retire(job)
                    job.attempt -= 1  # the killed attempt is not charged
                    pending.append(job)
                for job in pending:
                    run_serial(job)
                pending.clear()
                result.degraded_to_serial = True
                break
            while idle and len(idle) + len(active) > pool_size:
                _stop_workers([idle.pop()])  # the pool shrank

            # Dispatch while there are free slots and ready jobs.
            now = time.monotonic()
            ready = [j for j in pending if j.ready_at <= now]
            while ready and len(active) < pool_size:
                job = ready.pop(0)
                pending.remove(job)
                dispatch(job)

            # Sleep until a worker answers or dies, or the nearest cell
            # deadline or backoff expiry — whichever comes first.
            wakes = [j.deadline for j in active if j.deadline is not None]
            wakes += [j.ready_at for j in pending if j.ready_at > now]
            timeout = max(0.0, min(wakes) - now) if wakes else None
            if active:
                wait([j.worker.conn for j in active]
                     + [j.worker.proc.sentinel for j in active], timeout)
            elif timeout is not None:
                time.sleep(timeout)

            # Collect results, deaths and blown deadlines.
            now = time.monotonic()
            for job in list(active):
                data = job.worker.receive()
                if data is not None:
                    idle.append(job.worker)
                    job.worker = None
                    active.remove(job)
                    settle(job, record_from_dict(data))
                elif not job.worker.proc.is_alive():
                    retire(job)
                    settle(job, _failed_record(
                        job.cell, "worker-died",
                        f"worker exited without a result "
                        f"(attempt {job.attempt})"))
                elif job.deadline is not None and now >= job.deadline:
                    budget = job.wall_budget
                    retire(job)
                    settle(job, _failed_record(
                        job.cell, "wall-timeout",
                        f"wall-clock deadline ({budget:g}s) exceeded on "
                        f"attempt {job.attempt}"))
    except KeyboardInterrupt:
        # Leave a clean journal behind: everything finalized so far is
        # durable; in-flight workers are killed (below), their cells
        # untouched — exactly what --resume needs.
        note("interrupted: journal is resumable with --resume")
        raise
    finally:
        for job in list(active):
            retire(job)
        _stop_workers(idle)

    result.final_pool_size = pool_size
    if store is not None:
        result.store_stats = store.stats.to_dict()
    return result


def matrix_cells(benches, archs, base_cfg: GPUConfig, scale: float = 1.0,
                 check: bool = True, max_cycles: int | None = None) -> list[SweepCell]:
    """The (benchmark x arch) matrix as sweep cells, keyed like ``run_matrix``."""
    return [
        SweepCell(benchmark=bench.name, cfg=base_cfg.with_(arch=arch),
                  scale=scale, check=check, max_cycles=max_cycles)
        for bench in benches for arch in archs
    ]
