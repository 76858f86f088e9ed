"""Chip top level: CTA dispatcher, SM array, shared memory system.

:class:`GPU` is the public simulation entry point::

    gpu = GPU(scaled_fermi(num_sms=2, arch="vt"))
    gmem = GlobalMemory()
    ... allocate/write buffers ...
    result = gpu.launch(kernel, grid_dim=(64, 1, 1), gmem=gmem,
                        params=(gmem.base("a"), gmem.base("b")))
    print(result.stats.summary())

Each launch builds a fresh chip state (cold caches), making runs
reproducible and architecture comparisons fair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.kernel import Kernel
from repro.sim.config import ArchMode, GPUConfig
from repro.sim.cta import CTA
from repro.sim.memory import GlobalMemory
from repro.sim.memsys import MemoryModel
from repro.sim.sanitizer import Sanitizer, diagnostic_dump
from repro.sim.smcore import SMCore
from repro.sim.stats import SimStats
from repro.sim.watchdog import ProgressTracker


class SimulationTimeout(RuntimeError):
    """The hard watchdog fired: the launch did not finish within max_cycles.

    ``dump`` carries the deadlock-forensics snapshot taken when the limit
    was hit (see :func:`repro.sim.sanitizer.diagnostic_dump`).
    """

    def __init__(self, message: str, dump: str | None = None):
        super().__init__(message)
        self.dump = dump


class ProgressDeadlock(SimulationTimeout):
    """The progress watchdog fired: no SM made forward progress for
    ``progress_window`` consecutive cycles.  Raised long before
    ``max_cycles``, with the same forensic ``dump`` attached — a true
    deadlock never gets better with a bigger cycle budget."""


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    stats: SimStats
    gmem: GlobalMemory
    kernel: Kernel
    grid_dim: tuple[int, int, int]

    def read(self, name: str, num_words: int | None = None):
        """Read a result buffer from global memory."""
        return self.gmem.read(name, num_words)


def _manager_factory(arch: str):
    if arch == ArchMode.BASELINE:
        from repro.sim.ctamanager import BaselineManager

        return BaselineManager
    if arch == ArchMode.IDEAL_SCHED:
        from repro.sim.ctamanager import IdealSchedManager

        return IdealSchedManager
    if arch == ArchMode.VT:
        from repro.core.vt import VirtualThreadManager

        return VirtualThreadManager
    raise ValueError(f"unknown arch {arch!r}")


class GPU:
    """A simulated GPU; construct once per configuration, launch many."""

    def __init__(self, cfg: GPUConfig | None = None):
        self.cfg = cfg or GPUConfig()
        self.cfg.validate()

    def launch(
        self,
        kernel: Kernel,
        grid_dim,
        gmem: GlobalMemory | None = None,
        params: tuple[float, ...] = (),
        max_cycles: int | None = None,
        tracer=None,
        faults=None,
    ) -> LaunchResult:
        """Run ``kernel`` over ``grid_dim`` CTAs to completion.

        ``faults`` optionally injects failures (:class:`repro.sim.faults.FaultPlan`);
        with ``cfg.sanitize`` the per-cycle invariant sanitizer runs too.
        """
        cfg = self.cfg
        grid = self._normalize_grid(grid_dim)
        total_ctas = grid[0] * grid[1] * grid[2]
        if total_ctas <= 0:
            raise ValueError(f"empty grid {grid}")
        self._check_kernel_fits(kernel)

        gmem = gmem if gmem is not None else GlobalMemory(line_bytes=cfg.line_bytes)
        limit = max_cycles if max_cycles is not None else cfg.max_cycles
        if (cfg.engine == "parallel" and tracer is None and faults is None
                and not cfg.sanitize):
            # The sharded epoch engine (byte-identical stats; see
            # repro.sim.parallel).  Anything observing individual cycles
            # pins the serial engine, and the parallel engine itself may
            # decline (degenerate epoch, cross-SM conflict, dead worker) —
            # None means "run serially", with gmem restored.
            from repro.sim.parallel import try_parallel_launch

            result = try_parallel_launch(
                cfg, kernel, grid, gmem, params, limit, total_ctas)
            if result is not None:
                return result
        memory_model = MemoryModel(cfg)
        factory = _manager_factory(cfg.arch)
        sanitizer = Sanitizer(cfg) if cfg.sanitize else None
        sms = [
            SMCore(sm_id, cfg, memory_model, factory, sanitizer=sanitizer, faults=faults)
            for sm_id in range(cfg.num_sms)
        ]
        for sm in sms:
            sm.gmem = gmem

        progress = ProgressTracker(cfg.progress_window)
        # The fast-forward engine skips provably-dead cycles; anything that
        # observes individual cycles (sanitizer, fault plans, tracers) pins
        # the per-cycle reference path.
        fast_forward = (cfg.fast_forward and tracer is None and faults is None
                        and not cfg.sanitize)
        for sm in sms:
            sm.allow_fast = fast_forward
        next_cta = 0
        now = 0
        rr_offset = 0
        num_sms = len(sms)
        fill_first = cfg.cta_dispatch == "fill-first"
        # Only the VT manager ever has a context switch in flight; skip the
        # per-SM query entirely on the other architectures.
        vt_mode = cfg.arch == ArchMode.VT
        while True:
            # Dispatch: at most one CTA per SM per cycle.  Round-robin
            # rotates the starting SM each cycle (GigaThread-style fairness);
            # fill-first always starts at SM 0.
            dispatched = False
            if next_cta < total_ctas:
                if fill_first:
                    # One CTA per cycle, always packed into the
                    # lowest-numbered SM with room.
                    for sm in sms:
                        if sm.manager.can_accept(kernel):
                            sm.assign_cta(
                                self._make_cta(next_cta, kernel, grid, params, now),
                                now)
                            next_cta += 1
                            dispatched = True
                            break
                else:
                    # The rotation advances every cycle CTAs remain, whether
                    # or not one lands; indices are computed on the fly so
                    # idle dispatch cycles allocate nothing.
                    start = rr_offset
                    rr_offset = (rr_offset + 1) % num_sms
                    for i in range(num_sms):
                        if next_cta >= total_ctas:
                            break
                        sm = sms[(start + i) % num_sms]
                        if sm.manager.can_accept(kernel):
                            sm.assign_cta(
                                self._make_cta(next_cta, kernel, grid, params, now),
                                now)
                            next_cta += 1
                            dispatched = True

            issued = 0
            swap_busy = False
            mem_horizon = 0
            for sm in sms:
                if not sm.idle:
                    issued += sm.step(now)
                    if vt_mode and sm.manager.swap_in_flight():
                        swap_busy = True
                if sm.mem_horizon > mem_horizon:
                    mem_horizon = sm.mem_horizon
            if dispatched:
                # A freshly seated CTA only becomes schedulable after the
                # dispatcher latency; cover the gap in the horizon.
                mem_horizon = max(mem_horizon, now + cfg.cta_launch_latency)
            progress.observe(now, issued, swap_busy, dispatched, mem_horizon)
            if tracer is not None:
                tracer.on_cycle(now, sms)

            if next_cta >= total_ctas and all(sm.idle for sm in sms):
                break

            if fast_forward and not issued and not (
                    next_cta < total_ctas
                    and any(sm.manager.can_accept(kernel) for sm in sms)):
                # This cycle was dead and the next one cannot dispatch:
                # jump to the earliest event across SMs, bulk-crediting the
                # skipped span.  Every non-idle SM just took a zero-issue
                # step, so its cached ``next_wake`` is fresh.  Capped at the
                # watchdog deadline and the hard cycle budget so both fire
                # at reference-exact cycles.
                target = limit
                for sm in sms:
                    if not sm.idle and sm.next_wake < target:
                        target = sm.next_wake
                if not swap_busy:
                    deadline = progress.stall_deadline()
                    if deadline < target:
                        target = deadline
                if target > now + 1:
                    for sm in sms:
                        if not sm.idle:
                            sm.fast_forward(now + 1, target)
                    progress.observe_span(now + 1, target, swap_busy)
                    if next_cta < total_ctas and not fill_first:
                        rr_offset = (rr_offset + target - now - 1) % num_sms
                    now = target - 1

            now += 1
            if progress.deadlocked(now):
                reason = (
                    f"kernel {kernel.name!r} made no forward progress for "
                    f"{progress.stalled_cycles(now)} cycles "
                    f"({next_cta}/{total_ctas} CTAs dispatched)"
                )
                raise ProgressDeadlock(
                    reason, dump=diagnostic_dump(sms, now, reason, faults=faults))
            if now >= limit:
                reason = (
                    f"kernel {kernel.name!r} exceeded {limit} cycles "
                    f"({next_cta}/{total_ctas} CTAs dispatched)"
                )
                raise SimulationTimeout(
                    reason, dump=diagnostic_dump(sms, now, reason, faults=faults))

        return LaunchResult(
            stats=self._collect(sms, memory_model, now, total_ctas),
            gmem=gmem,
            kernel=kernel,
            grid_dim=grid,
        )

    # -- helpers ---------------------------------------------------------------

    def _make_cta(self, cta_id: int, kernel: Kernel, grid, params, now: int) -> CTA:
        return CTA(
            cta_id=cta_id,
            ctaid=self._cta_coords(cta_id, grid),
            kernel=kernel,
            grid_dim=grid,
            params=params,
            cfg=self.cfg,
            start_cycle=now + self.cfg.cta_launch_latency,
        )

    def _check_kernel_fits(self, kernel: Kernel) -> None:
        cfg = self.cfg
        if kernel.regs_per_thread * kernel.threads_per_cta > cfg.registers_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: one CTA exceeds the register file")
        if kernel.smem_bytes > cfg.smem_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: one CTA exceeds shared memory")
        if kernel.threads_per_cta > cfg.max_threads_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: CTA exceeds thread slots")
        if kernel.warps_per_cta(cfg.warp_size) > cfg.max_warps_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: CTA exceeds warp slots")

    @staticmethod
    def _normalize_grid(grid_dim) -> tuple[int, int, int]:
        if isinstance(grid_dim, int):
            return (grid_dim, 1, 1)
        dims = tuple(int(d) for d in grid_dim)
        while len(dims) < 3:
            dims = dims + (1,)
        return dims[:3]

    @staticmethod
    def _cta_coords(index: int, grid: tuple[int, int, int]) -> tuple[int, int, int]:
        gx, gy, _gz = grid
        return (index % gx, (index // gx) % gy, index // (gx * gy))

    @staticmethod
    def _collect(sms, memory_model, cycles: int, total_ctas: int) -> SimStats:
        stats = SimStats()
        stats.cycles = cycles
        stats.ctas_launched = total_ctas
        for sm in sms:
            sm.stats.l1_accesses = sm.l1.tags.accesses
            sm.stats.l1_hits = sm.l1.tags.hits
            stats.sm_stats.append(sm.stats)
            stats.instructions += sm.stats.instructions
            stats.thread_instructions += sm.stats.thread_instructions
        stats.l2_accesses = memory_model.l2_accesses
        stats.l2_hits = memory_model.l2_hits
        stats.dram_requests = memory_model.dram_requests
        return stats
