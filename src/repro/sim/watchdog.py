"""Forward-progress tracking for the deadlock watchdog.

:class:`ProgressTracker` drives the progress watchdog in
:meth:`repro.sim.gpu.GPU.launch` and the sharded engine's coordinator: a
cycle makes *progress* when any SM issues, a CTA is dispatched, the VT
swap engine is busy, or a memory response is still in flight (bounded by
``max_pending_latency``).  ``progress_window`` consecutive cycles without
progress is a deadlock — diagnosed early, well before ``max_cycles``.
The forensic dump attached to a deadlock lives with the sanitizer
(:func:`repro.sim.sanitizer.diagnostic_dump`); the watchdog runs on every
launch, sanitizer or not.
"""

from __future__ import annotations


class ProgressTracker:
    """Forward-progress bookkeeping for the deadlock watchdog.

    A cycle counts as progress when an instruction issued anywhere, a CTA
    was dispatched, the swap engine was busy, or a memory response is
    still legitimately in flight (``mem_horizon``, already capped by
    ``max_pending_latency`` at record time, lies in the future).
    """

    def __init__(self, window: int):
        self.window = window
        self.last_progress = 0
        self.horizon = 0

    def observe(self, now: int, issued: int, swap_busy: bool, dispatched: bool,
                mem_horizon: int) -> None:
        if mem_horizon > self.horizon:
            self.horizon = mem_horizon
        if issued or swap_busy or dispatched or now < self.horizon:
            self.last_progress = now

    def observe_span(self, start: int, stop: int, swap_busy: bool) -> None:
        """Bulk equivalent of per-cycle :meth:`observe` over the dead span
        ``[start, stop)`` skipped by the fast-forward engine.

        During such a span nothing issues and nothing dispatches, the
        swap-engine state is constant (a phase boundary would have ended
        the span), and ``mem_horizon`` cannot grow (it only moves on
        issue) — so progress at cycle ``t`` reduces to ``swap_busy or
        t < horizon`` and the latest progressing cycle is closed-form."""
        if swap_busy:
            self.last_progress = stop - 1
        elif self.horizon > start:
            latest = min(stop - 1, self.horizon - 1)
            if latest > self.last_progress:
                self.last_progress = latest

    def stall_deadline(self) -> int:
        """First cycle at which :meth:`deadlocked` would fire assuming no
        issue, dispatch, or swap activity from here on (memory responses
        already in flight keep counting as progress until ``horizon``).
        The fast-forward engine never skips past this cycle, so a deadlock
        raises at exactly the same cycle as under the reference engine."""
        if self.window <= 0:
            return 1 << 60
        return max(self.last_progress, self.horizon - 1) + self.window + 1

    def stalled_cycles(self, now: int) -> int:
        return now - self.last_progress

    def deadlocked(self, now: int) -> bool:
        return self.window > 0 and self.stalled_cycles(now) > self.window
