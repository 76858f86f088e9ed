"""Host-speed calibration: a fixed piece of pure-Python work, timed.

The shared host this benchmark runs on changes its CPU speed all the
time: the same block of work takes 1.8 ms in one moment and 3.4 ms a few
hundred milliseconds later, and the share of slow moments changes from
one minute to the next.  Raw rates of the same code then differ by a
third between runs.  The benchmark therefore times blocks of this
reference work *interleaved* with the work it measures, so that both
see the same mixture of speeds, and reports its timings scaled to the
reference speed::

    slowdown = mean(block CPU seconds) / REFERENCE_BLOCK_S
    reported rate = measured rate * slowdown
    reported time = measured time / slowdown

A block is timed in CPU time of its thread, so time spent waiting for a
core or for the GIL does not count; only the speed of the core does.

The reference work imports nothing from the simulator, so a change to the
program cannot change it: only the host moves it.  It stresses what the
simulator and the analyses stress, namely the bytecode loop, attribute
and dict lookups, and small allocations.  Keep it unchanged: a change to
it, or to ``REFERENCE_BLOCK_S``, makes every timing incomparable with
those taken before.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import threading
import time

#: CPU seconds one :func:`block` took on the reference host, a 2-vCPU KVM
#: guest on an Intel Xeon (family 6, model 143), at its fastest.  Reported
#: timings are what the measured work would have taken at that speed.
REFERENCE_BLOCK_S = 0.0018

#: Toy instructions per block.
_STEPS = 4000


class _Lane:
    __slots__ = ("pc", "acc", "ready")

    def __init__(self, pc: int):
        self.pc = pc
        self.acc = pc
        self.ready = 0


def _work(steps: int) -> int:
    """A toy in-order scheduler over a fixed program: deterministic, and
    about as branchy and lookup-heavy as the simulator's issue loop."""
    program = [("add", 3), ("mul", 5), ("ld", 7), ("br", 2), ("st", 1),
               ("add", 11), ("ld", 13), ("br", 4)]
    latency = {"add": 1, "mul": 3, "ld": 9, "st": 2, "br": 1}
    memory: dict[int, int] = {}
    lanes = [_Lane(i % len(program)) for i in range(16)]
    history: list[tuple[int, str]] = []
    cycle = checksum = 0
    while steps > 0:
        cycle += 1
        for lane in lanes:
            if lane.ready > cycle:
                continue
            op, arg = program[lane.pc]
            if op == "add":
                lane.acc = (lane.acc + arg) & 0xFFFF
            elif op == "mul":
                lane.acc = (lane.acc * arg) & 0xFFFF
            elif op == "ld":
                lane.acc ^= memory.get((lane.acc + arg) & 255, arg)
            elif op == "st":
                memory[lane.acc & 255] = lane.acc
            lane.pc = (arg if op == "br" and lane.acc & 1 else lane.pc + 1) \
                % len(program)
            lane.ready = cycle + latency[op]
            history.append((cycle, op))
            steps -= 1
        if len(history) > 512:
            checksum ^= hash(tuple(sorted(history[-64:])))
            del history[:]
    return checksum ^ sum(memory.values())


def block() -> float:
    """CPU seconds taken by one block of the reference work.

    The garbage collector is off meanwhile: a collection would walk the
    program's objects, and make the block's time depend on the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _work(_STEPS)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference the host ran the blocks timed
    in ``samples`` (1.0: as fast; 1.5: half as fast again)."""
    return statistics.fmean(samples) / REFERENCE_BLOCK_S


class Speedometer:
    """Blocks of the reference work, timed while other work is measured."""

    def __init__(self):
        self.samples: list[float] = []
        #: Wall seconds spent in blocks, for work that shares the
        #: interpreter with them to leave out.
        self.busy_s = 0.0

    def tick(self) -> None:
        """One block, between two pieces of work of the same thread."""
        start = time.perf_counter()
        self.samples.append(block())
        self.busy_s += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self, period_s: float = 0.05, *, share_core: bool = False):
        """One block every ``period_s`` in a thread of its own, while the
        measured work runs in other processes or, with ``share_core``, in
        the calling thread.

        The host's speed differs between its cores, so a thread measuring
        the work of another thread of this process is held to that
        thread's core: both are pinned to one core for the duration.
        """
        stop = threading.Event()
        allowed = os.sched_getaffinity(0)
        if share_core:
            os.sched_setaffinity(0, {min(allowed)})

        def loop():
            self.tick()
            while not stop.wait(period_s):
                self.tick()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
            if share_core:
                os.sched_setaffinity(0, allowed)

    def slowdown(self) -> float:
        return slowdown(self.samples)
