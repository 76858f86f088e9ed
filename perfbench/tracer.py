"""Outside-in layer tracing: wrap calls into each layer's public functions.

The simulator carries no tracing of its own.  :class:`Tracer` replaces a
fixed list of public functions and methods (``TARGETS``) with timing
wrappers, and puts every original back when the traced region ends.  Each
wrapper records a span: the wall time of the call, and its *self* time,
which is the span minus the spans of wrapped calls made inside it.  A
call whose caller is a span of the same name (a subclass override calling
``super()``, or recursion) is folded into that span.

Module-level functions are rebound in every loaded ``repro`` module that
imported them by name, so ``from x import f`` call sites see the wrapper
too.  Span totals stay in memory on the :class:`Tracer`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


def _launch_name(args) -> str:
    return f"sim.gpu.launch.{args[0].cfg.arch}"


def _count_issuing(tracer: "Tracer", args, result) -> None:
    if result:
        tracer.counts["sim.smcore.issuing_steps"] += 1


def _count_ff_cycles(tracer: "Tracer", args, result) -> None:
    tracer.counts["sim.smcore.ff_cycles"] += args[2] - args[1]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:qualname`` and its span name."""

    module: str
    qualname: str
    span: str
    name_of: object = None  # args -> span name, for per-argument spans
    observe: object = None  # (tracer, args, result) -> None

    def owner(self):
        obj = importlib.import_module(self.module)
        *path, _ = self.qualname.split(".")
        for part in path:
            obj = getattr(obj, part)
        return obj

    @property
    def attr(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


#: Functions that run while the kernels are imported (each kernel is
#: assembled at import): wrap these before ``repro.kernels`` loads.
STARTUP_TARGETS = (
    Target("repro.isa.assembler", "assemble", "isa.assemble"),
    Target("repro.isa.cfg", "reconvergence_table", "isa.reconvergence"),
)

#: Every layer boundary the traced pass measures.
TARGETS = STARTUP_TARGETS + (
    Target("repro.analysis.orchestrator", "run_sweep", "orchestrator.sweep"),
    Target("repro.analysis.runner", "run_benchmark", "runner.cell"),
    Target("repro.sim.gpu", "GPU.launch", "sim.gpu.launch",
           name_of=_launch_name),
    Target("repro.sim.smcore", "SMCore.step", "sim.smcore.step",
           observe=_count_issuing),
    Target("repro.sim.smcore", "SMCore.fast_forward", "sim.smcore.ff",
           observe=_count_ff_cycles),
    Target("repro.sim.ctamanager", "CTAManagerBase.can_accept",
           "sim.ctamanager.can_accept"),
    Target("repro.sim.ctamanager", "BaselineManager.can_accept",
           "sim.ctamanager.can_accept"),
    Target("repro.sim.ctamanager", "IdealSchedManager.can_accept",
           "sim.ctamanager.can_accept"),
    Target("repro.core.vt", "VirtualThreadManager.can_accept",
           "sim.ctamanager.can_accept"),
    Target("repro.core.vt", "VirtualThreadManager.update", "core.vt.update"),
    Target("repro.sim.memsys", "MemoryModel.read", "sim.memsys.read"),
    Target("repro.sim.memsys", "MemoryModel.write", "sim.memsys.write"),
    Target("repro.sim.stats", "SimStats.to_dict", "sim.stats.to_dict"),
    Target("repro.analysis.journal", "Journal.append", "journal.append"),
    Target("repro.store.cas", "ResultStore.put", "store.put"),
    Target("repro.store.cas", "ResultStore.get", "store.get"),
    Target("repro.store.cas", "ResultStore.write_artifact", "store.artifact"),
    Target("repro.isa.analysis.perf", "predict_kernel", "isa.analysis.predict"),
    Target("repro.isa.analysis.bounds", "bench_bounds", "isa.analysis.bound"),
    Target("repro.isa.analysis.lint", "lint_kernel", "isa.analysis.lint"),
)


#: Spans whose individual durations are kept (for percentiles).
SAMPLED = frozenset({"runner.cell"})


class Tracer:
    """Span totals per name, plus the patches needed to undo the wrapping."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [span name, child time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, target: Target):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.name_of(args) if target.name_of else target.span
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.counts[name] += 1
                self.wall[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if name in SAMPLED:
                    self.samples[name].append(elapsed)
            if target.observe is not None:
                target.observe(self, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_prepare(self, bench):
        """Wrap a benchmark's ``prepare`` and the ``check`` it returns."""
        wrapped = self._wrap(bench.prepare, Target(
            "repro.kernels.base", "Benchmark.prepare", "kernels.prepare"))
        check_target = Target("repro.kernels.base", "Prepared.check",
                              "kernels.check")

        def prepare(scale):
            prepared = wrapped(scale)
            prepared.check = self._wrap(prepared.check, check_target)
            return prepared

        prepare.__perfbench_original__ = bench.prepare
        return prepare

    # -- install / restore ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        _assign(owner, attr, value)

    def install(self, targets=TARGETS, benchmarks=()) -> None:
        """Wrap every target; also the ``prepare`` of each of ``benchmarks``."""
        for target in targets:
            owner = target.owner()
            original = vars(owner)[target.attr]
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._set(owner, target.attr, wrapper)
                continue
            for module in _repro_modules():
                if vars(module).get(target.attr) is original:
                    self._set(module, target.attr, wrapper)
        for bench in benchmarks:
            self._set(bench, "prepare", self._wrap_prepare(bench))

    def restore(self) -> None:
        """Put every original back, newest patch first.  Modules imported
        while the wrappers were installed bound them by name (the kernels
        import ``assemble``); those bindings are put back too."""
        while self._patches:
            _assign(*self._patches.pop())
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(module, attr, original)

    @contextlib.contextmanager
    def active(self, targets=TARGETS, benchmarks=()):
        """Install the wrappers for the duration of a ``with`` block."""
        self.install(targets, benchmarks)
        try:
            yield self
        finally:
            self.restore()

    # -- read-out ------------------------------------------------------------

    def attributed_s(self) -> float:
        """Total self time over every span: the wall the spans account for."""
        return sum(self.self_time.values())

    def percentile(self, name: str, pct: int) -> float:
        """The ``pct``-th percentile (a multiple of 10) of a span's wall."""
        values = self.samples.get(name, [])
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10, method="inclusive")[
            pct // 10 - 1]


def _assign(owner, attr: str, value) -> None:
    # Frozen dataclasses (Benchmark) refuse plain setattr.
    (setattr if isinstance(owner, type) else object.__setattr__)(
        owner, attr, value)


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


def wrapped_targets(targets=TARGETS, benchmarks=()) -> list[str]:
    """Bindings that still hold a tracer wrapper (empty once every original
    has been restored)."""
    left = [f"{t.module}:{t.qualname}" for t in targets
            if hasattr(vars(t.owner())[t.attr], "__perfbench_original__")]
    for module in _repro_modules():
        left += [f"{module.__name__}:{attr}" for attr, value
                 in list(vars(module).items())
                 if hasattr(value, "__perfbench_original__")]
    left += [f"{bench.name}.prepare" for bench in benchmarks
             if hasattr(bench.prepare, "__perfbench_original__")]
    return left
