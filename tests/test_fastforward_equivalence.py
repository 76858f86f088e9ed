"""Differential harness: the fast-forward engine is stats-exact.

The event-driven engine (``GPUConfig.fast_forward``) may only change
wall-clock time.  For every registered benchmark and every architecture,
``SimStats.to_dict()`` — cycle counts, the full idle-cycle breakdown,
occupancy samples, swap accounting, cache counters — must be *identical*
to the per-cycle reference engine, and the final memory image must match
bit-for-bit.  Watchdog behaviour must also be preserved: the hard cycle
limit and the progress deadline fire at reference-exact cycles instead of
being jumped over.
"""

import numpy as np
import pytest

from repro.kernels import all_benchmarks, get
from repro.sim.config import ArchMode, scaled_fermi
from repro.sim.gpu import GPU, SimulationTimeout
from repro.sim.watchdog import ProgressTracker

BENCHES = all_benchmarks()
SCALE = 0.25


def run(bench, arch, fast_forward, num_sms=1, **overrides):
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=num_sms, arch=arch, fast_forward=fast_forward,
                       **overrides)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    return result


@pytest.mark.parametrize("arch", ArchMode.ALL)
@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_stats_byte_identical(bench, arch):
    ref = run(bench, arch, fast_forward=False)
    fast = run(bench, arch, fast_forward=True)
    assert fast.stats.to_dict() == ref.stats.to_dict(), (bench.name, arch)
    assert np.array_equal(fast.gmem.data, ref.gmem.data), (bench.name, arch)


@pytest.mark.parametrize("arch", ArchMode.ALL)
@pytest.mark.parametrize("bench", BENCHES[:6], ids=lambda b: b.name)
def test_stats_byte_identical_multi_sm(bench, arch):
    """Two SMs exercise the round-robin dispatch/rr-offset interplay: the
    skipped-span rotation credit must leave CTA placement unchanged."""
    ref = run(bench, arch, fast_forward=False, num_sms=2)
    fast = run(bench, arch, fast_forward=True, num_sms=2)
    assert fast.stats.to_dict() == ref.stats.to_dict(), (bench.name, arch)


@pytest.mark.parametrize("policy", ["timeout", "majority-stalled"])
def test_vt_trigger_policies_byte_identical(policy):
    """The timeout trigger fires on a deadline with no status change — the
    manager horizon must surface it as an event."""
    bench = get("stride")
    ref = run(bench, "vt", fast_forward=False, vt_trigger_policy=policy)
    fast = run(bench, "vt", fast_forward=True, vt_trigger_policy=policy)
    assert fast.stats.to_dict() == ref.stats.to_dict(), policy


@pytest.mark.parametrize("scheduler", ["lrr", "two-level"])
def test_scheduler_policies_byte_identical(scheduler):
    bench = get("stride")
    ref = run(bench, "baseline", fast_forward=False, warp_scheduler=scheduler)
    fast = run(bench, "baseline", fast_forward=True, warp_scheduler=scheduler)
    assert fast.stats.to_dict() == ref.stats.to_dict(), scheduler


def test_fill_first_dispatch_byte_identical():
    bench = get("vecadd")
    ref = run(bench, "baseline", fast_forward=False, num_sms=2,
              cta_dispatch="fill-first")
    fast = run(bench, "baseline", fast_forward=True, num_sms=2,
               cta_dispatch="fill-first")
    assert fast.stats.to_dict() == ref.stats.to_dict()


@pytest.mark.parametrize("fast_forward", [False, True])
def test_hard_limit_not_jumped(fast_forward):
    """A span that would cross ``max_cycles`` must be truncated so the
    timeout fires instead of being skipped over."""
    bench = get("stride")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=1, fast_forward=fast_forward)
    with pytest.raises(SimulationTimeout):
        GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params,
                        max_cycles=300)


def test_small_progress_window_identical():
    """With a window just above the longest real stall, the watchdog stays
    quiet under both engines and stats still match (the span observer must
    advance ``last_progress`` exactly like per-cycle observation)."""
    bench = get("stride")
    ref = run(bench, "baseline", fast_forward=False, progress_window=2000)
    fast = run(bench, "baseline", fast_forward=True, progress_window=2000)
    assert fast.stats.to_dict() == ref.stats.to_dict()


def test_observe_span_matches_observe_sequence():
    """ProgressTracker.observe_span must be indistinguishable from the
    equivalent run of dead-cycle observe() calls."""
    per_cycle = ProgressTracker(window=100)
    spanned = ProgressTracker(window=100)
    for t in (0, 1, 2):
        per_cycle.observe(t, issued=1, swap_busy=False, dispatched=False,
                          mem_horizon=40)
        spanned.observe(t, issued=1, swap_busy=False, dispatched=False,
                        mem_horizon=40)
    # Dead cycles 3..30: the horizon (40) counts as progress up to 39.
    for t in range(3, 30):
        per_cycle.observe(t, issued=0, swap_busy=False, dispatched=False,
                          mem_horizon=40)
    spanned.observe_span(3, 30, swap_busy=False)
    assert spanned.last_progress == per_cycle.last_progress
    assert spanned.stall_deadline() == per_cycle.stall_deadline()
    # A swap-busy span counts every cycle as progress.
    for t in range(30, 35):
        per_cycle.observe(t, issued=0, swap_busy=True, dispatched=False,
                          mem_horizon=0)
    spanned.observe_span(30, 35, swap_busy=True)
    assert spanned.last_progress == per_cycle.last_progress


def test_sanitize_pins_reference_path():
    """cfg.sanitize forces the per-cycle engine even when fast_forward is
    on; the run must still match the reference engine's stats."""
    bench = get("vecadd")
    ref = run(bench, "vt", fast_forward=False)
    sanitized = run(bench, "vt", fast_forward=True, sanitize=True)
    assert sanitized.stats.to_dict() == ref.stats.to_dict()


def test_results_still_correct_under_fast_forward():
    """End to end: the benchmark's own numerical check passes on the fast
    engine (functional behaviour untouched, not just stats)."""
    bench = get("stride")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=2, arch="vt", fast_forward=True)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
