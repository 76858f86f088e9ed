"""Golden digests for Virtual Thread runs.

Each cell's ``stats_digest(SimStats.to_dict())`` is pinned to the value
the simulator produced before the VT manager stopped polling every cycle
(the event-driven readiness horizon in :mod:`repro.core.vt`), under both
the per-cycle reference engine and the fast-forward engine.  The 2-SM
cells really swap (``swaps > 0``), so a horizon that is too late — a swap
fired a cycle after the reference would fire it — changes the digest.
``chase`` on 8 SMs covers a VT launch that never seats an INACTIVE CTA,
where ``update`` returns at once on every cycle.
"""

import pytest

from repro.kernels import get
from repro.sim import parallel
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU
from repro.store.cas import stats_digest

#: cell -> (kernel, scale, num_sms, config overrides).  A pruned
#: trigger x selection x scheduler matrix: every trigger/selection pair
#: under GTO, plus LRR and two-level crossed with one pair each.
CELLS = {
    f"hotspot/{trigger}/{select}/gto": (
        "hotspot", 0.5, 2,
        {"vt_trigger_policy": trigger, "vt_select_policy": select})
    for trigger in ("all-stalled", "majority-stalled", "timeout")
    for select in ("oldest-ready", "most-ready", "most-recent")
}
CELLS.update({
    "hotspot/all-stalled/oldest-ready/lrr": (
        "hotspot", 0.5, 2, {"warp_scheduler": "lrr"}),
    "hotspot/all-stalled/oldest-ready/two-level": (
        "hotspot", 0.5, 2, {"warp_scheduler": "two-level"}),
    "hotspot/majority-stalled/most-recent/lrr": (
        "hotspot", 0.5, 2, {"vt_trigger_policy": "majority-stalled",
                            "vt_select_policy": "most-recent",
                            "warp_scheduler": "lrr"}),
    "hotspot/timeout/most-ready/two-level": (
        "hotspot", 0.5, 2, {"vt_trigger_policy": "timeout",
                            "vt_select_policy": "most-ready",
                            "warp_scheduler": "two-level"}),
    "stride/all-stalled/oldest-ready/gto": ("stride", 0.75, 2, {}),
    "stride/timeout/most-recent/gto": (
        "stride", 0.75, 2, {"vt_trigger_policy": "timeout",
                            "vt_select_policy": "most-recent"}),
    "chase/8sm": ("chase", 0.25, 8, {}),
})

GOLDEN = {
    "hotspot/all-stalled/oldest-ready/gto": "sha256:abec35d58c2189e80a8b6264a619f8a1b3848efc45733346b4293f12b8e2d298",
    "hotspot/all-stalled/most-ready/gto": "sha256:abec35d58c2189e80a8b6264a619f8a1b3848efc45733346b4293f12b8e2d298",
    "hotspot/all-stalled/most-recent/gto": "sha256:4308cee606dbc09d29c43d6b78769ee76703ae7720a2b6a500ebe1342517757e",
    "hotspot/majority-stalled/oldest-ready/gto": "sha256:abec35d58c2189e80a8b6264a619f8a1b3848efc45733346b4293f12b8e2d298",
    "hotspot/majority-stalled/most-ready/gto": "sha256:abec35d58c2189e80a8b6264a619f8a1b3848efc45733346b4293f12b8e2d298",
    "hotspot/majority-stalled/most-recent/gto": "sha256:4308cee606dbc09d29c43d6b78769ee76703ae7720a2b6a500ebe1342517757e",
    "hotspot/timeout/oldest-ready/gto": "sha256:b60c3440c46883b25e2da660eb4460f2594fa98b2a2d2e2bbf989d272455df3b",
    "hotspot/timeout/most-ready/gto": "sha256:b60c3440c46883b25e2da660eb4460f2594fa98b2a2d2e2bbf989d272455df3b",
    "hotspot/timeout/most-recent/gto": "sha256:dce7fa46dbf9ea56a1b87a65531b6b1e47fed9968587463c7e9159639d172215",
    "hotspot/all-stalled/oldest-ready/lrr": "sha256:d556b6ce4c5fa6d6549b262d070bd27ccce05a656e1c73f7ccf45385c0449b2b",
    "hotspot/all-stalled/oldest-ready/two-level": "sha256:dc947dfcadb8dd7b5450612b60e578cb73b1a964981f97fc44d638ae519192b0",
    "hotspot/majority-stalled/most-recent/lrr": "sha256:af0437666a0cc76a5b5149e903044b8cb7d6729454d590a04b6725cda3a38671",
    "hotspot/timeout/most-ready/two-level": "sha256:a4fc4e2b9b6121d6bd672eae38273ad205f24680fc653b7d0516b0b14cfb582a",
    "stride/all-stalled/oldest-ready/gto": "sha256:5aba84cfd257f7f610a843196bc706e266cd4f5bb740a5436c072d96d4899068",
    "stride/timeout/most-recent/gto": "sha256:d800d5ae30f1da6523b1510b1143f50da81cbfe6d8d718a9df75b43c566010c7",
    "chase/8sm": "sha256:c7b23bfbb9754012adfc7efb1f0a9edbcfc4c7ba09d4e1b2b3acb0c60191145a",
}


def run_cell(cell: str, **engine):
    name, scale, num_sms, overrides = CELLS[cell]
    bench = get(name)
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=num_sms, arch="vt", **overrides, **engine)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
    return result.stats


@pytest.mark.parametrize("fast_forward", [False, True])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_vt_digest_pinned(cell, fast_forward):
    stats = run_cell(cell, fast_forward=fast_forward)
    if CELLS[cell][2] == 2:
        assert stats.total_swaps > 0, f"{cell} never swaps: the pin is vacuous"
    assert stats_digest(stats.to_dict()) == GOLDEN[cell]


def test_parallel_patch_refreshes_readiness_horizon(monkeypatch):
    """The sharded engine hands out sentinel completions inside an epoch.
    A victim that goes INACTIVE while its loads are deferred gets a
    sentinel-derived readiness horizon, which is too late; the boundary
    patch must pull it back to the exact cycle, or the swap that the
    serial engine fires at that cycle is missed."""
    cell = "stride/all-stalled/oldest-ready/gto"
    pulled_back = []
    original = parallel._Shard._patch_core

    def spying(self, core, actuals):
        before = core.sm.manager._ready_at
        original(self, core, actuals)
        after = core.sm.manager._ready_at
        if after < before and before >= parallel.SENTINEL_BASE:
            pulled_back.append((core.sm.sm_id, before, after))

    monkeypatch.setattr(parallel._Shard, "_patch_core", spying)
    monkeypatch.setattr(parallel, "_STRICT", True)
    stats = run_cell(cell, engine="parallel", sim_jobs=1)
    assert pulled_back, "no INACTIVE victim had epoch-deferred loads"
    assert stats_digest(stats.to_dict()) == GOLDEN[cell]
