"""One benchmark process: set a workload up, then measure or trace it.

``run.py`` starts this file in a fresh interpreter with ``src`` on
``PYTHONPATH``, once per set-up sample and once for the measured (or
traced) run, and reads the JSON object it prints as its last line of
standard output::

    python3 perfbench/child.py --role {setup,measure,trace} \\
        --workload W --seed N --seconds S --workdir DIR

* ``setup``   sets the workload up and reports when its first cell would
  be submitted, then exits.  It and ``measure`` time
  ``SETUP_CALIBRATION_BLOCKS`` calibration blocks (see :mod:`calibrate`)
  just before the set-up and as many just after, on the same core, and
  report them with the seconds the first ones took.
* ``measure`` sets up, runs whole passes over every cell for about
  ``--seconds`` seconds (at least one pass), checks every cell, and
  reports the end-to-end metrics.
* ``trace``   does what ``measure`` does untraced, then up to
  ``TRACED_PASSES`` passes with the layer wrappers of :mod:`tracer`
  installed, and reports the per-layer metrics.

Only ``sys`` is imported at module level: spawned sweep workers re-import
this file as their main module, and must not pay for more than a real
``repro sweep`` worker does.
"""

import sys

#: Most traced passes per run; a run traces as many passes as it measured
#: untraced, up to this, so short passes still give a stable overhead.
TRACED_PASSES = 5
#: Calibration blocks on each side of the set-up; about 30 ms each way.
SETUP_CALIBRATION_BLOCKS = 10


def measured_phase(workload, seconds: float, speedometer) -> tuple[list, float]:
    """Whole passes, timed beside ``speedometer``'s calibration blocks,
    until another one would overrun ``seconds``, and the peak RSS after
    set-up and the first pass.

    The peak is read after a fixed amount of work: later passes can raise
    it further as garbage piles up, and their number depends on timing.
    """
    import time

    passes = []
    start = time.perf_counter()
    while True:
        result = workload.run_pass(speedometer=speedometer)
        passes.append(result)
        if len(passes) == 1:
            rss_mb = peak_rss_mb()
        if time.perf_counter() - start + result.wall_s > seconds:
            return passes, rss_mb


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes, rss_mb: float, slowdown: float) -> dict:
    """Throughput of the whole measured phase, at the reference host speed.

    ``slowdown`` is how much slower than the reference the host ran during
    the phase (see :mod:`calibrate`); the host changes speed in phases
    longer than a run, so raw rates of the same code differ by half from
    one run to the next, and scaled rates far less.
    """
    import workloads

    wall = sum(p.wall_s for p in passes)
    return {
        "cells_per_s": sum(len(p.outcomes) for p in passes) / wall * slowdown,
        "sim_kinst_per_s": (sum(p.instructions for p in passes) / wall
                            / 1000.0 * slowdown),
        "peak_rss_mb": rss_mb,
        "vt_speedup": workloads.vt_speedup(passes[0].outcomes),
    }


def per_layer(workload, startup, tracer, traced: list, ref_wall: float,
              isolated=None) -> dict:
    """Layer metrics per traced pass (see the README for definitions).

    Counts and times are averaged over the ``traced`` passes; ``ref_wall``
    is the untraced wall of one pass of the same cells in this process.
    """
    import statistics
    from collections import defaultdict

    import workloads

    runs = len(traced)
    count = defaultdict(int, {k: v / runs for k, v in tracer.counts.items()})
    own = defaultdict(float,
                      {k: v / runs for k, v in tracer.self_time.items()})
    model = workloads.model_metrics(traced[0].outcomes)
    cycles = model["model.cycles"]
    steps = count["sim.smcore.step"]
    launch_wall = sum(tracer.wall[f"sim.gpu.launch.{arch}"]
                      for arch in workloads.ARCHS) / runs
    store = traced[0].store_stats or {}
    hits = store.get("hits", 0)
    lookups = hits + store.get("misses", 0)
    traced_wall = statistics.median(p.wall_s for p in traced)
    cells = len(workload.cells)
    metrics = {
        "orchestrator.sweep_s": own["orchestrator.sweep"],
        "orchestrator.workers_started": (isolated.workers_started
                                         if isolated else 0),
        "orchestrator.isolation_cost_ratio": (isolated.wall_s / ref_wall
                                              if isolated else 0.0),
        "orchestrator.overhead_per_cell_s": (
            (workloads.JOBS * isolated.wall_s - ref_wall) / cells
            if isolated else 0.0),
        "runner.cell_p50_s": tracer.percentile("runner.cell", 50),
        "runner.cell_p90_s": tracer.percentile("runner.cell", 90),
        "kernels.prepare_s": own["kernels.prepare"],
        "kernels.check_s": own["kernels.check"],
        "isa.assemble_calls": (startup.counts["isa.assemble"]
                               + count["isa.assemble"]),
        "isa.assemble_s": (startup.self_time["isa.assemble"]
                           + own["isa.assemble"]),
        "isa.reconvergence_s": (startup.self_time["isa.reconvergence"]
                                + own["isa.reconvergence"]),
        "isa.analysis.predict_s": own["isa.analysis.predict"],
        "isa.analysis.bound_s": own["isa.analysis.bound"],
        "isa.analysis.lint_s": own["isa.analysis.lint"],
        **{f"sim.gpu.launch_s.{arch}": own[f"sim.gpu.launch.{arch}"]
           for arch in workloads.ARCHS},
        "sim.gpu.host_us_per_cycle": (launch_wall / cycles * 1e6
                                      if cycles else 0.0),
        "sim.smcore.step_calls": steps,
        "sim.smcore.step_s": own["sim.smcore.step"],
        "sim.smcore.steps_per_cycle": steps / cycles if cycles else 0.0,
        "sim.smcore.issuing_step_ratio": (
            count["sim.smcore.issuing_steps"] / steps if steps else 0.0),
        "sim.smcore.ff_calls": count["sim.smcore.ff"],
        "sim.smcore.ff_cycles": count["sim.smcore.ff_cycles"],
        "sim.ctamanager.can_accept_calls": count["sim.ctamanager.can_accept"],
        "core.vt.update_calls": count["core.vt.update"],
        "core.vt.update_s": own["core.vt.update"],
        "core.vt.updates_per_swap": (count["core.vt.update"]
                                     / max(1, model["model.swaps"])),
        "sim.memsys.read_calls": count["sim.memsys.read"],
        "sim.memsys.write_calls": count["sim.memsys.write"],
        "sim.memsys.s": own["sim.memsys.read"] + own["sim.memsys.write"],
        "sim.stats.to_dict_s": own["sim.stats.to_dict"],
        "journal.append_calls": count["journal.append"],
        "journal.append_s": own["journal.append"],
        "store.put_calls": count["store.put"],
        "store.put_s": own["store.put"],
        "store.artifact_s": own["store.artifact"],
        "store.get_calls": count["store.get"],
        "store.get_s": own["store.get"],
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        **model,
        "trace.overhead_s": traced_wall - ref_wall,
        "trace.unattributed_share": 1.0 - tracer.attributed_s() / sum(
            p.wall_s for p in traced),
    }
    return metrics


def main(argv=None) -> int:
    import argparse
    import json
    import statistics
    import time
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import calibrate
    import tracer as tracing
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.workdir)
    startup = tracing.Tracer()
    setup_meter = calibrate.Speedometer()
    if args.role == "trace":
        # The kernels are assembled when the registry is imported.
        with startup.active(tracing.STARTUP_TARGETS):
            workload.setup()
    else:
        for _ in range(SETUP_CALIBRATION_BLOCKS):
            setup_meter.tick()
        workload.setup()
    submitted_at = time.monotonic()
    calibration_busy_s = setup_meter.busy_s
    if args.role != "trace":
        for _ in range(SETUP_CALIBRATION_BLOCKS):
            setup_meter.tick()
    setup = {"submitted_at": submitted_at,
             "setup_calibration_s": setup_meter.samples,
             "setup_calibration_busy_s": calibration_busy_s}
    if args.role == "setup":
        print(json.dumps(setup))
        return 0

    speedometer = calibrate.Speedometer()
    passes, rss_mb = measured_phase(workload, args.seconds, speedometer)
    failed = sum(workload.verify(p) for p in passes)
    outcomes = [o for p in passes for o in p.outcomes]
    digest = workloads.workload_digest(passes[0].outcomes)
    agree = all(workloads.workload_digest(p.outcomes) == digest for p in passes)
    report = {**setup,
              "pass_walls_s": [p.wall_s for p in passes],
              "calibration_s": speedometer.samples,
              "digest": digest, "errors": []}

    if args.role == "measure":
        metrics = end_to_end(passes, rss_mb, speedometer.slowdown())
    else:
        from repro.kernels.registry import all_benchmarks

        isolated = None
        checked = []
        if workload.name == "sweep-isolated":
            # The passes above ran in workers; time the same cells in this
            # process too, untraced, as the reference for the traced pass.
            isolated = passes[0]
            checked.append(workload.run_pass(in_process=True))
            ref_wall = checked[0].wall_s
        else:
            ref_wall = statistics.median(p.wall_s for p in passes)
        benches = all_benchmarks()
        tracer = tracing.Tracer()
        traced = [workload.run_pass(
            in_process=True,
            timed=lambda: tracer.active(tracing.TARGETS, benches))
            for _ in range(min(TRACED_PASSES, len(passes)))]
        left = tracing.wrapped_targets(tracing.TARGETS, benches)
        checked += traced
        for extra in checked:
            failed += workload.verify(extra)
            outcomes += extra.outcomes
            agree &= workloads.workload_digest(extra.outcomes) == digest
        metrics = per_layer(workload, startup, tracer, traced, ref_wall,
                            isolated)
        model_agrees = all(workloads.model_metrics(p.outcomes)
                           == workloads.model_metrics(passes[0].outcomes)
                           for p in traced)
        report["walls_s"] = {
            "traced": statistics.median(p.wall_s for p in traced),
            "untraced": ref_wall}
        agree &= model_agrees and not left
        if not model_agrees:
            report["errors"].append("model.* differ between the traced and "
                                    "untraced passes")
        if left:
            report["errors"].append(f"wrappers left installed: {left}")

    report["errors"] += sorted({f"{workloads.key_text(o.key)}: {o.error}"
                                for o in outcomes if not o.ok})
    report.update(attempted=len(outcomes), failed=failed,
                  correct=agree and failed == 0, metrics=metrics)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
