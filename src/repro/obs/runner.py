"""Observed runs: simulate with full observability, write artifacts.

``python -m repro run`` lands here.  One invocation runs a benchmark
under the standard defense modes with a recording tracer and the
interval sampler attached, and writes a self-describing output
directory::

    <outdir>/
      run.json              summary: config, per-mode cycles/CPI and
                            verified stall buckets, artifact paths
      stats-<mode>.txt      full gem5-style stats dump (incl. stalls)
      samples-<mode>.jsonl  interval time series (always)
      events-<mode>.jsonl   structured event trace (--trace-out)
      o3-<mode>.trace       gem5 O3PipeView pipeline trace (--o3)

``repro report <outdir>`` renders the directory as a text or HTML
dashboard (see :mod:`repro.obs.report`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.sampler import DEFAULT_INTERVAL, run_sampled
from repro.obs.stalls import format_stall_line, verify_buckets
from repro.obs.tracer import RingTracer, attach_tracer, write_jsonl


def run_observed(
    outdir: Union[str, Path],
    benchmark: str = "xalancbmk",
    modes: Optional[List[str]] = None,
    scale: float = 0.2,
    seed: int = 1234,
    interval: int = DEFAULT_INTERVAL,
    ring_capacity: int = 1 << 16,
    events: bool = False,
    o3: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    diff: Optional[Tuple[str, str]] = None,
) -> Dict:
    """Run ``benchmark`` under each mode with observability attached.

    Returns the ``run.json`` payload (also written to disk).  Event
    and O3PipeView export are opt-in because they record per-uop data;
    sampling and stall accounting are always on — they are cheap.

    ``diff=(mode_a, mode_b)`` additionally builds the trace-diff/v1
    artifact (``trace-diff.json``, see :mod:`repro.obs.diff`) from the
    two modes' event streams before ``run.json`` is written; requires
    ``events=True``.
    """
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.harness.bench import BENCH_MODES, bench_specs
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import (
        RunResult,
        _make_hierarchy,
        build_defense,
        make_trace_machine,
    )
    from repro.harness.statsdump import format_stats
    from repro.obs.o3 import export_o3_pipeview
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.spec import profile_by_name

    if diff is not None and not events:
        raise ValueError(
            "diff needs the per-uop event streams: use events=True "
            "(`repro run --trace-out`)"
        )

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    specs = bench_specs()
    mode_names = list(modes) if modes else list(BENCH_MODES)
    for name in mode_names:
        if name not in specs:
            raise ValueError(
                f"unknown mode {name!r}; known: {', '.join(specs)}"
            )
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)

    payload: Dict = {
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "interval": interval,
        "modes": {},
    }
    for name in mode_names:
        spec = specs[name]
        tracer = RingTracer(ring_capacity) if (events or o3) else None

        # Phase 1: generate the trace (tracer sees alloc.arm/disarm &
        # malloc/free events stamped with the trace position).
        machine = make_trace_machine(spec)
        if tracer is not None:
            machine.tracer = tracer
        defense = build_defense(machine, spec)
        workload_stats = SyntheticWorkload(
            profile,
            defense,
            seed=config.seed,
            scale=config.scale,
            alloc_intensity=config.alloc_intensity,
        ).run()
        trace = machine.take_trace()

        # Phase 2: replay with sampler (+ tracer) attached.
        hierarchy = _make_hierarchy(spec, config)
        core = OutOfOrderCore(hierarchy, config=config.core)
        if tracer is not None:
            attach_tracer(core, tracer)
        stats, samples = run_sampled(core, trace, interval=interval)
        buckets = verify_buckets(stats)

        result = RunResult(
            benchmark=profile.name,
            spec=spec,
            cycles=stats.cycles,
            instructions=stats.committed,
            app_instructions=workload_stats.app_instructions,
            core_stats=stats,
            workload_stats=workload_stats,
            hierarchy_stats=hierarchy.stats,
            l1d_miss_rate=hierarchy.l1d.stats.miss_rate,
            l2_miss_rate=hierarchy.l2.stats.miss_rate,
        )

        entry: Dict = {
            "defense": spec.name,
            "cycles": stats.cycles,
            "committed": stats.committed,
            "cpi": round(stats.cpi, 4),
            "buckets": buckets,
            "samples_file": f"samples-{name}.jsonl",
            "stats_file": f"stats-{name}.txt",
            "sample_count": len(samples),
        }
        write_jsonl(samples, out / entry["samples_file"])
        (out / entry["stats_file"]).write_text(format_stats(result) + "\n")
        if tracer is not None:
            entry["event_counts"] = tracer.counts()
            entry["events_emitted"] = tracer.emitted
            entry["events_dropped"] = tracer.dropped
        if events and tracer is not None:
            entry["events_file"] = f"events-{name}.jsonl"
            write_jsonl(tracer.events(), out / entry["events_file"])
        if o3 and tracer is not None:
            entry["o3_file"] = f"o3-{name}.trace"
            entry["o3_records"] = export_o3_pipeview(
                tracer.events(), out / entry["o3_file"]
            )
        payload["modes"][name] = entry
        if progress is not None:
            progress(
                f"{name:12s} {stats.cycles:>10,} cycles  "
                f"CPI {stats.cpi:.2f}  {len(samples)} samples"
            )
            progress(f"{'':12s} {format_stall_line(stats)}")
    if diff is not None:
        from repro.obs.diff import build_trace_diff, write_trace_diff

        mode_a, mode_b = diff
        artifact = build_trace_diff(
            out, mode_a, mode_b, run=payload
        )
        write_trace_diff(artifact, out / "trace-diff.json")
        payload["diff_file"] = "trace-diff.json"
        if progress is not None:
            al = artifact["alignment"]
            progress(
                f"{'diff':12s} {mode_a} vs {mode_b}: "
                f"{artifact['delta']['cycles']:+,} cycles, "
                f"{al['pairs']:,} aligned / {al['b_only']:,} inserted "
                f"-> trace-diff.json"
            )
    (out / "run.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return payload
