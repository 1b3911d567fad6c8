"""Run (benchmark × defense) pairs through the full stack.

One run = generate the workload trace against the defense (trace-mode
machine, Python-side allocator bookkeeping), then replay the trace on
the cycle-level out-of-order core against a fresh REST-extended memory
hierarchy with the right token width and operating mode.  Runtime is
the cycle count; overheads are runtimes normalised to the Plain run of
the same benchmark and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.modes import Mode
from repro.core.token import Token, TokenConfigRegister
from repro.cpu.pipeline import OutOfOrderCore
from repro.cpu.stats import CoreStats
from repro.defenses import Defense
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.runtime.machine import ExecutionMode, Machine
from repro.workloads.generator import SyntheticWorkload, WorkloadStats
from repro.workloads.spec import BenchmarkProfile


@dataclass
class RunResult:
    """Everything one simulation run produced."""

    benchmark: str
    spec: DefenseSpec
    cycles: int
    instructions: int
    app_instructions: int
    core_stats: CoreStats
    workload_stats: WorkloadStats
    hierarchy_stats: object
    l1d_miss_rate: float
    l2_miss_rate: float

    @property
    def runtime(self) -> float:
        return float(self.cycles)

    @property
    def instruction_expansion(self) -> float:
        """Dynamic-instruction inflation caused by the defense."""
        if not self.app_instructions:
            return 1.0
        return self.instructions / self.app_instructions

    @property
    def tokens_per_kilo_at_memory(self) -> float:
        """Token lines crossing the L2/memory interface per 1k instrs
        (the paper reports 0.04 for xalanc secure-full)."""
        if not self.instructions:
            return 0.0
        crossings = getattr(self.hierarchy_stats, "tokens_at_memory_interface", 0)
        return crossings / (self.instructions / 1000.0)

    @property
    def stall_buckets(self):
        """Top-down stall decomposition of this run's cycles.

        The bucket values sum exactly to ``cycles`` (see
        :mod:`repro.obs.stalls`).
        """
        from repro.obs.stalls import stall_buckets

        return stall_buckets(self.core_stats)


def build_defense(machine: Machine, spec: DefenseSpec) -> Defense:
    """Instantiate the defense a spec describes, bound to a machine.

    Resolution goes through the plugin registry
    (:mod:`repro.defenses.plugin`), so any registered mode — including
    aliases like ``plain`` — works here, with the plugin's
    ``from_spec`` hook applying the spec's ablation toggles.
    """
    from repro.defenses.plugin import get_plugin

    return get_plugin(spec.defense).build(machine, spec)


def make_trace_machine(spec: DefenseSpec) -> Machine:
    """A trace-mode machine configured the way ``spec`` requires.

    Centralises the spec-to-machine knobs (perfect-hardware and
    software-REST limit studies, token width) that every trace-
    generating surface — bench, observed runs, experiments — must
    agree on.
    """
    machine = Machine(
        mode=ExecutionMode.TRACE,
        perfect_hw=spec.perfect_hw,
        software_rest=spec.defense == "softrest",
    )
    machine.token_width = spec.token_width
    return machine


def _make_hierarchy(spec: DefenseSpec, config: SimulationConfig) -> MemoryHierarchy:
    token = Token.random(spec.token_width, seed=config.token_seed)
    register = TokenConfigRegister(token, mode=spec.mode)
    return MemoryHierarchy(
        config=config.hierarchy, token_config=register
    )


def run_benchmark(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: Optional[SimulationConfig] = None,
    core_config=None,
    on_sample: Optional[Callable] = None,
    sample_interval: Optional[int] = None,
) -> RunResult:
    """Simulate one benchmark under one defense spec.

    ``on_sample`` routes the replay through the interval sampler
    (:func:`repro.obs.sampler.run_sampled`) and forwards each snapshot
    as it is taken — the live-telemetry path used by ``repro sweep
    --live`` and the job service.  The sampled replay is
    stats-identical to the plain one, so results (and cache entries)
    do not depend on whether a run was observed.
    """
    config = config or SimulationConfig()

    # Phase 1: generate the trace through the defense's software stack.
    trace_machine = make_trace_machine(spec)
    defense = build_defense(trace_machine, spec)
    workload = SyntheticWorkload(
        profile,
        defense,
        seed=config.seed,
        scale=config.scale,
        alloc_intensity=config.alloc_intensity,
    )
    workload_stats = workload.run()
    trace = trace_machine.take_trace()

    # Phase 2: replay on the cycle-level core with REST hardware.
    hierarchy = _make_hierarchy(spec, config)
    core = OutOfOrderCore(hierarchy, config=core_config or config.core)
    if on_sample is None:
        core_stats = core.run(trace)
    else:
        from repro.obs.sampler import DEFAULT_INTERVAL, run_sampled

        core_stats, _ = run_sampled(
            core,
            trace,
            interval=sample_interval or DEFAULT_INTERVAL,
            on_sample=on_sample,
        )

    return RunResult(
        benchmark=profile.name,
        spec=spec,
        cycles=core_stats.cycles,
        instructions=core_stats.committed,
        app_instructions=workload_stats.app_instructions,
        core_stats=core_stats,
        workload_stats=workload_stats,
        hierarchy_stats=hierarchy.stats,
        l1d_miss_rate=hierarchy.l1d.stats.miss_rate,
        l2_miss_rate=hierarchy.l2.stats.miss_rate,
    )


def run_suite(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    config: Optional[SimulationConfig] = None,
    include_plain: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (benchmark, spec) pair; returns results[bench][spec].

    A Plain baseline run is added automatically (key "Plain") unless
    already present or disabled.
    """
    config = config or SimulationConfig()
    all_specs: List[DefenseSpec] = list(specs)
    if include_plain and not any(s.defense == "plain" for s in all_specs):
        all_specs.insert(0, DefenseSpec.plain())
    results: Dict[str, Dict[str, RunResult]] = {}
    for profile in profiles:
        per_bench: Dict[str, RunResult] = {}
        for spec in all_specs:
            if progress is not None:
                progress(f"{profile.name} / {spec.name}")
            per_bench[spec.name] = run_benchmark(profile, spec, config)
        results[profile.name] = per_bench
    return results
