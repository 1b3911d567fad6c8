"""Run (benchmark × defense) pairs through the full stack.

One run = generate the workload trace against the defense (trace-mode
machine, Python-side allocator bookkeeping; :func:`generate_trace`),
then replay the trace on the cycle-level out-of-order core against a
fresh REST-extended memory hierarchy with the right token width and
operating mode (:func:`replay_trace`).  Runtime is the cycle count;
overheads are runtimes normalised to the Plain run of the same
benchmark and seed.

Experiments declare the runs they need as :class:`Cell` values;
:func:`simulate_cells` runs each distinct cell once and generates each
distinct trace once (the operating mode only reaches replay).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cache.hierarchy import HierarchyStats, MemoryHierarchy
from repro.core.modes import Mode
from repro.core.token import Token, TokenConfigRegister
from repro.cpu.isa import MicroOp
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

    def to_values(self) -> dict:
        """JSON-safe form of every counter (a cell's cached value)."""
        return {
            "core": asdict(self.core_stats),
            "workload": asdict(self.workload_stats),
            "hierarchy": asdict(self.hierarchy_stats),
            "l1d_miss_rate": self.l1d_miss_rate,
            "l2_miss_rate": self.l2_miss_rate,
        }

    @classmethod
    def from_values(
        cls, benchmark: str, spec: DefenseSpec, values: dict
    ) -> "RunResult":
        """Inverse of :meth:`to_values`."""
        core = CoreStats(**values["core"])
        workload = WorkloadStats(**values["workload"])
        return cls(
            benchmark=benchmark,
            spec=spec,
            cycles=core.cycles,
            instructions=core.committed,
            app_instructions=workload.app_instructions,
            core_stats=core,
            workload_stats=workload,
            hierarchy_stats=HierarchyStats(**values["hierarchy"]),
            l1d_miss_rate=values["l1d_miss_rate"],
            l2_miss_rate=values["l2_miss_rate"],
        )


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


def generate_trace(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: SimulationConfig,
) -> Tuple[List[MicroOp], WorkloadStats]:
    """Phase 1: the workload's uop trace through the defense's software
    stack, plus the generator's statistics.

    Depends on every spec field except ``name`` and ``mode`` (see
    :func:`trace_key`), so cells differing only in those replay one
    trace.
    """
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
    return trace_machine.take_trace(), workload_stats


def replay_trace(
    profile: BenchmarkProfile,
    spec: DefenseSpec,
    config: SimulationConfig,
    trace: List[MicroOp],
    workload_stats: WorkloadStats,
    core_config=None,
    on_sample: Optional[Callable] = None,
    sample_interval: Optional[int] = None,
) -> RunResult:
    """Phase 2: replay ``trace`` on the cycle-level core against a fresh
    REST-extended hierarchy.  The trace can be replayed again: the core
    only restamps each uop's ``seq``."""
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
    trace, workload_stats = generate_trace(profile, spec, config)
    return replay_trace(
        profile,
        spec,
        config,
        trace,
        workload_stats,
        core_config=core_config,
        on_sample=on_sample,
        sample_interval=sample_interval,
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
    already present or disabled.  Pairs that simulate the same cell
    run once (see :func:`simulate_cells`).
    """
    cells = suite_cells(
        profiles, specs, config or SimulationConfig(), include_plain
    )
    return suite_results(cells, progress=progress)


# -- simulation cells --------------------------------------------------------


class Cell(NamedTuple):
    """One simulation an experiment needs: benchmark x defense x config."""

    profile: BenchmarkProfile
    spec: DefenseSpec
    config: SimulationConfig


def _digest(payload) -> str:
    body = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:32]


def spec_content(spec: DefenseSpec) -> dict:
    """The spec's cache payload without its display ``name``."""
    payload = spec.key_payload()
    del payload["name"]
    return payload


def config_key(config: SimulationConfig) -> str:
    """Content key of a simulation config."""
    return _digest(config.key_payload())


def cell_key(cell: Cell) -> str:
    """Content key of a cell: equal keys simulate to equal results,
    whatever the experiment calls the spec."""
    return _digest(
        {
            "profile": cell.profile.name,
            "spec": spec_content(cell.spec),
            "config": cell.config.key_payload(),
        }
    )


def trace_key(cell: Cell) -> str:
    """Content key of a cell's trace: :func:`generate_trace` reads
    neither the spec's ``name`` nor its ``mode``, nor the config's
    core, hierarchy or token seed."""
    spec = spec_content(cell.spec)
    del spec["mode"]
    config = cell.config
    return _digest(
        {
            "profile": cell.profile.name,
            "spec": spec,
            "workload": [config.seed, config.scale, config.alloc_intensity],
        }
    )


def simulate_cells(
    cells: Sequence[Cell], progress: Optional[Callable[[str], None]] = None
) -> Dict[str, dict]:
    """Simulate each distinct cell once; returns {cell_key: values}.

    Cells are grouped by :func:`trace_key`: each trace is generated
    once, replayed for every distinct cell that shares it, then
    dropped, so at most one trace is alive at a time.  ``values`` is
    :meth:`RunResult.to_values` of a cell's run, identical to what
    :func:`run_benchmark` would have produced for it.
    """
    groups: Dict[str, Dict[str, Cell]] = {}
    for cell in cells:
        groups.setdefault(trace_key(cell), {}).setdefault(cell_key(cell), cell)
    values: Dict[str, dict] = {}
    for group in groups.values():
        first = next(iter(group.values()))
        trace, workload_stats = generate_trace(
            first.profile, first.spec, first.config
        )
        for key, cell in group.items():
            if progress is not None:
                progress(f"{cell.profile.name} / {cell.spec.name}")
            values[key] = replay_trace(
                cell.profile, cell.spec, cell.config, trace, workload_stats
            ).to_values()
        del trace  # before the next group's trace is generated
    return values


def suite_cells(
    profiles: Sequence[BenchmarkProfile],
    specs: Sequence[DefenseSpec],
    config: SimulationConfig,
    include_plain: bool = True,
) -> List[Cell]:
    """The cells of :func:`run_suite` over the same arguments."""
    all_specs: List[DefenseSpec] = list(specs)
    if include_plain and not any(s.defense == "plain" for s in all_specs):
        all_specs.insert(0, DefenseSpec.plain())
    return [
        Cell(profile, spec, config)
        for profile in profiles
        for spec in all_specs
    ]


def cell_result(cell: Cell, values: Dict[str, dict]) -> RunResult:
    """The :class:`RunResult` of one cell out of a values mapping."""
    return RunResult.from_values(
        cell.profile.name, cell.spec, values[cell_key(cell)]
    )


def suite_results(
    cells: Sequence[Cell],
    values: Optional[Dict[str, dict]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """results[bench][spec name], shaped like :func:`run_suite`'s.

    ``values`` holds already-simulated cells (a sweep's shard results);
    without it the cells are simulated here, in-process.
    """
    if values is None:
        values = simulate_cells(cells, progress)
    results: Dict[str, Dict[str, RunResult]] = {}
    for cell in cells:
        results.setdefault(cell.profile.name, {})[cell.spec.name] = (
            cell_result(cell, values)
        )
    return results
