"""Simulator throughput benchmark (``python -m repro bench``).

Measures how fast the *simulator itself* runs — host instructions/sec
and host cycles/sec of trace replay per defense mode — as opposed to
the figure benches, which measure what the simulated machine does.
The numbers feed a committed baseline (``BENCH_simulator.json``) that
CI compares fresh runs against, so engine regressions are caught even
when every simulated result is still byte-identical.

Two kinds of fields live in the manifest:

* **deterministic** — committed micro-ops and simulated cycles per
  mode.  These must never change silently: two manifests for the same
  configuration must agree on them exactly (checked with
  :func:`bench_manifests_equal`, which reuses the volatile-field
  stripping from :mod:`repro.harness.parallel`).
* **volatile** — wall-clock seconds and derived throughput.  These
  vary run to run and host to host and are stripped before identity
  comparison; regressions in them are gated by a *ratio* threshold,
  not equality.

Replay is timed with the trace generated once per mode and the best
(minimum) of ``repeats`` fresh-core replays taken, which is the
standard way to suppress scheduler noise on shared machines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.harness.parallel import VOLATILE_FIELDS, strip_volatile

#: Bench-specific volatile fields, on top of the sweep-level ones:
#: anything derived from wall-clock time.
BENCH_VOLATILE_FIELDS = VOLATILE_FIELDS | frozenset(
    {
        "best_seconds",
        "all_seconds",
        "uops_per_sec",
        "cycles_per_sec",
        "trace_gen_seconds",
        "speedup",
        "reference",
    }
)

#: Defense modes benchmarked, in report order.
BENCH_MODES = ("plain", "asan", "rest-secure", "rest-debug")


def bench_specs():
    """The standard defense-mode specs, keyed by the CLI mode names.

    Shared by the bench, the observed runs (``repro run``) and the
    stall-decomposition sweep artifact, so every tool agrees on what
    "rest-debug" etc. mean.
    """
    from repro.core.modes import Mode
    from repro.harness.configs import DefenseSpec

    return {
        "plain": DefenseSpec.plain(),
        "asan": DefenseSpec.asan(),
        "rest-secure": DefenseSpec.rest("Secure Full", mode=Mode.SECURE),
        "rest-debug": DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
        "mte": DefenseSpec.mte("MTE Sync", check_mode="sync"),
        "mte-async": DefenseSpec.mte("MTE Async", check_mode="async"),
        "mte-asymm": DefenseSpec.mte("MTE Asymm", check_mode="asymm"),
    }


def run_bench(
    benchmark: str = "xalancbmk",
    scale: float = 0.5,
    seed: int = 1234,
    repeats: int = 5,
    modes: Optional[List[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Benchmark trace replay; returns the manifest dict.

    The trace for each mode is generated once (timed separately as
    ``trace_gen_seconds``) and replayed ``repeats`` times on a fresh
    hierarchy + core; the minimum replay wall time produces the
    throughput figures.
    """
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.harness.configs import SimulationConfig
    from repro.harness.experiment import (
        _make_hierarchy,
        build_defense,
        make_trace_machine,
    )
    from repro.workloads.generator import SyntheticWorkload
    from repro.workloads.spec import profile_by_name

    if repeats <= 0:
        raise ValueError("repeats must be positive")
    specs = bench_specs()
    mode_names = list(modes) if modes else list(BENCH_MODES)
    for name in mode_names:
        if name not in specs:
            raise ValueError(
                f"unknown bench mode {name!r}; known: {', '.join(specs)}"
            )
    profile = profile_by_name(benchmark)
    config = SimulationConfig(scale=scale, seed=seed)

    manifest: Dict = {
        "benchmark": benchmark,
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "modes": {},
    }
    for name in mode_names:
        spec = specs[name]
        t0 = time.perf_counter()
        trace_machine = make_trace_machine(spec)
        defense = build_defense(trace_machine, spec)
        SyntheticWorkload(
            profile,
            defense,
            seed=config.seed,
            scale=config.scale,
            alloc_intensity=config.alloc_intensity,
        ).run()
        trace = trace_machine.take_trace()
        trace_gen_seconds = time.perf_counter() - t0

        times = []
        stats = None
        for _ in range(repeats):
            hierarchy = _make_hierarchy(spec, config)
            core = OutOfOrderCore(hierarchy, config=config.core)
            replay = list(trace)
            t0 = time.perf_counter()
            stats = core.run(replay)
            times.append(time.perf_counter() - t0)
        best = min(times)
        manifest["modes"][name] = {
            "uops": stats.committed,
            "cycles": stats.cycles,
            "trace_gen_seconds": round(trace_gen_seconds, 4),
            "best_seconds": round(best, 4),
            "all_seconds": [round(t, 4) for t in times],
            "uops_per_sec": int(stats.committed / best),
            "cycles_per_sec": int(stats.cycles / best),
        }
        if progress is not None:
            from repro.obs.stalls import format_stall_line

            entry = manifest["modes"][name]
            progress(
                f"{name:12s} {entry['uops']:>8,} uops in "
                f"{entry['best_seconds']:.3f}s  "
                f"({entry['uops_per_sec']:>9,} uops/s, "
                f"{entry['cycles_per_sec']:>9,} cycles/s)"
            )
            progress(f"{'':12s} {format_stall_line(stats)}")
    return manifest


def bench_manifests_equal(
    before: Union[str, Path, Dict], after: Union[str, Path, Dict]
) -> bool:
    """True when two bench manifests agree on every deterministic field.

    Wall-clock and throughput fields are stripped first: a slow run and
    a fast run of the same simulator configuration compare equal; a run
    whose *simulated results* moved does not.
    """

    def load(source) -> Dict:
        if isinstance(source, dict):
            return source
        return json.loads(Path(source).read_text())

    return strip_volatile(
        load(before), BENCH_VOLATILE_FIELDS
    ) == strip_volatile(load(after), BENCH_VOLATILE_FIELDS)


def compare_to_baseline(
    baseline: Dict, current: Dict, max_regression: float = 0.30
) -> List[str]:
    """Problems found comparing a fresh bench run against a baseline.

    Returns a list of human-readable failures (empty = pass):

    * deterministic drift — the simulated uops/cycles for a mode differ
      from the baseline's, meaning simulator *behaviour* changed;
    * throughput regression — a mode's uops/sec dropped more than
      ``max_regression`` (fraction) below the baseline's.

    Modes present in only one manifest are compared for the other
    checks but flagged, so a baseline refresh cannot silently drop
    coverage.
    """
    problems: List[str] = []
    base_cfg = {k: baseline.get(k) for k in ("benchmark", "scale", "seed")}
    cur_cfg = {k: current.get(k) for k in ("benchmark", "scale", "seed")}
    if base_cfg != cur_cfg:
        problems.append(
            f"configuration mismatch: baseline {base_cfg} vs current {cur_cfg}"
        )
        return problems
    base_modes = baseline.get("modes", {})
    cur_modes = current.get("modes", {})
    for name in base_modes:
        if name not in cur_modes:
            problems.append(f"mode {name!r} missing from current run")
            continue
        base = base_modes[name]
        cur = cur_modes[name]
        for field in ("uops", "cycles"):
            if base.get(field) != cur.get(field):
                problems.append(
                    f"{name}: simulated {field} changed "
                    f"{base.get(field)} -> {cur.get(field)} "
                    f"(simulator behaviour drifted)"
                )
        base_rate = base.get("uops_per_sec", 0)
        cur_rate = cur.get("uops_per_sec", 0)
        if base_rate > 0 and cur_rate < base_rate * (1.0 - max_regression):
            problems.append(
                f"{name}: throughput {cur_rate:,} uops/s is more than "
                f"{max_regression:.0%} below baseline {base_rate:,} uops/s"
            )
    return problems

