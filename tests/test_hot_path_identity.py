"""Byte-identity guarantees of the optimized simulator hot path.

Two independent proofs that the fast path changes *wall-clock only*:

1. ``run_stepwise(fast_forward=True)`` (what :meth:`OutOfOrderCore.run`
   uses) produces stats identical to the plain cycle-by-cycle walk.
2. The full stack reproduces ``results/hot_path_golden.json`` — a
   manifest generated by the *unoptimized* pre-optimization core for
   one small configuration per defense mode.

Plus coverage of the ``repro bench`` manifest helpers that gate CI.
"""

import json
from pathlib import Path

import pytest

from repro.cache import MemoryHierarchy
from repro.core.modes import Mode
from repro.cpu import CoreConfig, OutOfOrderCore
from repro.harness.bench import (
    BENCH_VOLATILE_FIELDS,
    bench_manifests_equal,
    compare_to_baseline,
)
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import run_benchmark
from repro.workloads.spec import profile_by_name

GOLDEN = Path(__file__).resolve().parent.parent / "results" / "hot_path_golden.json"


def _spec_for(mode_name):
    return {
        "plain": DefenseSpec.plain(),
        "asan": DefenseSpec.asan(),
        "rest-secure": DefenseSpec.rest("Secure Full", mode=Mode.SECURE),
        "rest-debug": DefenseSpec.rest("Debug Full", mode=Mode.DEBUG),
    }[mode_name]


def _stats_dict(stats):
    return {
        "cycles": stats.cycles,
        "committed": stats.committed,
        "fetched": stats.fetched,
        "op_counts": dict(stats.op_counts),
        "branch_mispredicts": stats.branch_mispredicts,
        "mispredict_stall_cycles": stats.mispredict_stall_cycles,
        "lsq_forwards": stats.lsq_forwards,
        "rob_blocked_by_store_cycles": stats.rob_blocked_by_store_cycles,
        "rob_full_cycles": stats.rob_full_cycles,
        "iq_full_cycles": stats.iq_full_cycles,
        "lq_full_cycles": stats.lq_full_cycles,
        "sq_full_cycles": stats.sq_full_cycles,
        "icache_stall_cycles": stats.icache_stall_cycles,
        "dram_stall_cycles": stats.dram_stall_cycles,
        "commit_active_cycles": stats.commit_active_cycles,
    }


def _trace_for(mode_name, scale=0.05):
    from repro.harness.experiment import build_defense
    from repro.runtime.machine import ExecutionMode, Machine
    from repro.workloads.generator import SyntheticWorkload

    spec = _spec_for(mode_name)
    machine = Machine(
        mode=ExecutionMode.TRACE,
        perfect_hw=spec.perfect_hw,
        software_rest=spec.defense == "softrest",
    )
    machine.token_width = spec.token_width
    defense = build_defense(machine, spec)
    SyntheticWorkload(
        profile_by_name("xalancbmk"), defense, seed=7, scale=scale
    ).run()
    return spec, machine.take_trace()


def _fresh_core(spec, core_config=None):
    from repro.core.token import Token, TokenConfigRegister

    register = TokenConfigRegister(
        Token.random(spec.token_width, seed=7), mode=spec.mode
    )
    return OutOfOrderCore(
        MemoryHierarchy(token_config=register), config=core_config
    )


class TestFastForwardIdentity:
    """fast_forward=True must be unobservable in every stat."""

    @pytest.mark.parametrize(
        "mode_name", ["plain", "asan", "rest-secure", "rest-debug"]
    )
    def test_matches_stepwise(self, mode_name):
        spec, trace = _trace_for(mode_name)

        core_slow = _fresh_core(spec)
        for _ in core_slow.run_stepwise(list(trace)):
            pass
        core_fast = _fresh_core(spec)
        for _ in core_fast.run_stepwise(list(trace), fast_forward=True):
            pass

        assert _stats_dict(core_slow.stats) == _stats_dict(core_fast.stats)

    def test_matches_stepwise_in_order_core(self):
        spec, trace = _trace_for("rest-secure")
        slow = _fresh_core(spec, CoreConfig.in_order())
        for _ in slow.run_stepwise(list(trace)):
            pass
        fast = _fresh_core(spec, CoreConfig.in_order())
        for _ in fast.run_stepwise(list(trace), fast_forward=True):
            pass
        assert _stats_dict(slow.stats) == _stats_dict(fast.stats)

    @pytest.mark.parametrize("mode_name", ["plain", "rest-debug"])
    def test_recording_tracer_is_timing_invisible(self, mode_name):
        """Attaching a RingTracer must not change a single counter."""
        from repro.obs.tracer import (
            RingTracer,
            attach_hierarchy_tracer,
            attach_tracer,
        )

        spec, trace = _trace_for(mode_name)
        bare = _fresh_core(spec)
        for _ in bare.run_stepwise(list(trace), fast_forward=True):
            pass

        traced = _fresh_core(spec)
        tracer = RingTracer(capacity=4096)
        attach_tracer(traced, tracer)
        attach_hierarchy_tracer(traced.hierarchy, tracer)
        for _ in traced.run_stepwise(list(trace), fast_forward=True):
            pass

        assert _stats_dict(bare.stats) == _stats_dict(traced.stats)
        assert tracer.emitted > 0

    @pytest.mark.parametrize("mode_name", ["plain", "rest-debug"])
    def test_pcstall_events_mirror_raw_counters(self, mode_name):
        """Per-(cause, pc) stall events sum exactly to the raw
        aggregate counters — including fast-forwarded spans.  This is
        the exactness the trace-diff per-PC apportionment builds on
        (INTERNALS §12)."""
        from repro.obs.tracer import RingTracer, attach_tracer

        spec, trace = _trace_for(mode_name)
        core = _fresh_core(spec)
        tracer = RingTracer(capacity=1 << 20)
        attach_tracer(core, tracer)
        for _ in core.run_stepwise(list(trace), fast_forward=True):
            pass

        stats = core.stats
        sums = {}
        for event in tracer.events():
            if event["kind"] == "pcstall":
                cause = event["cause"]
                sums[cause] = sums.get(cause, 0) + event["cycles"]
        expected = {
            "rob_store": stats.rob_blocked_by_store_cycles,
            "rob": stats.rob_full_cycles,
            "iq": stats.iq_full_cycles,
            "lq": stats.lq_full_cycles,
            "sq": stats.sq_full_cycles,
            "icache": stats.icache_stall_cycles,
            "mispredict": stats.mispredict_stall_cycles,
            "dram": stats.dram_stall_cycles,
        }
        for cause, counter in expected.items():
            assert sums.get(cause, 0) == counter, cause

    @pytest.mark.parametrize("mode_name", ["plain", "rest-debug"])
    def test_commit_seqs_dense_and_increasing(self, mode_name):
        """Committed instruction ids are dense and strictly increasing
        — the precondition of trace-diff stream alignment."""
        from repro.obs.tracer import RingTracer, attach_tracer

        spec, trace = _trace_for(mode_name)
        core = _fresh_core(spec)
        tracer = RingTracer(capacity=1 << 20)
        attach_tracer(core, tracer)
        for _ in core.run_stepwise(list(trace), fast_forward=True):
            pass
        assert tracer.dropped == 0
        seqs = [
            e["seq"] for e in tracer.events() if e["kind"] == "commit"
        ]
        assert seqs
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    def test_null_tracer_is_the_default(self):
        from repro.obs.tracer import NULL_TRACER

        spec, _ = _trace_for("plain", scale=0.01)
        core = _fresh_core(spec)
        assert core.tracer is NULL_TRACER
        assert not core.tracer.enabled
        assert core.hierarchy.tracer is NULL_TRACER

    def test_max_cycles_error_is_identical(self):
        spec, trace = _trace_for("plain")
        errors = []
        for fast_forward in (False, True):
            core = _fresh_core(spec)
            with pytest.raises(RuntimeError) as excinfo:
                for _ in core.run_stepwise(
                    list(trace), max_cycles=50, fast_forward=fast_forward
                ):
                    pass
            errors.append((str(excinfo.value), core.stats.cycles))
        assert errors[0] == errors[1]


class TestGoldenIdentity:
    """The optimized stack reproduces the unoptimized core's outputs."""

    @pytest.mark.parametrize(
        "mode_name", ["plain", "asan", "rest-secure", "rest-debug"]
    )
    def test_reproduces_pre_optimization_golden(self, mode_name):
        golden = json.loads(GOLDEN.read_text())
        expected = golden["modes"][mode_name]
        config = SimulationConfig(
            scale=golden["scale"], seed=golden["seed"]
        )
        result = run_benchmark(
            profile_by_name(golden["benchmark"]), _spec_for(mode_name), config
        )
        stats = result.core_stats
        actual = {
            "cycles": result.cycles,
            "instructions": result.instructions,
            "app_instructions": result.app_instructions,
            "committed": stats.committed,
            "fetched": stats.fetched,
            "op_counts": dict(sorted(stats.op_counts.items())),
            "branch_mispredicts": stats.branch_mispredicts,
            "lsq_forwards": stats.lsq_forwards,
            "rob_blocked_by_store_cycles": stats.rob_blocked_by_store_cycles,
            "l1d_miss_rate": round(result.l1d_miss_rate, 10),
            "l2_miss_rate": round(result.l2_miss_rate, 10),
            "arms": result.hierarchy_stats.arms,
            "disarms": result.hierarchy_stats.disarms,
            "tokens_at_memory_interface": (
                result.hierarchy_stats.tokens_at_memory_interface
            ),
        }
        assert actual == expected


class TestBenchManifests:
    def _manifest(self, uops=1000, cycles=2000, seconds=0.5):
        return {
            "benchmark": "xalancbmk",
            "scale": 0.25,
            "seed": 1234,
            "repeats": 3,
            "modes": {
                "plain": {
                    "uops": uops,
                    "cycles": cycles,
                    "best_seconds": seconds,
                    "all_seconds": [seconds],
                    "trace_gen_seconds": 0.1,
                    "uops_per_sec": int(uops / seconds),
                    "cycles_per_sec": int(cycles / seconds),
                }
            },
        }

    def test_equal_ignores_wall_clock(self):
        fast = self._manifest(seconds=0.1)
        slow = self._manifest(seconds=9.9)
        assert bench_manifests_equal(fast, slow)

    def test_unequal_on_simulated_drift(self):
        assert not bench_manifests_equal(
            self._manifest(cycles=2000), self._manifest(cycles=2001)
        )

    def test_volatile_fields_cover_throughput(self):
        for field in ("best_seconds", "uops_per_sec", "cycles_per_sec"):
            assert field in BENCH_VOLATILE_FIELDS

    def test_compare_flags_throughput_regression(self):
        baseline = self._manifest(seconds=0.1)
        slow = self._manifest(seconds=0.2)  # 50% drop
        problems = compare_to_baseline(baseline, slow, max_regression=0.30)
        assert len(problems) == 1
        assert "below baseline" in problems[0]
        # Within tolerance passes.
        assert not compare_to_baseline(
            baseline, self._manifest(seconds=0.11), max_regression=0.30
        )

    def test_compare_flags_simulated_drift(self):
        baseline = self._manifest()
        drifted = self._manifest(cycles=2001)
        problems = compare_to_baseline(baseline, drifted)
        assert any("behaviour drifted" in p for p in problems)

    def test_compare_flags_config_mismatch(self):
        baseline = self._manifest()
        other = dict(self._manifest(), scale=0.5)
        problems = compare_to_baseline(baseline, other)
        assert len(problems) == 1
        assert "configuration mismatch" in problems[0]

    def test_compare_flags_missing_mode(self):
        baseline = self._manifest()
        current = self._manifest()
        current["modes"] = {}
        problems = compare_to_baseline(baseline, current)
        assert any("missing" in p for p in problems)

    def test_committed_baseline_is_consistent(self):
        """The repo's BENCH_simulator.json matches the identity golden."""
        bench = json.loads(
            (GOLDEN.parent.parent / "BENCH_simulator.json").read_text()
        )
        assert set(bench["modes"]) == {
            "plain", "asan", "rest-secure", "rest-debug"
        }
        for entry in bench["modes"].values():
            assert entry["uops"] > 0
            assert entry["cycles"] >= entry["uops"] // 4
            assert entry["uops_per_sec"] > 0
