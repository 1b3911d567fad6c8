"""Tests for the observability layer (repro.obs).

Covers the ring tracer, JSONL round-trips, O3PipeView export/format
validation, the top-down stall decomposition invariant (under
hypothesis-generated counters), sampler identity, the observed-run
driver, and both report renderers.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.stats import CoreStats
from repro.obs.o3 import (
    export_o3_pipeview,
    format_o3_record,
    o3_records,
    validate_o3_trace,
)
from repro.obs.sampler import run_sampled
from repro.obs.stalls import (
    STALL_BUCKETS,
    collect_mode_stalls,
    format_stall_line,
    stall_buckets,
    verify_buckets,
)
from repro.obs.tracer import (
    NULL_TRACER,
    RingTracer,
    Tracer,
    attach_tracer,
    read_jsonl,
    write_jsonl,
)

from tests.test_hot_path_identity import _fresh_core, _trace_for


@pytest.fixture(scope="module")
def traced_run():
    """One small rest-debug run with a recording tracer attached."""
    spec, trace = _trace_for("rest-debug", scale=0.03)
    core = _fresh_core(spec)
    tracer = attach_tracer(core, RingTracer(capacity=1 << 15))
    stats = core.run(list(trace))
    return tracer, stats


class TestRingTracer:
    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit("anything", 5, pc=1)
        assert NULL_TRACER.events() == []

    def test_emit_and_chronological_order(self):
        tracer = RingTracer(capacity=8)
        for cycle in range(5):
            tracer.emit("tick", cycle, index=cycle)
        events = tracer.events()
        assert [e["cycle"] for e in events] == [0, 1, 2, 3, 4]
        assert events[0]["kind"] == "tick"
        assert events[0]["index"] == 0
        assert tracer.emitted == 5
        assert tracer.dropped == 0

    def test_wraparound_keeps_newest_window(self):
        tracer = RingTracer(capacity=4)
        for cycle in range(10):
            tracer.emit("tick", cycle)
        assert len(tracer) == 4
        assert [e["cycle"] for e in tracer.events()] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.dropped == 6

    def test_wraparound_multiple_times(self):
        tracer = RingTracer(capacity=3)
        for cycle in range(100):
            tracer.emit("tick", cycle)
        assert [e["cycle"] for e in tracer.events()] == [97, 98, 99]

    def test_counts_histogram(self):
        tracer = RingTracer(capacity=16)
        tracer.emit("a", 0)
        tracer.emit("b", 1)
        tracer.emit("a", 2)
        assert tracer.counts() == {"a": 2, "b": 1}

    def test_clear(self):
        tracer = RingTracer(capacity=2)
        for cycle in range(5):
            tracer.emit("tick", cycle)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.events() == []
        assert tracer.emitted == 0
        assert tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = RingTracer(capacity=16)
        tracer.emit("l1d_fill", 10, address=0x1000, tokens=2)
        tracer.emit("commit", 11, seq=3, pc=0x400, op="load")
        path = tmp_path / "events.jsonl"
        assert write_jsonl(tracer.events(), path) == 2
        assert read_jsonl(path) == tracer.events()

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "a", "cycle": 1}\n\n\n')
        assert read_jsonl(path) == [{"kind": "a", "cycle": 1}]


class TestStallBuckets:
    def _stats(self, **overrides):
        stats = CoreStats()
        for name, value in overrides.items():
            setattr(stats, name, value)
        return stats

    def test_all_buckets_always_present(self):
        buckets = stall_buckets(self._stats())
        assert tuple(buckets) == STALL_BUCKETS

    def test_simple_attribution(self):
        stats = self._stats(
            cycles=100, commit_active_cycles=40, iq_full_cycles=25
        )
        buckets = stall_buckets(stats)
        assert buckets["base"] == 40
        assert buckets["iq_full"] == 25
        assert buckets["other"] == 35

    def test_priority_clamp(self):
        # Overlapping counters larger than the cycle count get clamped
        # in priority order; later causes see only what remains.
        stats = self._stats(
            cycles=50,
            commit_active_cycles=30,
            rob_blocked_by_store_cycles=30,
            icache_stall_cycles=99,
        )
        buckets = stall_buckets(stats)
        assert buckets["base"] == 30
        assert buckets["rob_store_blocked"] == 20
        assert buckets["icache"] == 0
        assert buckets["other"] == 0
        assert sum(buckets.values()) == 50

    @settings(max_examples=200, deadline=None)
    @given(
        cycles=st.integers(min_value=0, max_value=10**9),
        counters=st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=8,
            max_size=8,
        ),
    )
    def test_buckets_sum_to_cycles_invariant(self, cycles, counters):
        stats = self._stats(
            cycles=cycles,
            commit_active_cycles=counters[0],
            rob_blocked_by_store_cycles=counters[1],
            iq_full_cycles=counters[2],
            lq_full_cycles=counters[3],
            sq_full_cycles=counters[4],
            icache_stall_cycles=counters[5],
            mispredict_stall_cycles=counters[6],
            dram_stall_cycles=counters[7],
        )
        buckets = verify_buckets(stats)  # raises on sum mismatch
        assert sum(buckets.values()) == cycles
        assert all(value >= 0 for value in buckets.values())

    def test_format_stall_line_elides_zero_buckets(self):
        stats = self._stats(cycles=100, commit_active_cycles=100)
        line = format_stall_line(stats)
        assert line == "stalls: base 100.0%"

    def test_format_stall_line_no_cycles(self):
        assert format_stall_line(self._stats()) == "stalls: no cycles"

    @settings(max_examples=200, deadline=None)
    @given(
        cycles=st.integers(min_value=1, max_value=10**9),
        counters=st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=8,
            max_size=8,
        ),
    )
    def test_format_stall_line_percentages_sum_to_100(
        self, cycles, counters
    ):
        """The displayed tenths are largest-remainder rounded, so they
        sum to exactly 100.0% — never 99.9 or 100.1."""
        import re

        stats = self._stats(
            cycles=cycles,
            commit_active_cycles=counters[0],
            rob_blocked_by_store_cycles=counters[1],
            iq_full_cycles=counters[2],
            lq_full_cycles=counters[3],
            sq_full_cycles=counters[4],
            icache_stall_cycles=counters[5],
            mispredict_stall_cycles=counters[6],
            dram_stall_cycles=counters[7],
        )
        line = format_stall_line(stats)
        shown = re.findall(r"(\d+)\.(\d)%", line)
        assert shown, line
        tenths = [int(whole) * 10 + int(frac) for whole, frac in shown]
        assert sum(tenths) == 1000

    def test_verify_buckets_raises_on_violation(self):
        class Unstable:
            # cycles changes between the decomposition and the check —
            # the only way the sum-to-cycles invariant can break.
            commit_active_cycles = 0
            rob_blocked_by_store_cycles = 0
            iq_full_cycles = 0
            lq_full_cycles = 0
            sq_full_cycles = 0
            icache_stall_cycles = 0
            mispredict_stall_cycles = 0
            dram_stall_cycles = 0

            def __init__(self):
                self._reads = 0

            @property
            def cycles(self):
                self._reads += 1
                return 100 if self._reads == 1 else 200

        with pytest.raises(AssertionError):
            verify_buckets(Unstable())

    def test_real_run_satisfies_invariant(self, traced_run):
        _, stats = traced_run
        buckets = verify_buckets(stats)
        assert buckets["base"] > 0  # some cycles did useful work


class TestSampler:
    def test_sampled_stats_identical_to_plain_run(self):
        spec, trace = _trace_for("rest-secure", scale=0.03)
        plain = _fresh_core(spec)
        expected = plain.run(list(trace))

        sampled_core = _fresh_core(spec)
        stats, samples = run_sampled(
            sampled_core, list(trace), interval=500
        )
        assert stats == expected  # CoreStats dataclass: full equality
        assert samples, "a multi-thousand-cycle run must produce samples"

    def test_sample_shape_and_monotonic_cycles(self):
        spec, trace = _trace_for("plain", scale=0.03)
        _, samples = run_sampled(_fresh_core(spec), list(trace), interval=300)
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(cycles)
        for sample in samples:
            assert sample["window_cycles"] > 0
            assert 0.0 <= sample["l1d_miss_rate"] <= 1.0
            for key in ("ipc", "rob", "iq", "lq", "sq", "token_ops"):
                assert key in sample

    def test_rejects_nonpositive_interval(self):
        spec, trace = _trace_for("plain", scale=0.01)
        with pytest.raises(ValueError):
            run_sampled(_fresh_core(spec), list(trace), interval=0)


class TestO3PipeView:
    def _record(self, **overrides):
        record = {
            "seq": 1,
            "pc": 0x400,
            "op": "alu",
            "fetch": 1,
            "dispatch": 2,
            "issue": 3,
            "complete": 4,
            "retire": 5,
            "store_done": 0,
        }
        record.update(overrides)
        return record

    def test_format_is_seven_valid_lines(self):
        text = format_o3_record(self._record())
        assert validate_o3_trace(text) == 1
        lines = text.splitlines()
        assert lines[0] == "O3PipeView:fetch:1000:0x00000400:0:1:alu"
        assert lines[-1] == "O3PipeView:retire:5000:store:0"

    def test_store_completion_tick(self):
        text = format_o3_record(self._record(store_done=5))
        assert text.splitlines()[-1] == "O3PipeView:retire:5000:store:5000"

    def test_records_drop_incomplete(self):
        events = [
            {"kind": "fetch", "cycle": 1, "pc": 0x400, "op": "alu"},
            {"kind": "dispatch", "cycle": 2, "seq": 1, "pc": 0x400,
             "op": "alu"},
            {"kind": "issue", "cycle": 3, "seq": 1},
            # no complete/commit: in flight at end of trace
        ]
        assert o3_records(events) == []

    def test_validator_rejects_malformed(self):
        good = format_o3_record(self._record())
        with pytest.raises(ValueError):
            validate_o3_trace(good + "\nO3PipeView:bogus:1")
        with pytest.raises(ValueError):
            validate_o3_trace(good.replace("O3PipeView:issue", "Nope:issue"))

    def test_validator_rejects_nonmonotonic_ticks(self):
        bad = format_o3_record(self._record(complete=2))  # before issue=3
        with pytest.raises(ValueError):
            validate_o3_trace(bad)

    def test_real_trace_exports_and_validates(self, traced_run, tmp_path):
        tracer, stats = traced_run
        path = tmp_path / "o3.trace"
        written = export_o3_pipeview(tracer.events(), path)
        assert written > 0
        assert validate_o3_trace(path.read_text()) == written

    def test_real_records_are_stage_ordered(self, traced_run):
        tracer, _ = traced_run
        records = o3_records(tracer.events())
        assert records
        for record in records[:200]:
            assert (
                record["fetch"]
                <= record["dispatch"]
                <= record["issue"]
                <= record["complete"]
                <= record["retire"]
            )


class TestSquashStormIdentity:
    def test_commit_stream_and_o3_survive_squashes(self, tmp_path):
        """Branch-heavy run: mispredict squashes must not perturb the
        committed identity stream (seqs dense, strictly increasing)
        or the O3 export's tick monotonicity (INTERNALS §12)."""
        import random

        from repro.cache import MemoryHierarchy
        from repro.core import Mode, Token, TokenConfigRegister
        from repro.cpu import OutOfOrderCore
        from repro.cpu.isa import alu, branch
        from repro.obs.diff import (
            check_commit_invariants,
            committed_stream,
        )

        rng = random.Random(3)
        ops = []
        for i in range(400):
            ops.append(
                branch(rng.random() < 0.5, pc=0x400 + 4 * (i % 11))
            )
            ops.append(alu(pc=0x800 + 4 * (i % 5)))
        reg = TokenConfigRegister(
            Token.random(64, seed=1), mode=Mode.SECURE
        )
        core = OutOfOrderCore(MemoryHierarchy(token_config=reg))
        tracer = attach_tracer(core, RingTracer(capacity=1 << 18))
        stats = core.run(ops)
        assert stats.branch_mispredicts > 0

        events = tracer.events()
        assert tracer.dropped == 0
        assert any(e["kind"] == "squash" for e in events)
        commits = committed_stream(events)
        assert len(commits) == stats.committed
        check_commit_invariants(commits, dropped=tracer.dropped)
        seqs = [e["seq"] for e in commits]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        cycles = [e["cycle"] for e in commits]
        assert cycles == sorted(cycles)

        out = tmp_path / "o3.trace"
        assert export_o3_pipeview(events, out) > 0
        assert validate_o3_trace(out.read_text()) > 0


class TestObservedRunAndReport:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        from repro.obs.runner import run_observed

        outdir = tmp_path_factory.mktemp("obsrun")
        run_observed(
            outdir,
            modes=["plain", "rest-debug"],
            scale=0.02,
            seed=7,
            interval=500,
            events=True,
            o3=True,
        )
        return outdir

    def test_artifacts_written(self, run_dir):
        payload = json.loads((run_dir / "run.json").read_text())
        assert set(payload["modes"]) == {"plain", "rest-debug"}
        for mode in ("plain", "rest-debug"):
            assert (run_dir / f"samples-{mode}.jsonl").exists()
            assert (run_dir / f"events-{mode}.jsonl").exists()
            assert (run_dir / f"stats-{mode}.txt").exists()
            buckets = payload["modes"][mode]["buckets"]
            assert sum(buckets.values()) == payload["modes"][mode]["cycles"]

    def test_o3_artifacts_validate(self, run_dir):
        for mode in ("plain", "rest-debug"):
            text = (run_dir / f"o3-{mode}.trace").read_text()
            assert validate_o3_trace(text) > 0

    def test_text_report_from_run_dir(self, run_dir):
        from repro.obs.report import render_text

        text = render_text(run_dir)
        assert "plain" in text and "rest-debug" in text
        assert "rob-store" in text  # waterfall rows present
        assert "IPC" in text  # sparkline section present

    def test_html_report_from_run_dir(self, run_dir):
        from repro.obs.report import render_html

        html = render_html(run_dir)
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "rest-debug" in html

    def test_report_degrades_on_missing_artifacts(
        self, run_dir, tmp_path, capsys
    ):
        """Deleting listed artifacts must downgrade the report to a
        note per missing file, not a traceback — exit stays 0."""
        import shutil

        from repro.__main__ import main

        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        (clone / "samples-plain.jsonl").unlink()
        (clone / "events-plain.jsonl").unlink()

        assert main(["report", str(clone)]) == 0
        out = capsys.readouterr().out
        assert "samples-plain.jsonl missing" in out
        assert "events-plain.jsonl missing" in out
        # The intact mode still renders fully.
        assert "rest-debug" in out

    def test_report_from_sweep_dir(self, tmp_path):
        from repro.obs.report import load_report_source, render_text

        payload = collect_mode_stalls(
            "xalancbmk", scale=0.02, seed=7, modes=("plain",)
        )
        (tmp_path / "stalls.json").write_text(json.dumps(payload))
        (tmp_path / "manifest.json").write_text(
            json.dumps({"scale": 0.02, "seed": 7, "experiments": {}})
        )
        source = load_report_source(tmp_path)
        assert source["kind"] == "sweep"
        text = render_text(tmp_path)
        assert "plain" in text

    def test_report_rejects_empty_dir(self, tmp_path):
        from repro.obs.report import load_report_source

        with pytest.raises(ValueError):
            load_report_source(tmp_path)


class TestRunAllIntegration:
    def test_stalls_unit_is_registered(self):
        from repro.experiments.run_all import (
            _SPECIAL_UNITS,
            EXPERIMENT_SCALES,
            experiment_units,
        )

        assert "stalls" in EXPERIMENT_SCALES
        plan = experiment_units(scale=0.1, seed=1)
        units = {u.uid: u for u in plan}
        stalls = plan.experiments["stalls"]
        assert stalls.module == "repro.obs.stalls"
        assert stalls.filename == "stalls.json"
        assert _SPECIAL_UNITS["stalls"][1] == "stalls.json"
        # stalls is made of cells only: its shards are fig7's.
        assert stalls.from_cells and "stalls" not in units
        assert stalls.units
        assert set(stalls.units) <= set(plan.experiments["fig7"].units)
        # Regular experiments still resolve to their own modules.
        assert units["table1"].module == "repro.experiments.table1"

    def test_patched_scales_exclude_stalls(self):
        # Test fixtures monkeypatch EXPERIMENT_SCALES with a subset;
        # passing explicit scales must not sneak the stalls unit in.
        from repro.experiments.run_all import experiment_units

        units = experiment_units(
            scale=0.1, seed=1, scales={"table1": None}
        )
        assert [u.uid for u in units] == ["table1"]


class TestCliSurface:
    def test_report_cli_renders_sweep_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        payload = collect_mode_stalls(
            "xalancbmk", scale=0.02, seed=7, modes=("plain",)
        )
        (tmp_path / "stalls.json").write_text(json.dumps(payload))
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "plain" in out

    def test_metrics_cpi_breakdown(self, traced_run):
        from repro.harness.metrics import cpi_stall_breakdown

        _, stats = traced_run
        breakdown = cpi_stall_breakdown(stats)
        assert set(breakdown) == set(STALL_BUCKETS)
        total = sum(breakdown.values())
        assert total == pytest.approx(stats.cpi, rel=1e-3)
