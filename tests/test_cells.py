"""Simulation cells: trace reuse, the shard planner, and run_all folding.

``run_all`` runs each distinct (profile, spec, config) cell once, in
one work unit per (config, benchmark) shard that generates each trace
once and replays it for every cell sharing it.  These tests pin that
the reuse is exact (every counter equals a fresh ``run_benchmark``),
that the trace key is verified rather than assumed, and that the
planner, manifest and progress output fold shards back into
experiments.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from repro.core.modes import Mode
from repro.experiments import run_all as driver
from repro.harness.configs import DefenseSpec, SimulationConfig
from repro.harness.experiment import (
    Cell,
    cell_key,
    generate_trace,
    run_benchmark,
    simulate_cells,
    trace_key,
)
from repro.harness.parallel import strip_volatile
from repro.workloads.spec import profile_by_name

#: Tiny scale: every cell runs in a few tens of milliseconds.
TINY = 0.02
#: Allocates, intercepts and protects frames even at TINY, so every
#: defense toggle shows up in its trace; also the stalls benchmark.
PROFILE = profile_by_name("xalancbmk")
#: Experiments whose cells run_all shards, with their declaring module.
CELL_MODULES = {
    "fig3": "repro.experiments.fig3",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "intext": "repro.experiments.intext",
    "stalls": "repro.obs.stalls",
    "defensezoo": "repro.experiments.defensezoo",
}


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


def fingerprint(trace) -> str:
    """Every uop field the core reads (``encode_trace`` drops the pc
    of memory ops, so it cannot tell such traces apart)."""
    return repr(
        [(u.op.name, u.pc, u.address, u.size, u.deps, u.taken) for u in trace]
    )


def plugin_specs():
    """Every registered defense mode under both operating modes."""
    from repro.defenses.plugin import registered_modes

    return [
        DefenseSpec(name=f"{defense}/{mode.value}", defense=defense, mode=mode)
        for defense in registered_modes()
        for mode in Mode
    ]


def experiment_cells():
    """Every cell the shardable experiments declare, on one profile."""
    import importlib

    cells = []
    for module in CELL_MODULES.values():
        declared = importlib.import_module(module).cells(TINY, 1234)
        cells += [c for c in declared if c.profile.name == PROFILE.name]
    config = SimulationConfig(scale=TINY, seed=1234)
    cells += [Cell(PROFILE, spec, config) for spec in plugin_specs()]
    return cells


class TestTraceReuse:
    def test_shared_traces_match_fresh_runs(self):
        cells = experiment_cells()
        values = simulate_cells(cells)
        # The sharing is real: fewer traces than distinct cells.
        assert len({trace_key(c) for c in cells}) < len(values)
        for cell in cells:
            fresh = run_benchmark(cell.profile, cell.spec, cell.config)
            shared = values[cell_key(cell)]
            assert shared == fresh.to_values(), cell.spec.name
            # cycles and every CoreStats counter, by name
            for field in dataclasses.fields(fresh.core_stats):
                assert shared["core"][field.name] == getattr(
                    fresh.core_stats, field.name
                ), (cell.spec.name, field.name)

    def test_values_round_trip_through_json(self):
        cell = Cell(
            PROFILE, DefenseSpec.rest("Secure Full"),
            SimulationConfig(scale=TINY),
        )
        fresh = run_benchmark(*cell)
        values = json.loads(json.dumps(fresh.to_values(), sort_keys=True))
        from repro.harness.experiment import RunResult

        rebuilt = RunResult.from_values(PROFILE.name, cell.spec, values)
        assert rebuilt == fresh
        assert rebuilt.tokens_per_kilo_at_memory == (
            fresh.tokens_per_kilo_at_memory
        )


def _variants(spec: DefenseSpec, name: str):
    """Specs differing from ``spec`` in field ``name`` only."""
    value = getattr(spec, name)
    if isinstance(value, bool):
        others = [not value]
    elif name == "token_width":
        others = [w for w in (16, 32, 64) if w != value]
    elif name == "mode":
        others = [m for m in Mode if m != value]
    elif name == "defense":
        from repro.defenses.plugin import registered_modes

        others = [d for d in registered_modes() if d != value]
    else:  # pragma: no cover - a new field must be classified here
        raise AssertionError(f"unclassified DefenseSpec field {name!r}")
    return [dataclasses.replace(spec, **{name: other}) for other in others]


class TestTraceKey:
    """``trace_key`` drops ``name`` and ``mode``: check, don't assume."""

    def specs(self):
        seen = {}
        for cell in experiment_cells():
            seen.setdefault(json.dumps(
                dataclasses.asdict(cell.spec), default=str, sort_keys=True
            ), cell.spec)
        return list(seen.values())

    def test_mode_is_the_only_generation_irrelevant_field(self):
        config = SimulationConfig(scale=TINY)
        traces = {}

        def trace_of(spec):
            key = (spec.defense, spec.protect_stack, spec.mode,
                   spec.token_width, spec.perfect_hw, spec.asan_allocator,
                   spec.asan_stack, spec.asan_checks, spec.asan_intercepts)
            if key not in traces:
                try:
                    trace = generate_trace(PROFILE, spec, config)[0]
                except ValueError:  # e.g. perfect_hw on softrest
                    trace = None
                traces[key] = trace and fingerprint(trace)
            return traces[key]

        specs = self.specs()
        relevant = set()
        for spec in specs:
            base = trace_of(spec)
            for field in dataclasses.fields(DefenseSpec):
                if field.name == "name":
                    continue
                for variant in _variants(spec, field.name):
                    if trace_of(variant) not in (base, None):
                        relevant.add(field.name)
                        assert field.name != "mode", spec
        fields = {f.name for f in dataclasses.fields(DefenseSpec)}
        assert relevant == fields - {"name", "mode"}

    def test_config_fields_outside_the_key_do_not_reach_generation(self):
        from repro.cpu.pipeline import CoreConfig

        spec = DefenseSpec.asan()
        base = SimulationConfig(scale=TINY)
        same = [
            dataclasses.replace(base, core=CoreConfig.in_order()),
            dataclasses.replace(base, token_seed=99),
        ]
        different = [
            dataclasses.replace(base, seed=99),
            dataclasses.replace(base, scale=TINY * 2),
            dataclasses.replace(base, alloc_intensity=5.0),
        ]
        want = fingerprint(generate_trace(PROFILE, spec, base)[0])
        for config in same:
            cell = Cell(PROFILE, spec, config)
            assert trace_key(cell) == trace_key(Cell(PROFILE, spec, base))
            assert fingerprint(generate_trace(PROFILE, spec, config)[0]) == want
        for config in different:
            cell = Cell(PROFILE, spec, config)
            assert trace_key(cell) != trace_key(Cell(PROFILE, spec, base))
            assert fingerprint(generate_trace(PROFILE, spec, config)[0]) != want


class TestPlanner:
    def test_bench_configuration_plan(self):
        plan = driver.experiment_units(0.1, 1234)
        uids = [unit.uid for unit in plan]
        shards = [uid for uid in uids if uid.startswith("cells/")]
        assert len(shards) == 36
        assert sorted(set(uids) - set(shards)) == sorted(
            ["table1", "table2", "table3", "memoverhead", "security",
             "defensezoo"]
        )
        assert list(plan.experiments) == list(driver.EXPERIMENT_SCALES)
        assert plan.experiments["defensezoo"].units[0] == "defensezoo"
        # 378 declared cells, 276 distinct, 252 distinct traces.
        import importlib

        declared = [
            cell
            for name, module in CELL_MODULES.items()
            for cell in importlib.import_module(module).cells(
                driver.EXPERIMENT_SCALES[name] or 0.1, 1234
            )
        ]
        assert len(declared) == 378
        assert len({cell_key(c) for c in declared}) == 276
        assert len({trace_key(c) for c in declared}) == 252
        # Each experiment folds exactly the shards holding its cells.
        by_uid = {unit.uid: unit for unit in plan}
        for name, module in CELL_MODULES.items():
            experiment = plan.experiments[name]
            cells = importlib.import_module(module).cells(
                experiment.scale, 1234
            )
            owners = {
                uid for uid in experiment.units if uid.startswith("cells/")
            }
            assert owners == {
                uid for uid in shards
                if by_uid[uid].kwargs["benchmark"]
                in {c.profile.name for c in cells}
                and [module, experiment.scale]
                in by_uid[uid].kwargs["sources"]
            }

    def test_units_are_wire_safe(self):
        from repro.service.protocol import unit_from_wire, unit_to_wire

        for unit in driver.experiment_units(0.1, 1234):
            wire = json.loads(json.dumps(unit_to_wire(unit)))
            assert unit_from_wire(wire) == unit

    def test_dependents(self):
        plan = driver.experiment_units(0.1, 1234)
        stalls_shard = plan.experiments["stalls"].units[0]
        assert plan.dependents([stalls_shard]) == [
            "fig7", "fig8", "intext", "stalls"
        ]
        assert plan.dependents(["defensezoo"]) == ["defensezoo"]

    @pytest.mark.parametrize(
        "scale", [-1, 0, 0.0, -0.5, math.nan, math.inf, -math.inf, "0.1"]
    )
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            driver.experiment_units(scale, 1234)


@pytest.fixture
def small_sweep(monkeypatch):
    """A cheap sweep that still has shards: two profiles, three
    experiments sharing one config, plus one non-cell table."""
    from repro.experiments import fig8, intext

    two = (profile_by_name("sjeng"), profile_by_name("lbm"))
    monkeypatch.setattr(fig8, "ALL_PROFILES", two)
    monkeypatch.setattr(intext, "ALL_PROFILES", two)
    monkeypatch.setattr(
        driver,
        "EXPERIMENT_SCALES",
        {"table2": None, "fig8": None, "intext": None, "stalls": None},
    )


def read_dir(outdir):
    return {
        path.name: path.read_bytes()
        for path in sorted(outdir.iterdir())
        if path.is_file() and path.name != "manifest.json"
    }


class TestRunAll:
    def test_identity_across_jobs_and_cache(self, tmp_path, small_sweep):
        serial = driver.run_all(
            tmp_path / "j1", scale=TINY, jobs=1, use_cache=False, quiet=True
        )
        parallel = driver.run_all(
            tmp_path / "j2", scale=TINY, jobs=2, quiet=True
        )
        again = driver.run_all(tmp_path / "j2", scale=TINY, jobs=2, quiet=True)
        assert read_dir(serial) == read_dir(parallel) == read_dir(again)
        manifests = [
            json.loads((out / "manifest.json").read_text())
            for out in (serial, parallel)
        ]
        assert strip_volatile(manifests[0]) == strip_volatile(manifests[1])
        warm = json.loads((again / "manifest.json").read_text())
        assert all(r["cached"] for r in warm["experiments"].values())
        # The in-process renderers produce the same bytes.
        from repro.experiments import fig8

        assert (serial / "fig8.txt").read_text() == (
            fig8.regenerate(scale=TINY) + "\n"
        )

    def test_manifest_charges_each_unit_once(self, tmp_path, small_sweep):
        out = driver.run_all(tmp_path / "run", scale=TINY, quiet=True)
        manifest = json.loads((out / "manifest.json").read_text())
        records = manifest["experiments"]
        total = sum(record["cpu_seconds"] for record in records.values())
        assert total == pytest.approx(
            manifest["units_timing"]["cpu_seconds"], abs=0.01
        )
        # fig8 is charged its sjeng and lbm shards, intext the
        # xalancbmk one, and stalls (xalancbmk only) nothing.
        assert records["fig8"]["cpu_seconds"] > 0
        assert records["intext"]["cpu_seconds"] > 0
        assert records["stalls"]["cpu_seconds"] == 0
        assert all(record["attempts"] == 1 for record in records.values())

    def test_one_progress_line_per_experiment(
        self, tmp_path, small_sweep, capsys
    ):
        driver.run_all(tmp_path / "run", scale=TINY, jobs=2)
        lines = capsys.readouterr().out.splitlines()
        progress = [
            match.group(1)
            for match in map(re.compile(r"^\s+(\S+) \[(\w+)").match, lines)
            if match
        ]
        assert sorted(progress) == sorted(driver.EXPERIMENT_SCALES)

    def test_failed_shard_fails_its_experiments(
        self, tmp_path, small_sweep, monkeypatch
    ):
        from repro.faults.inject import ENV_VAR
        from repro.faults.plan import ALWAYS, FaultPlan, FaultSpec

        plan = driver.experiment_units(TINY, 1234)
        shard = plan.experiments["stalls"].units[0]
        faults = FaultPlan(
            seed=0,
            faults={shard: FaultSpec(kind="raise", fail_attempts=ALWAYS)},
        )
        monkeypatch.setenv(ENV_VAR, str(faults.write(tmp_path / "plan.json")))
        out = driver.run_all(
            tmp_path / "run", scale=TINY, jobs=2, retries=1, backoff=0.01,
            quiet=True,
        )
        manifest = json.loads((out / "manifest.json").read_text())
        failed = {
            name for name, record in manifest["experiments"].items()
            if record["status"] != "ok"
        }
        assert failed == set(plan.dependents([shard])) == {"intext", "stalls"}
        assert manifest["experiments"]["stalls"]["error"]["unit"] == shard
        assert list(manifest["quarantine"]) == [shard]
        assert (out / "fig8.txt").exists() and not (out / "stalls.json").exists()


class TestServiceJob:
    def test_run_all_job_matches_direct_run(self, tmp_path, small_sweep):
        from repro.service import ServiceClient
        from tests.test_service import running_daemon

        direct = driver.run_all(
            tmp_path / "direct", scale=TINY, use_cache=False, quiet=True
        )
        with running_daemon(slots=2) as (daemon, socket_path, state):
            with ServiceClient(socket_path=socket_path) as client:
                job = client.submit(
                    "run_all",
                    {"scale": TINY, "outdir": str(tmp_path / "served")},
                )
                final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["units"]["total"] == len(
            driver.experiment_units(TINY, 1234)
        )
        want = json.loads((direct / "manifest.json").read_text())
        assert strip_volatile(final["result"]["manifest"]) == (
            strip_volatile(want)
        )
        assert read_dir(Path(final["outdir"])) == read_dir(direct)


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--scale", "-1"],
            ["--scale", "0"],
            ["--scale", "nan"],
            ["--scale", "inf"],
            ["--timeout", "0"],
            ["--timeout", "-5"],
            ["--timeout", "nan"],
            ["--retries", "-1"],
        ],
    )
    def test_bad_values_are_usage_errors(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(driver, "EXPERIMENT_SCALES", {"table2": None})
        with pytest.raises(SystemExit) as excinfo:
            driver.main(["--outdir", str(tmp_path / "out"), *argv])
        assert excinfo.value.code == 2
        assert not (tmp_path / "out").exists()


class TestChaosShards:
    def test_quarantined_shard_excuses_its_dependents(
        self, tmp_path, small_sweep
    ):
        from repro.faults.chaos import run_chaos
        from repro.faults.plan import FaultPlan

        uids = [unit.uid for unit in driver.experiment_units(TINY, 1234)]
        kinds = ("crash", "transient")
        # A fault seed whose permanent fault lands on a shard.
        seed = next(
            seed for seed in range(100)
            if FaultPlan(seed=seed).compile_mix(
                uids, kinds=list(kinds), fraction=1.0, permanent=1
            ).permanent_uids()[0].startswith("cells/")
        )
        report = run_chaos(
            tmp_path / "chaos", scale=TINY, jobs=2, timeout=30.0,
            retries=2, backoff=0.02, fault_seed=seed, kinds=kinds,
            fraction=1.0, permanent=1, quiet=True,
        )
        assert report.ok, report.problems + report.mismatches
        assert report.quarantined == report.plan.permanent_uids()
        assert report.quarantined[0].startswith("cells/")
        chaos = json.loads((report.chaos_dir / "manifest.json").read_text())
        plan = driver.experiment_units(TINY, 1234)
        degraded = set(plan.dependents(report.quarantined))
        assert degraded
        assert degraded == {
            name for name, record in chaos["experiments"].items()
            if record["status"] != "ok"
        }
