"""Determinism, caching, failure isolation, and resume for the
parallel sweep engine (repro.harness.parallel + run_all + seed_sweep)."""

import json

import pytest

from repro.experiments import run_all as driver
from repro.harness.configs import DefenseSpec
from repro.harness.parallel import (
    TIMING_FIELDS,
    ResultCache,
    WorkUnit,
    code_version_salt,
    execute_units,
    failed_units,
    strip_volatile,
)
from repro.harness.sweeps import seed_sweep, sweep_units
from repro.workloads.spec import profile_by_name

#: Cheap experiment subset: two real modules plus the injectable one.
FAST_SCALES = {"table1": None, "table2": None, "_selftest": None}


@pytest.fixture(autouse=True)
def _fixed_salt(monkeypatch):
    """Pin the cache salt: tests must not depend on source hashing, and
    the env var propagates to forked/spawned workers."""
    monkeypatch.setenv("REPRO_CACHE_SALT", "test-salt")


@pytest.fixture
def fast_experiments(monkeypatch):
    monkeypatch.setattr(driver, "EXPERIMENT_SCALES", dict(FAST_SCALES))


def read_outputs(outdir):
    return {
        path.name: path.read_bytes()
        for path in sorted(outdir.glob("*.txt"))
    }


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


class TestUnitPrimitives:
    def test_cache_key_depends_on_payload_and_salt(self):
        unit = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 1})
        other = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 2})
        assert unit.cache_key("s") != other.cache_key("s")
        assert unit.cache_key("s") != unit.cache_key("s2")
        assert unit.cache_key("s") == unit.cache_key("s")

    def test_code_version_salt_env_override(self):
        assert code_version_salt() == "test-salt"

    def test_strip_volatile_recurses(self):
        data = {
            "wall_seconds": 1.0,
            "nested": [{"cpu_seconds": 2, "keep": 3}],
            "started": "now",
            "cached": True,
            "keep": {"seconds": 9, "x": 1},
        }
        assert strip_volatile(data) == {
            "nested": [{"keep": 3}],
            "keep": {"x": 1},
        }
        assert "seconds" in TIMING_FIELDS

    def test_duplicate_uids_rejected(self):
        unit = WorkUnit(uid="u", module="m", func="f")
        with pytest.raises(ValueError):
            execute_units([unit, unit])

    def test_result_cache_roundtrip_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = WorkUnit(uid="u", module="m", func="f", key_payload={"a": 1})
        key = unit.cache_key("s")
        assert cache.get(key) is None
        cache.put(key, unit, {"v": 1})
        assert cache.get(key)["value"] == {"v": 1}
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None
        assert cache.hits == 1 and cache.misses == 2 and cache.stores == 1


class TestCacheKeyPins:
    """Accurate cache identity is frozen: these digests were computed
    with salt ``test-salt`` and must never move, or every result cache
    on disk silently goes cold."""

    def test_seed_sweep_cell_key(self):
        units = sweep_units(
            [profile_by_name("sjeng")],
            [DefenseSpec.rest("Secure Full")],
            seeds=(7,),
            scale=0.5,
        )
        keys = {unit.uid: unit.cache_key() for unit in units}
        assert keys == {
            "sjeng/Plain/7": "08762bf6f79dd69d3c2f394ae9e6b2ea"
            "e76248f8e162c6af071a8875c5293306",
            "sjeng/Secure Full/7": "88c4f1f7da7ea797c49f6eb2a2899acf"
            "70ddef84c8c3b70ace2189d4752d6aee",
        }

    #: ``experiment_units(0.35, 1234, scales={"fig7": None})``: the
    #: shards ``repro experiments fig7`` plans at its default scale.
    FIG7_SHARD_KEYS = {
        f"cells/b19a2b40/{benchmark}": key
        for benchmark, key in [
            ("bzip2", "c7765e37cd2c4472820d5349185b9d26"
                      "bffd02c8a854530b504d0fb6dbab4d7f"),
            ("gobmk", "407179f381f686d3a50587dcd4271ea3"
                      "a1cffb3da1c555f75a244a4b73a7a1b7"),
            ("gcc", "420da083af32ec8fa8c05b94e396cf2d"
                    "5ff0530c2c4d256e00ae919acda5fc0c"),
            ("libquantum", "13ef1dd93837c74865cd3ead4870ca25"
                           "d20eb975e23cb0834b7079944ee3c995"),
            ("astar", "3e1d93d3879ba19371a8709c5f601b7c"
                      "2053992d49cf3c6bdcfe29b6b277f40c"),
            ("h264ref", "ac58b0539089cc6a3844795f83f01247"
                        "e252f4c508f2050826ab73446558c15f"),
            ("lbm", "1e6e7b802f102e2032acd20123fd1965"
                    "725039bb799f0f66a743164badda2906"),
            ("namd", "280bfc80ed410c809b9a836f2ccfb00b"
                     "1c4c181776402700803b5a5e7b40dd51"),
            ("sjeng", "d058b8487453e52f245f612446fa26eb"
                      "6f487ff06464a3c6e8c05900347ded20"),
            ("soplex", "0b245387e3401ef8ecab500849ea2e06"
                       "a431567124328c788ed6e6e4e0553d1b"),
            ("xalancbmk", "89d3b456a941a1b661d04804d458ba91"
                          "662caac3af5dd3f4f694b294d044704d"),
            ("hmmer", "88d9c7bfda4770100e673e5d64b6c772"
                      "2cc6cf44483bedd8987ee2672703439f"),
        ]
    }

    def test_experiments_cli_unit_key(self, monkeypatch):
        """``repro experiments fig7`` plans through run_all's planner:
        its units are fig7's shards, with the planner's keys."""
        import repro.harness.parallel as parallel
        from repro.__main__ import main
        from repro.harness.parallel import UnitResult

        captured = []

        def fake_execute(units, **_):
            captured.extend(units)
            return {
                unit.uid: UnitResult(
                    uid=unit.uid,
                    ok=False,
                    error={"type": "NotRun", "message": "planning only"},
                )
                for unit in units
            }

        monkeypatch.setattr(parallel, "execute_units", fake_execute)
        assert main(["experiments", "fig7"]) == 1
        assert {
            unit.uid: unit.cache_key() for unit in captured
        } == self.FIG7_SHARD_KEYS
        plan = driver.experiment_units(0.35, 1234, scales={"fig7": None})
        assert {
            unit.uid: unit.cache_key() for unit in plan
        } == self.FIG7_SHARD_KEYS

    def test_run_all_plan_keys(self):
        """run_all's own plan: unit order and every unit's key."""
        import hashlib

        plan = driver.experiment_units(0.1, 1)
        shards = [
            f"cells/{config}/{benchmark}"
            for config in ("35c0c627", "69227d4f", "e30521c2")
            for benchmark in (
                "bzip2", "gobmk", "gcc", "libquantum", "astar",
                "h264ref", "lbm", "namd", "sjeng", "soplex",
                "xalancbmk", "hmmer",
            )
        ]
        assert [unit.uid for unit in plan] == [
            "table1", "table2", "table3", "memoverhead", "security",
            "defensezoo", *shards,
        ]
        keys = {unit.uid: unit.cache_key() for unit in plan}
        digest = hashlib.sha256(
            json.dumps(keys, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "9b5a2d5a7e642569120db5e3f7c9814d"
            "7b2d6eee88808f2a81187dc5b881ebdf"
        )


class TestDeterminism:
    def test_parallel_matches_serial_byte_for_byte(
        self, tmp_path, fast_experiments
    ):
        serial = driver.run_all(
            tmp_path / "serial", scale=0.05, jobs=1, use_cache=False,
            quiet=True,
        )
        parallel = driver.run_all(
            tmp_path / "parallel", scale=0.05, jobs=4, use_cache=False,
            quiet=True,
        )
        assert read_outputs(serial) == read_outputs(parallel)
        assert strip_volatile(read_manifest(serial)) == strip_volatile(
            read_manifest(parallel)
        )
        from repro.harness.regression import manifests_equal

        assert manifests_equal(
            serial / "manifest.json", parallel / "manifest.json"
        )

    def test_cache_hits_identical_to_cold_run(
        self, tmp_path, fast_experiments
    ):
        out = tmp_path / "run"
        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        cold_outputs = read_outputs(out)
        cold_manifest = read_manifest(out)
        assert not any(
            record["cached"]
            for record in cold_manifest["experiments"].values()
        )

        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        warm_manifest = read_manifest(out)
        assert all(
            record["cached"]
            for record in warm_manifest["experiments"].values()
        )
        assert read_outputs(out) == cold_outputs
        assert strip_volatile(warm_manifest) == strip_volatile(cold_manifest)

    def test_seed_sweep_jobs_invariant(self):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        serial = seed_sweep(profiles, specs, seeds=(1, 2), scale=0.05, jobs=1)
        fanned = seed_sweep(profiles, specs, seeds=(1, 2), scale=0.05, jobs=2)
        assert serial["Secure Full"].samples == fanned["Secure Full"].samples

    def test_seed_sweep_cache_hits_identical(self, tmp_path):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        cache = ResultCache(tmp_path / "cache")
        cold = seed_sweep(
            profiles, specs, seeds=(1, 2), scale=0.05, cache=cache
        )
        stores = cache.stores
        warm = seed_sweep(
            profiles, specs, seeds=(1, 2), scale=0.05, cache=cache
        )
        assert cache.stores == stores  # nothing recomputed
        assert warm["Secure Full"].samples == cold["Secure Full"].samples


class TestFailureIsolation:
    def test_failed_unit_recorded_not_fatal(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        out = driver.run_all(
            tmp_path / "boom", scale=0.05, jobs=2, quiet=True
        )
        manifest = read_manifest(out)
        record = manifest["experiments"]["_selftest"]
        assert record["status"] == "error"
        assert record["error"]["type"] == "InjectedFailure"
        assert "REPRO_SELFTEST_BOOM" in record["error"]["message"]
        assert "traceback" in record["error"]
        # every other cell completed and was written
        for name in ("table1", "table2"):
            assert manifest["experiments"][name]["status"] == "ok"
            assert (out / f"{name}.txt").exists()
        assert not (out / "_selftest.txt").exists()

    def test_cli_exit_codes(self, tmp_path, fast_experiments, monkeypatch):
        outdir = str(tmp_path / "cli")
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        assert driver.main(["--outdir", outdir, "--scale", "0.05"]) == 1
        monkeypatch.delenv("REPRO_SELFTEST_BOOM")
        assert driver.main(["--outdir", outdir, "--scale", "0.05"]) == 0

    def test_resume_recomputes_only_failed_cells(
        self, tmp_path, fast_experiments, monkeypatch
    ):
        out = tmp_path / "resume"
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        monkeypatch.delenv("REPRO_SELFTEST_BOOM")

        driver.run_all(out, scale=0.05, jobs=2, quiet=True)
        manifest = read_manifest(out)
        experiments = manifest["experiments"]
        assert experiments["_selftest"] == {
            **experiments["_selftest"],
            "status": "ok",
            "cached": False,  # the failed cell really re-ran
        }
        for name in ("table1", "table2"):
            assert experiments[name]["cached"] is True
        assert (out / "_selftest.txt").read_text().startswith("selftest ok")

    def test_seed_sweep_failure_surfaces_structured_error(self, monkeypatch):
        profiles = [profile_by_name("sjeng")]
        specs = [DefenseSpec.rest("Secure Full")]
        units = sweep_units(profiles, specs, seeds=(1,), scale=0.05)
        broken = [
            WorkUnit(
                uid=unit.uid,
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={},
                key_payload=unit.key_payload,
            )
            if unit.uid.startswith("sjeng/Secure Full")
            else unit
            for unit in units
        ]
        monkeypatch.setenv("REPRO_SELFTEST_BOOM", "1")
        results = execute_units(broken, jobs=2)
        failures = failed_units(results)
        assert list(failures) == ["sjeng/Secure Full/1"]
        assert failures["sjeng/Secure Full/1"]["type"] == "InjectedFailure"
        # the Plain cell still completed
        assert results["sjeng/Plain/1"].ok

        monkeypatch.setattr(
            "repro.harness.sweeps.sweep_units", lambda *a, **k: broken
        )
        with pytest.raises(RuntimeError, match="InjectedFailure"):
            seed_sweep(profiles, specs, seeds=(1,), scale=0.05, jobs=2)


class TestEngineMerge:
    def test_merge_is_by_uid_not_completion_order(self):
        units = [
            WorkUnit(
                uid=f"u{i}",
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={"scale": 1.0, "seed": i},
                key_payload={"i": i},
            )
            for i in range(6)
        ]
        results = execute_units(units, jobs=3)
        for i in range(6):
            assert results[f"u{i}"].value == f"selftest ok: scale=1.0 seed={i}"

    def test_cache_shared_across_job_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = [
            WorkUnit(
                uid=f"u{i}",
                module="repro.experiments._selftest",
                func="regenerate",
                kwargs={"scale": 1.0, "seed": i},
                key_payload={"i": i},
            )
            for i in range(4)
        ]
        execute_units(units, jobs=4, cache=cache)
        rerun = execute_units(units, jobs=1, cache=cache)
        assert all(result.cached for result in rerun.values())
