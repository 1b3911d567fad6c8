"""The one supervised-attempt executor and its placements.

Regression tests for the ways the executor's former copies drifted:
a hard worker crash under plain ``--jobs`` must surface as a
structured ``WorkerCrash`` instead of hanging, a sweep nested inside a
worker must run inline even under a fault plan, attempts must not be
capped by a thread pool, and a fabric worker must retry with the
coordinator's backoff.
"""

import asyncio
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.faults.plan import FaultPlan, FaultSpec
from repro.harness.parallel import (
    UnitExecutor,
    WorkUnit,
    backoff_delay,
    execute_units,
)
from repro.service import ServiceClient
from tests.test_fabric import SWEEP_PARAMS, running_coordinator, wait_workers

SRC = str(Path(__file__).resolve().parents[1] / "src")


def selftest_unit(uid="inner", seed=0):
    return WorkUnit(
        uid=uid,
        module="repro.experiments._selftest",
        func="regenerate",
        kwargs={"scale": 1.0, "seed": seed},
        key_payload={"seed": seed},
    )


def nested_sweep() -> str:
    """Unit target: run a one-unit sweep from inside a worker."""
    [result] = execute_units([selftest_unit()], jobs=1).values()
    if not result.ok:
        raise RuntimeError(result.error["message"])
    return result.value


def marker_then_wait(directory: str, index: int, expected: int) -> int:
    """Unit target: drop a marker, then wait (at most 10 s) until
    ``expected`` markers exist — i.e. until that many attempts run at
    once."""
    Path(directory, f"m{index}").touch()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        count = len(os.listdir(directory))
        if count >= expected:
            return count
        time.sleep(0.02)
    raise TimeoutError(f"only {count} of {expected} attempts ran at once")


class TestNestedSweep:
    def test_sweep_inside_worker_runs_inline_under_fault_plan(
        self, tmp_path, monkeypatch
    ):
        # An active plan routes the outer sweep through supervised
        # workers; the inner jobs=1 sweep, inside a daemonic worker,
        # must not try to spawn a child of its own.
        plan = FaultPlan(seed=0).write(tmp_path / "plan.json")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan))
        outer = WorkUnit(uid="outer", module=__name__, func="nested_sweep")
        results = execute_units([outer, selftest_unit("sibling")], jobs=2)
        assert results["outer"].ok, results["outer"].error
        assert results["outer"].value == "selftest ok: scale=1.0 seed=0"
        assert results["sibling"].ok


class TestHardCrash:
    def test_crash_without_resilience_is_structured_not_a_hang(self):
        # Run in a subprocess: the failure mode is a hang.
        script = textwrap.dedent(
            """
            import json, os
            from repro.harness.parallel import WorkUnit, execute_units

            def die():
                os._exit(3)

            units = [
                WorkUnit(uid="ok", module="repro.experiments._selftest",
                         func="regenerate",
                         kwargs={"scale": 1.0, "seed": 0}),
                WorkUnit(uid="boom", module="__main__", func="die"),
            ]
            results = execute_units(units, jobs=2)
            print(json.dumps({uid: [r.ok, r.error]
                              for uid, r in results.items()}))
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_FAULT_PLAN", None)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout.strip().splitlines()[-1])
        assert results["ok"] == [True, None]
        ok, error = results["boom"]
        assert not ok
        assert error["type"] == "WorkerCrash"
        assert "exit code 3" in error["message"]


class TestConcurrency:
    def test_attempts_are_not_capped_by_a_thread_pool(self, tmp_path):
        units = [
            WorkUnit(
                uid=f"m{index}",
                module=__name__,
                func="marker_then_wait",
                kwargs={"directory": str(tmp_path), "index": index,
                        "expected": 8},
            )
            for index in range(8)
        ]
        executor = UnitExecutor()

        async def run_all_at_once():
            return await asyncio.gather(
                *(executor.run_unit(unit) for unit in units)
            )

        results = asyncio.run(run_all_at_once())
        assert [result.ok for result in results] == [True] * 8, [
            result.error for result in results if not result.ok
        ]


class TestFabricPolicy:
    def test_worker_retries_with_coordinator_backoff(self, tmp_path):
        uid = "bzip2/Secure Heap/1"
        backoff = 0.4
        plan = FaultPlan(seed=1)
        plan.faults[uid] = FaultSpec(kind="transient", fail_attempts=1)
        env = dict(os.environ, REPRO_FAULT_PLAN=str(
            plan.write(tmp_path / "plan.json")
        ))
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with running_coordinator(retries=1, backoff=backoff) as (
            daemon, socket_path, state,
        ):
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", socket_path, "--name", "w0"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                wait_workers(socket_path, 1)
                with ServiceClient(socket_path=socket_path) as client:
                    job = client.submit("sweep", dict(SWEEP_PARAMS))
                    retries = []
                    for event in client.watch(job["id"]):
                        if event.get("type") == "done":
                            break
                        if event.get("kind") == "fault.retry":
                            retries.append(event)
                    final = client.status(job["id"])
            finally:
                worker.terminate()
                worker.wait(timeout=10)
        assert final["state"] == "done"
        assert [event["uid"] for event in retries] == [uid]
        assert retries[0]["delay"] == round(
            backoff_delay(backoff, 1, uid, 0), 4
        )
