"""``repro loadgen``: drive the fabric at load and prove it under chaos.

Two phases, both against *real* daemon processes (the coordinator and
its workers are spawned as subprocesses of this harness, exactly as an
operator would run them):

**Load** — for each point on the worker-count curve, a fresh fabric is
stood up cold and a seeded stream of sweep submissions is fired at it
from concurrent client threads: heavy dedup overlap (many submissions
share the same content-addressed cells), a priority mix, and bounded
admission (``queue_full`` rejections are retried with backoff and
counted, never dropped).  Each submission's accept-to-done latency is
recorded; the point reports p50/p90/p99 latency, submissions/second,
and the dedup ledger.  The structural invariant is exact: however many
submissions race, the fabric executes each unique cell exactly once
(``executed == unique_units``).

**Chaos** — the headline proof.  A canonical ``run_all`` job is run
twice: a fault-free single-worker baseline, then a multi-worker run
with a seeded unit-level fault plan active inside the workers
(``REPRO_FAULT_PLAN``) *and* a seeded :class:`WorkerKillPlan` executed
against the fleet — workers SIGKILLed mid-flight once the coordinator
has redeemed N results, replacements rejoining after a delay.  The run
passes only if the merged manifest is ``strip_volatile``-identical to
the baseline for every non-quarantined unit and the quarantine set
equals the fault plan's permanents exactly — worker death may cost
reassignments, never results.

Deterministic outcomes (unique/executed counts, identity verdict,
quarantine set) are committed to ``BENCH_service.json`` and gated in
CI via ``--baseline``; timing numbers (latency, throughput) are
recorded for trend-watching but never gated — shared runners are too
noisy for that to be signal.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.chaos import sweep_mismatches
from repro.faults.plan import FaultPlan, WorkerKillPlan
from repro.service.client import ServiceClient, ServiceError, wait_for_daemon

#: Format tag of the committed benchmark artifact.
FORMAT = "bench-service/v1"

#: Experiments of the canonical chaos job: every run_all experiment
#: without a fixed large-scale override, so the job tracks ``--scale``
#: and stays CI-sized.
FAST_EXPERIMENTS = (
    "table1", "table2", "table3", "fig7", "fig8",
    "intext", "security", "stalls",
)

#: Specs used for load-phase sweep cells (one spec keeps cells cheap;
#: dedup is about cell *identity*, not cell cost).
LOAD_SPEC = "Secure Heap"


@dataclass
class LoadgenOptions:
    """Knobs of one loadgen run (defaults are the CI ``--quick`` shape)."""

    out: str
    seed: int = 11
    fault_seed: int = 7
    submissions: int = 400
    unique_cells: int = 24
    threads: int = 8
    workers_curve: tuple = (1, 2)
    slots: int = 2  # per worker
    scale: float = 0.05
    chaos_workers: int = 2
    kills: int = 1
    permanent: int = 1
    timeout: float = 120.0  # per-unit wall-clock kill (worker-side)
    retries: int = 2  # worker-side retry budget per unit
    job_deadline: float = 600.0  # give up waiting for any one job
    quiet: bool = False


# ---------------------------------------------------------------- fleet


class Fleet:
    """One coordinator + N worker subprocesses over a short Unix socket.

    Sockets live in a fresh ``/tmp`` directory because ``AF_UNIX``
    paths are capped at ~108 bytes and loadgen output directories can
    be arbitrarily deep.
    """

    def __init__(
        self,
        state_dir: Path,
        options: LoadgenOptions,
        worker_env: Optional[Dict[str, str]] = None,
        max_jobs: int = 16,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.options = options
        self.worker_env = dict(worker_env or {})
        self.max_jobs = max_jobs
        self.socket_dir = Path(tempfile.mkdtemp(prefix="repro-fab-"))
        self.socket_path = str(self.socket_dir / "d.sock")
        self.coordinator: Optional[subprocess.Popen] = None
        self.workers: List[Optional[subprocess.Popen]] = []
        self._next_worker = 0

    def _env(self, extra: Dict[str, str]) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        parts = [src] + [
            p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
        ]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        env.update(extra)
        return env

    def start_coordinator(self) -> None:
        log = (self.state_dir / "coordinator.out").open("ab")
        self.coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--coordinator",
                "--state-dir", str(self.state_dir),
                "--socket", self.socket_path,
                "--max-jobs", str(self.max_jobs),
                "--timeout", str(self.options.timeout),
                "--retries", str(self.options.retries),
                "--heartbeat", "0.5",
                "--drain-grace", "30",
            ],
            env=self._env({}),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        wait_for_daemon(socket_path=self.socket_path, timeout=30.0)

    def start_worker(self) -> int:
        """Launch one worker; returns its index in the fleet list."""
        index = self._next_worker
        self._next_worker += 1
        log = (self.state_dir / f"worker-{index}.out").open("ab")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", self.socket_path,
                "--name", f"w{index}",
                "--slots", str(self.options.slots),
            ],
            env=self._env(self.worker_env),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        self.workers.append(process)
        return index

    def kill_worker(self, index: int) -> bool:
        """SIGKILL one worker (no drain, no goodbye) — the chaos move."""
        process = self.workers[index] if index < len(self.workers) else None
        if process is None or process.poll() is not None:
            return False
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        self.workers[index] = None
        return True

    def live_worker_indices(self) -> List[int]:
        return [
            index
            for index, process in enumerate(self.workers)
            if process is not None and process.poll() is None
        ]

    def client(self) -> ServiceClient:
        return ServiceClient(socket_path=self.socket_path)

    def wait_capacity(self, min_workers: int, timeout: float = 30.0) -> None:
        """Block until the coordinator has registered enough workers."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                with self.client() as client:
                    if client.workers()["fabric"]["workers"] >= min_workers:
                        return
            except (OSError, ServiceError):
                pass
            time.sleep(0.1)
        raise TimeoutError(
            f"fabric did not reach {min_workers} worker(s) in {timeout}s"
        )

    def shutdown(self) -> None:
        # Workers first (SIGTERM → clean bye), then drain the
        # coordinator, then hard-kill anything that ignored us.
        for process in self.workers:
            if process is not None and process.poll() is None:
                process.terminate()
        try:
            with self.client() as client:
                client.shutdown()
        except (OSError, ServiceError):
            pass
        if self.coordinator is not None:
            try:
                self.coordinator.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.coordinator.kill()
                self.coordinator.wait(timeout=10)
        for process in self.workers:
            if process is not None and process.poll() is None:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
        try:
            for leftover in self.socket_dir.iterdir():
                leftover.unlink()
            self.socket_dir.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------- load phase


def generate_submissions(
    seed: int, count: int, unique_cells: int, scale: float
) -> List[Dict]:
    """The seeded submission stream (same seed → same stream).

    The cell pool is ``unique_cells`` distinct (benchmark, seed) pairs;
    each submission draws one benchmark and a small seed subset from
    the pool plus a weighted priority, so the stream has heavy overlap
    (dedup pressure) and a realistic priority mix.
    """
    from repro.workloads.spec import ALL_PROFILES

    benches = [profile.name for profile in ALL_PROFILES]
    benches = benches[: max(1, min(len(benches), unique_cells))]
    seeds_per_bench = max(1, -(-unique_cells // len(benches)))  # ceil
    pool: Dict[str, List[int]] = {}
    remaining = unique_cells
    for bench in benches:
        take = min(seeds_per_bench, remaining)
        if take <= 0:
            break
        pool[bench] = list(range(1, take + 1))
        remaining -= take
    rng = random.Random(seed)
    pool_benches = sorted(pool)
    stream = []
    for _ in range(count):
        bench = pool_benches[rng.randrange(len(pool_benches))]
        available = pool[bench]
        width = rng.choice((1, 1, 1, 2))
        seeds = sorted(rng.sample(available, min(width, len(available))))
        priority = rng.choices(
            ("high", "normal", "low"), weights=(1, 6, 2)
        )[0]
        stream.append(
            {
                "params": {
                    "benchmarks": [bench],
                    "specs": [LOAD_SPEC],
                    "seeds": seeds,
                    "scale": scale,
                    "live": False,
                },
                "priority": priority,
            }
        )
    return stream


def unique_cell_count(stream: List[Dict]) -> int:
    cells = set()
    for submission in stream:
        bench = submission["params"]["benchmarks"][0]
        for seed in submission["params"]["seeds"]:
            cells.add((bench, seed))
    return len(cells)


def unique_unit_count(stream: List[Dict]) -> int:
    """Distinct work units the stream decomposes to.

    Every sweep cell expands to two units — the requested spec plus the
    implicit Plain baseline ``sweep_units`` always includes — and both
    are content-addressed, so the whole storm must execute exactly this
    many simulations.
    """
    return 2 * unique_cell_count(stream)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[index]


def run_load_point(
    fleet: Fleet, stream: List[Dict], options: LoadgenOptions
) -> Dict:
    """Fire the stream from ``options.threads`` clients; returns stats."""
    latencies: List[float] = []
    rejections = [0]
    errors: List[str] = []
    lock = threading.Lock()

    def submitter(chunk: List[Dict]) -> None:
        try:
            with fleet.client() as client:
                for submission in chunk:
                    started = time.perf_counter()
                    while True:
                        try:
                            job = client.submit(
                                "sweep",
                                submission["params"],
                                priority=submission["priority"],
                            )
                            break
                        except ServiceError as error:
                            if error.code != "queue_full":
                                raise
                            with lock:
                                rejections[0] += 1
                            time.sleep(0.05)
                    final = client.wait(job["id"], poll=0.02)
                    elapsed = time.perf_counter() - started
                    if final["state"] != "done":
                        raise RuntimeError(
                            f"{job['id']} finished {final['state']}: "
                            f"{final.get('error')}"
                        )
                    with lock:
                        latencies.append(elapsed)
        except Exception as error:  # noqa: BLE001 — surfaced below
            with lock:
                errors.append(f"{type(error).__name__}: {error}")

    chunks = [
        stream[index :: options.threads] for index in range(options.threads)
    ]
    started = time.perf_counter()
    threads = [
        threading.Thread(target=submitter, args=(chunk,), daemon=True)
        for chunk in chunks
        if chunk
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=options.job_deadline)
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(
            f"load phase failed: {len(errors)} submitter error(s); "
            f"first: {errors[0]}"
        )

    with fleet.client() as client:
        pong = client.ping()
    stats = pong["stats"]
    latencies.sort()
    return {
        "submissions": len(stream),
        "unique_units": unique_unit_count(stream),
        "executed": stats["executions"],
        "dedup_hits": stats["dedup_hits"],
        "dedup_exact": stats["executions"] == unique_unit_count(stream),
        "rejections": rejections[0],
        "wall_seconds": round(wall, 3),
        "jobs_per_second": round(len(stream) / wall, 2) if wall else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1000, 1),
            "p90": round(_percentile(latencies, 0.90) * 1000, 1),
            "p99": round(_percentile(latencies, 0.99) * 1000, 1),
        },
        "cache": stats.get("cache", {}),
        "fabric": pong.get("fabric", {}),
    }


# ---------------------------------------------------------- chaos phase


def _submit_run_all(
    fleet: Fleet, outdir: Path, options: LoadgenOptions
) -> str:
    with fleet.client() as client:
        job = client.submit(
            "run_all",
            {
                "scale": options.scale,
                "seed": 1234,
                "names": list(FAST_EXPERIMENTS),
                "outdir": str(outdir),
            },
        )
    return job["id"]


def _wait_job(fleet: Fleet, job_id: str, deadline_s: float) -> Dict:
    """Poll a job to terminal state, tolerating coordinator hiccups."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            with fleet.client() as client:
                job = client.status(job_id)
            if job["state"] in ("done", "failed"):
                return job
        except (OSError, ServiceError):
            pass
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} still open after {deadline_s}s")


def _execute_kill_plan(
    fleet: Fleet,
    kill_plan: WorkerKillPlan,
    job_id: str,
    options: LoadgenOptions,
    say,
) -> List[Dict]:
    """Watch the redeemed-results counter; fire kills on schedule."""
    executed: List[Dict] = []
    pending = sorted(kill_plan.kills, key=lambda kill: kill.after_results)
    rejoin_at: List[float] = []
    deadline = time.monotonic() + options.job_deadline
    while (pending or rejoin_at) and time.monotonic() < deadline:
        now = time.monotonic()
        while rejoin_at and now >= rejoin_at[0]:
            rejoin_at.pop(0)
            index = fleet.start_worker()
            say(f"loadgen: replacement worker w{index} joining")
        redeemed = None
        job_state = None
        try:
            with fleet.client() as client:
                view = client.workers()
                redeemed = (view.get("fabric") or {}).get("redeemed", 0)
                job_state = client.status(job_id)["state"]
        except (OSError, ServiceError):
            pass
        if redeemed is not None:
            while pending and redeemed >= pending[0].after_results:
                kill = pending.pop(0)
                live = fleet.live_worker_indices()
                if not live:
                    break
                victim = live[kill.worker % len(live)]
                if fleet.kill_worker(victim):
                    say(
                        f"loadgen: SIGKILL worker {victim} after "
                        f"{redeemed} redeemed result(s)"
                    )
                    executed.append(
                        {
                            "worker": victim,
                            "after_results": kill.after_results,
                            "observed_redeemed": redeemed,
                        }
                    )
                    rejoin_at.append(
                        time.monotonic() + kill.rejoin_delay
                    )
        if job_state in ("done", "failed"):
            # Too late for any kill still pending — record that, the
            # bench gate checks kills actually landed.
            break
        time.sleep(0.05)
    return executed


def run_chaos_phase(options: LoadgenOptions, say) -> Dict:
    out = Path(options.out)
    from repro.experiments.run_all import experiment_units

    units = experiment_units(
        options.scale, 1234, names=list(FAST_EXPERIMENTS)
    )

    # -- fault-free single-worker baseline ------------------------------
    say("loadgen: chaos baseline (1 worker, no faults)")
    baseline_run = out / "baseline-run"
    fleet = Fleet(out / "baseline-state", options)
    try:
        fleet.start_coordinator()
        fleet.start_worker()
        fleet.wait_capacity(1)
        job_id = _submit_run_all(fleet, baseline_run, options)
        job = _wait_job(fleet, job_id, options.job_deadline)
        if job["state"] != "done":
            raise RuntimeError(
                f"baseline job failed: {job.get('error')}"
            )
    finally:
        fleet.shutdown()

    # -- seeded fault plan + kill schedule ------------------------------
    fault_plan = FaultPlan(seed=options.fault_seed).compile_mix(
        [unit.uid for unit in units],
        kinds=("transient", "crash"),
        fraction=0.5,
        permanent=options.permanent,
        hang_seconds=300.0,
    )
    fault_path = fault_plan.write(out / "fault-plan.json")
    kill_plan = WorkerKillPlan.compile(
        seed=options.seed,
        workers=options.chaos_workers,
        kills=options.kills,
        total_units=len(units),
        rejoin_delay=1.0,
    )
    kill_plan.write(out / "kill-plan.json")
    say(
        "loadgen: chaos run "
        f"({options.chaos_workers} workers, {options.kills} kill(s), "
        + ", ".join(
            f"{count} {kind}"
            for kind, count in fault_plan.kind_counts().items()
        )
        + f", {options.permanent} permanent)"
    )

    # -- chaos run: multi-worker + fault env + kill schedule ------------
    chaos_run = out / "chaos-run"
    fleet = Fleet(
        out / "chaos-state",
        options,
        worker_env={"REPRO_FAULT_PLAN": str(fault_path)},
    )
    kills_executed: List[Dict] = []
    try:
        fleet.start_coordinator()
        for _ in range(options.chaos_workers):
            fleet.start_worker()
        fleet.wait_capacity(options.chaos_workers)
        job_id = _submit_run_all(fleet, chaos_run, options)
        kills_executed = _execute_kill_plan(
            fleet, kill_plan, job_id, options, say
        )
        job = _wait_job(fleet, job_id, options.job_deadline)
        if job["state"] != "done":
            raise RuntimeError(f"chaos job failed: {job.get('error')}")
        with fleet.client() as client:
            fabric_stats = client.ping().get("fabric", {})
    finally:
        fleet.shutdown()

    # Drop the lease journal next to the manifest so ``repro report``
    # on the chaos output renders the fabric section.
    journal = fleet.state_dir / "fabric-events.jsonl"
    if journal.is_file():
        shutil.copy(journal, chaos_run / "fabric-events.jsonl")

    chaos_manifest = json.loads((chaos_run / "manifest.json").read_text())
    quarantine_actual = sorted(chaos_manifest.get("quarantine", {}))
    quarantine_expected = fault_plan.permanent_uids()
    mismatches = sweep_mismatches(
        baseline_run, chaos_run, units.dependents(quarantine_actual)
    )
    identity = (
        not mismatches and quarantine_actual == quarantine_expected
    )
    return {
        "workers": options.chaos_workers,
        "kills_planned": options.kills,
        "kills_executed": kills_executed,
        "permanent_faults": options.permanent,
        "fault_kinds": fault_plan.kind_counts(),
        "identity": identity,
        "mismatches": mismatches,
        "quarantine_expected": quarantine_expected,
        "quarantine_actual": quarantine_actual,
        "fabric": fabric_stats,
        "units": len(units),
    }


# ----------------------------------------------------------- bench gate


def compare_to_baseline(current: Dict, baseline: Dict) -> List[str]:
    """Deterministic-field drift between a run and the committed bench.

    Timing fields are never compared; everything here is exact by
    construction, so any difference is a real behaviour change.
    """
    problems: List[str] = []
    if baseline.get("format") != current.get("format"):
        problems.append(
            f"format: {baseline.get('format')} != {current.get('format')}"
        )
    if baseline.get("config") != current.get("config"):
        problems.append(
            "config differs from baseline (regenerate BENCH_service.json "
            "when loadgen parameters change)"
        )
    base_curves = {
        point["workers"]: point
        for point in baseline.get("load", {}).get("curves", [])
    }
    for point in current.get("load", {}).get("curves", []):
        base = base_curves.get(point["workers"])
        if base is None:
            problems.append(f"workers={point['workers']}: not in baseline")
            continue
        for fieldname in ("submissions", "unique_units", "executed"):
            if point.get(fieldname) != base.get(fieldname):
                problems.append(
                    f"workers={point['workers']}: {fieldname} "
                    f"{point.get(fieldname)} != baseline "
                    f"{base.get(fieldname)}"
                )
        if not point.get("dedup_exact"):
            problems.append(
                f"workers={point['workers']}: executed != unique_units "
                "(single-flight dedup regressed)"
            )
    chaos = current.get("chaos", {})
    base_chaos = baseline.get("chaos", {})
    if not chaos.get("identity"):
        problems.append(
            "chaos identity failed: "
            + "; ".join(chaos.get("mismatches", ["(no detail)"]))
        )
    if chaos.get("quarantine_expected") != chaos.get("quarantine_actual"):
        problems.append(
            f"quarantine {chaos.get('quarantine_actual')} != plan "
            f"permanents {chaos.get('quarantine_expected')}"
        )
    if base_chaos and chaos.get("quarantine_expected") != base_chaos.get(
        "quarantine_expected"
    ):
        problems.append(
            "fault plan drifted: expected quarantine set changed"
        )
    if len(chaos.get("kills_executed", [])) < chaos.get("kills_planned", 0):
        problems.append(
            f"only {len(chaos.get('kills_executed', []))} of "
            f"{chaos.get('kills_planned')} planned kill(s) landed "
            "mid-flight"
        )
    return problems


def run_loadgen(options: LoadgenOptions) -> Dict:
    """Run both phases; returns the bench payload (not yet gated)."""
    say = (lambda *_: None) if options.quiet else print
    out = Path(options.out)
    out.mkdir(parents=True, exist_ok=True)

    stream = generate_submissions(
        options.seed, options.submissions, options.unique_cells,
        options.scale,
    )
    say(
        f"loadgen: {options.submissions} submissions over "
        f"{unique_cell_count(stream)} unique cell(s), "
        f"{options.threads} client thread(s)"
    )

    curves = []
    for workers in options.workers_curve:
        say(f"loadgen: load point — {workers} worker(s) cold")
        fleet = Fleet(out / f"load-{workers}w", options)
        try:
            fleet.start_coordinator()
            for _ in range(workers):
                fleet.start_worker()
            fleet.wait_capacity(workers)
            point = run_load_point(fleet, stream, options)
        finally:
            fleet.shutdown()
        point["workers"] = workers
        point["slots_per_worker"] = options.slots
        curves.append(point)
        say(
            f"loadgen:   {point['jobs_per_second']:.1f} jobs/s, "
            f"p50 {point['latency_ms']['p50']:.0f}ms, "
            f"p99 {point['latency_ms']['p99']:.0f}ms, "
            f"{point['executed']} executed / "
            f"{point['unique_units']} unique"
        )

    chaos = run_chaos_phase(options, say)
    say(
        "loadgen: chaos identity "
        + ("PASS" if chaos["identity"] else "FAIL")
        + f" (quarantine {chaos['quarantine_actual']})"
    )

    return {
        "format": FORMAT,
        "config": {
            "seed": options.seed,
            "fault_seed": options.fault_seed,
            "submissions": options.submissions,
            "unique_cells": options.unique_cells,
            "scale": options.scale,
            "workers_curve": list(options.workers_curve),
            "slots_per_worker": options.slots,
            "chaos_workers": options.chaos_workers,
            "kills": options.kills,
            "permanent": options.permanent,
        },
        "load": {"curves": curves},
        "chaos": chaos,
    }
