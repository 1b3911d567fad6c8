"""Persistent worker pool of the simulation job service.

The daemon cannot use :func:`repro.harness.parallel.execute_units`
directly — that call owns its workers for one synchronous sweep, while
the service interleaves units from *many* jobs, deduplicates across
them, and must keep admitting work while simulations run.  So the pool
reuses the engine one layer lower: each attempt is one supervised
worker process (the same :func:`~repro.harness.parallel._supervised_worker`
entry the resilience layer spawns), the blocking supervise loop runs in
a thread via :func:`asyncio.to_thread`, and the retry/backoff/
quarantine policy is re-expressed as an ``async`` loop so the event
loop stays responsive between attempts.

Per-attempt processes — not a long-lived ``Pool`` — are a deliberate
inheritance from the resilience layer: a hung simulation is SIGKILLed
at its deadline and a crashed one takes down exactly one attempt,
never the daemon.  Workers get the daemon's progress queue installed
(tagged per execution), so interval-sampler snapshots stream to
watchers while units run.

Draining: :meth:`UnitExecutor.begin_drain` stops retries and arms a
grace deadline; in-flight attempts that outlive it are killed and
report a ``WorkerAborted`` structured error, which the scheduler treats
as "requeue on restart", not quarantine.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional, Tuple

from repro.harness.parallel import (
    UnitResult,
    WorkUnit,
    _pool_context,
    _supervised_worker,
    backoff_delay,
)

#: Poll period of the supervise loop; bounds drain/timeout latency.
_POLL_SECONDS = 0.05


class UnitExecutor:
    """Runs work units as supervised processes under asyncio.

    One instance per daemon.  Concurrency is *not* limited here — the
    scheduler owns slot accounting so that priority order decides which
    unit gets a freed slot; this class only knows how to run one unit
    to a final :class:`UnitResult` (retries included).
    """

    def __init__(
        self,
        progress_queue=None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        retry_seed: int = 0,
    ) -> None:
        self.context = _pool_context()
        self.progress_queue = progress_queue
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.retry_seed = retry_seed
        self._draining = False
        self._drain_deadline: Optional[float] = None

    def make_queue(self):
        """A progress queue matching this executor's mp context."""
        return self.context.Queue()

    def begin_drain(self, grace: float) -> None:
        """Stop retrying; kill attempts still running after ``grace``."""
        self._draining = True
        self._drain_deadline = time.monotonic() + max(0.0, grace)

    async def run_unit(
        self,
        unit: WorkUnit,
        tag: Optional[str] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
    ) -> UnitResult:
        """Run one unit to its final result (retries + quarantine).

        ``tag`` stamps the worker's progress events so the daemon can
        route one shared queue to the right execution's watchers.
        ``on_event`` receives the same ``fault.*`` decisions the engine
        emits on its tracer (retry, timeout, crash, quarantine, abort),
        called on the event loop.
        """
        emit = on_event if on_event is not None else (lambda kind, info: None)
        attempt = 1
        cpu = wall = 0.0
        while True:
            result, exit_code = await asyncio.to_thread(
                self._attempt, unit, attempt, tag
            )
            cpu += result.cpu_seconds
            wall += result.wall_seconds
            error_type = (result.error or {}).get("type")
            if error_type == "WorkerTimeout":
                emit("fault.timeout", {"uid": unit.uid, "attempt": attempt,
                                       "timeout": self.timeout})
            elif error_type == "WorkerCrash":
                emit("fault.crash", {"uid": unit.uid, "attempt": attempt,
                                     "exit_code": exit_code})
            aborted = error_type == "WorkerAborted"
            if result.ok or aborted or attempt > self.retries or self._draining:
                result.cpu_seconds, result.wall_seconds = cpu, wall
                result.attempts = attempt
                if not result.ok and not aborted:
                    result.quarantined = True
                    emit(
                        "fault.quarantine",
                        {
                            "uid": unit.uid,
                            "attempts": attempt,
                            "error": result.error["type"],
                        },
                    )
                return result
            delay = backoff_delay(
                self.backoff, attempt, unit.uid, self.retry_seed
            )
            emit(
                "fault.retry",
                {
                    "uid": unit.uid,
                    "attempt": attempt,
                    "error": result.error["type"],
                    "delay": round(delay, 4),
                },
            )
            await asyncio.sleep(delay)
            attempt += 1

    def _attempt(
        self, unit: WorkUnit, attempt: int, tag: Optional[str]
    ) -> Tuple[UnitResult, Optional[int]]:
        """One supervised attempt; blocking — runs in a worker thread.

        Mirrors the engine's ``_run_supervised`` per-connection logic:
        pipe EOF without a result is a hard crash, the per-unit
        ``timeout`` SIGKILLs a hung worker, and an expired drain
        deadline SIGKILLs with a ``WorkerAborted`` error instead.
        Returns the result and, for a crash, the worker's exit code.
        """
        parent_conn, child_conn = self.context.Pipe(duplex=False)
        task = (unit.uid, unit.module, unit.func, unit.kwargs, attempt)
        process = self.context.Process(
            target=_supervised_worker,
            args=(child_conn, task, self.progress_queue, tag),
            daemon=True,
        )
        started = time.monotonic()
        process.start()
        child_conn.close()
        deadline = (
            started + self.timeout if self.timeout is not None else None
        )

        def kill_with(
            error_type: str, message: str
        ) -> Tuple[UnitResult, None]:
            process.kill()
            process.join(timeout=5.0)
            parent_conn.close()
            return UnitResult(
                uid=unit.uid,
                ok=False,
                error={"type": error_type, "message": message,
                       "traceback": ""},
                wall_seconds=time.monotonic() - started,
                attempts=attempt,
            ), None

        try:
            while True:
                if parent_conn.poll(_POLL_SECONDS):
                    try:
                        result = parent_conn.recv()
                    except (EOFError, OSError):
                        # EOF can arrive before the worker has exited
                        # (it closed the pipe, then died): reap first so
                        # the exit code is known.
                        process.join(timeout=5.0)
                        code = process.exitcode
                        return UnitResult(
                            uid=unit.uid,
                            ok=False,
                            error={
                                "type": "WorkerCrash",
                                "message": (
                                    f"worker died with exit code {code} "
                                    f"on attempt {attempt}"
                                ),
                                "traceback": "",
                            },
                            wall_seconds=time.monotonic() - started,
                            attempts=attempt,
                        ), code
                    process.join(timeout=5.0)
                    return result, None
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    return kill_with(
                        "WorkerTimeout",
                        f"exceeded {self.timeout}s wall-clock on "
                        f"attempt {attempt}",
                    )
                if (
                    self._drain_deadline is not None
                    and now >= self._drain_deadline
                ):
                    return kill_with(
                        "WorkerAborted",
                        "daemon drain grace expired; unit will be "
                        "re-run after restart",
                    )
        finally:
            try:
                parent_conn.close()
            except OSError:
                pass
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
