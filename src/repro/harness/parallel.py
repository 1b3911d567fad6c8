"""Parallel sweep engine: work units, result cache, failure isolation.

Experiment sweeps (``run_all``, ``seed_sweep``) decompose into
independent *work units* — picklable descriptions of one computation
(an experiment regeneration, or one (benchmark, spec, seed) simulation
cell).  :func:`execute_units` fans units out over supervised worker
processes and merges results deterministically regardless of completion
order: results are keyed by unit id, and callers iterate in their own
unit order, so ``jobs=4`` output is byte-identical to ``jobs=1``.

Three properties the engine guarantees:

* **Caching.**  Every unit has a content-addressed key — a hash of its
  full configuration payload plus a code-version salt — and completed
  values are written to an on-disk :class:`ResultCache`.  Re-running a
  sweep skips every cell whose key is already present; editing any
  source file under ``repro`` changes the salt and invalidates the
  cache wholesale (stale results silently poisoning a sweep is worse
  than recomputing).  Entries are cross-checked against the requesting
  unit's identity on read: a corrupt, truncated, or mismatched entry
  (stale salt logic, hash collision, hand-edited file) reads as a miss.
* **Failure isolation.**  A unit that raises does not abort the sweep:
  the worker catches the exception and returns a structured error
  (type, message, traceback) that the caller records; all other units
  complete.
* **Resume.**  Because successful units are cached as they finish, a
  crashed, interrupted, or partially-failed sweep re-run recomputes
  only the missing/failed cells.  ``KeyboardInterrupt`` flushes every
  completed-but-unmerged result to the cache before propagating.

On top of failure isolation sits **one supervised-attempt executor**
(:class:`UnitExecutor`), used by every parallel or resilient sweep,
by ``repro serve`` and by ``repro worker``.  Each attempt runs in a
dedicated worker process awaited on its result pipe: a result, pipe
EOF (a hard crash, reported with the reaped exit code), the per-unit
wall-clock ``timeout`` (the worker is SIGKILLed), or an expired drain.
One policy loop, :func:`run_attempts`, decides what happens next:
retry with seeded exponential backoff + jitter, or — once the retry
budget is spent — *quarantine*, so the sweep completes in a
marked-degraded state instead of aborting.  A dead worker can never
poison other units, because each attempt owns its process.  The
distributed fabric is a second *placement* of the same loop (see
:mod:`repro.service.fabric`).  Retry/timeout/crash/quarantine
decisions are emitted as ``fault.*`` events through one
``emit(kind, info)`` callback (an engine tracer, see
:mod:`repro.obs.tracer`, or a daemon job's event stream).  Sequential
runs with no resilience asked for — and every nested sweep a worker
process starts — run inline, with no executor and no event loop.

Timing discipline: units report their own ``cpu_seconds`` (process CPU
time, well-defined under parallelism) and ``wall_seconds``; retried
units accumulate timing across *all* attempts, failed ones included,
so degraded sweeps do not under-report cost.  Sweep-level wall time is
the caller's.  :func:`strip_volatile` removes exactly the fields that
vary run-to-run so determinism comparisons and regression diffs can
ignore them.

**Progress channel.**  A caller may pass an ``on_progress=`` callable
to :func:`execute_units`; units then have :func:`emit_progress`
installed, and anything the unit's target calls it with — interval
sampler snapshots, custom milestones — is tagged with the unit id and
handed to the callable in the parent *while the unit runs*, not after:
inline units call it directly, supervised attempts send the event over
their result pipe, ahead of the result (the job service routes it to
watchers).  This is what ``repro sweep --live`` and the job service's
``repro watch`` render.  With no callable installed
:func:`emit_progress` is a dormant ``is None`` check, so cache keys,
results, and the hot path are unaffected.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import multiprocessing
import os
import random
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Awaitable, Callable, Dict, Iterable, List, Optional, Tuple,
)

# asyncio is imported inside the executor's functions, not here: the
# inline path and every importer of this module stay free of its
# import cost.

#: Environment variable activating worker-side fault injection (see
#: :mod:`repro.faults.inject`).  Checked once per work-unit attempt.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fields that record *when/how* a sweep ran rather than *what* it
#: computed.  Byte-identical-output comparisons (tests, regression
#: tooling) strip these; everything else in a manifest must be
#: deterministic.
TIMING_FIELDS = frozenset(
    {"started", "finished", "seconds", "cpu_seconds", "wall_seconds"}
)

#: Timing fields plus run-circumstance fields (worker count, cache
#: hits, retry/quarantine bookkeeping) that legitimately differ
#: between equivalent runs — a healed chaos sweep must compare equal
#: to a fault-free one.
VOLATILE_FIELDS = TIMING_FIELDS | frozenset(
    {"jobs", "cached", "hostname", "attempts", "fault", "quarantine"}
)


def strip_volatile(obj, fields: frozenset = VOLATILE_FIELDS):
    """Recursively drop volatile fields from JSON-shaped data."""
    if isinstance(obj, dict):
        return {
            key: strip_volatile(value, fields)
            for key, value in obj.items()
            if key not in fields
        }
    if isinstance(obj, list):
        return [strip_volatile(value, fields) for value in obj]
    return obj


#: Worker-side progress channel (see module docstring).  Installed by
#: the supervised worker entry / inline path, read
#: by :func:`emit_progress` from inside a unit's target callable.
_PROGRESS_SINK: Optional[Callable[[dict], None]] = None
_PROGRESS_TAG: Optional[str] = None
_PROGRESS_UID: Optional[str] = None


def install_progress(sink, tag: Optional[str] = None) -> None:
    """Install a progress sink in this process: a callable taking one
    event (a queue's ``put``, a pipe's ``send``), or None to remove it.

    ``tag`` disambiguates streams when one consumer serves several
    concurrent executions whose unit ids may collide (the job service
    tags each execution); plain sweeps leave it None and rely on unit
    ids being unique within one engine run.
    """
    global _PROGRESS_SINK, _PROGRESS_TAG
    _PROGRESS_SINK = sink
    _PROGRESS_TAG = tag


def emit_progress(kind: str, **fields) -> bool:
    """Stream one progress event to the parent; returns True if sent.

    Callable from any work-unit target.  With no channel installed it
    is a no-op returning False, so live-capable units run identically
    (and hit the same cache entries) outside a live sweep.  Events are
    flat dicts: ``{"kind": kind, "uid": <current unit>, **fields}``
    plus ``"tag"`` when one was installed.  Delivery is best-effort —
    a channel torn down mid-drain must never fail the unit.
    """
    sink = _PROGRESS_SINK
    if sink is None:
        return False
    event = {"kind": kind, "uid": _PROGRESS_UID}
    if _PROGRESS_TAG is not None:
        event["tag"] = _PROGRESS_TAG
    event.update(fields)
    try:
        sink(event)
    except Exception:  # noqa: BLE001 — best-effort by contract
        return False
    return True


_SALT_MEMO: Optional[str] = None


def code_version_salt() -> str:
    """Digest of every source file in the ``repro`` package.

    Folded into each cache key so that any code change invalidates all
    cached results.  ``REPRO_CACHE_SALT`` overrides (tests, or callers
    that version their cache some other way).
    """
    global _SALT_MEMO
    override = os.environ.get("REPRO_CACHE_SALT")
    if override is not None:
        return override
    if _SALT_MEMO is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _SALT_MEMO = digest.hexdigest()[:16]
    return _SALT_MEMO


@dataclass(frozen=True)
class WorkUnit:
    """One independent computation of a sweep.

    The target callable is named by module/function path (not held as
    an object) so units pickle cheaply and identically across start
    methods; ``kwargs`` must be picklable.  ``key_payload`` is the
    JSON-safe identity of the computation — everything that influences
    the result must appear in it, because it (plus the code salt) is
    the cache key.
    """

    uid: str
    module: str
    func: str
    kwargs: dict = field(default_factory=dict)
    key_payload: dict = field(default_factory=dict)

    def cache_key(self, salt: Optional[str] = None) -> str:
        body = json.dumps(
            {
                "module": self.module,
                "func": self.func,
                "payload": self.key_payload,
                "salt": salt if salt is not None else code_version_salt(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class UnitResult:
    """Outcome of one work unit (success, structured failure, or cache hit).

    ``attempts`` counts executions including retries; ``cpu_seconds``/
    ``wall_seconds`` accumulate over every attempt, failed ones
    included.  ``quarantined`` marks a unit that exhausted its retry
    budget under the resilience layer.
    """

    uid: str
    ok: bool
    value: object = None
    error: Optional[dict] = None
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    cached: bool = False
    attempts: int = 1
    quarantined: bool = False


class ResultCache:
    """Content-addressed on-disk store of completed work-unit values.

    Values must be JSON-serialisable (experiment text, metric dicts).
    Writes are exclusive-create: the entry is serialised to an
    ``O_EXCL`` temp file and *published* with a hard link that fails if
    the key already holds a valid entry (first writer wins, ``races``
    counts the losers), falling back to an atomic rename when the entry
    on disk is invalid (healing corruption) or the filesystem lacks
    links.  Concurrent writers of one key — two daemon workers, or a
    daemon plus a CLI sweep — therefore can never interleave partial
    JSON, and readers only ever see a complete entry or none.  A
    corrupt entry reads as a miss.  When the requesting
    :class:`WorkUnit` is passed to
    :meth:`get`, the stored ``uid``/``payload`` are cross-checked
    against it and any mismatch also reads as a miss (``mismatches``
    counts these) — returning a value recorded for a *different*
    computation would silently poison the sweep.
    """

    #: Generation marker filename inside the cache root.
    GENERATION_FILE = "GENERATION"
    # Temp files younger than this are presumed live publishes, not
    # crashed-writer debris; a real publish lasts milliseconds.
    STALE_TMP_SECONDS = 60.0

    def __init__(self, root) -> None:
        self.root = Path(root)
        if self.root.is_file():
            raise ValueError(
                f"cache root {self.root} is a file, not a directory"
            )
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.mismatches = 0
        self.races = 0
        self.healed = 0
        self.evicted = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- generations ----------------------------------------------------
    #
    # The cache is shared by concurrent writers (fabric workers, CLI
    # sweeps) that cannot coordinate, so GC cannot use wall-clock age or
    # reference counting.  Instead the store carries a monotonically
    # increasing *generation* counter; every published entry is stamped
    # with the generation current at write time, and collection is
    # expressed against generations ("drop everything older than G"),
    # which an operator advances at safe points (a finished load run, a
    # release).  Writers racing a collection are safe: a collected key
    # reads as a miss and is simply recomputed and re-published.

    @property
    def generation(self) -> int:
        try:
            return int((self.root / self.GENERATION_FILE).read_text())
        except (FileNotFoundError, ValueError, OSError):
            return 0

    def bump_generation(self) -> int:
        """Advance the store's generation (atomic publish); returns it."""
        new_gen = self.generation + 1
        self.root.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".generation.", suffix=".tmp"
        )
        with os.fdopen(handle, "w") as tmp:
            tmp.write(str(new_gen))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, self.root / self.GENERATION_FILE)
        return new_gen

    def _entries(self):
        """Yield ``(path, entry_or_None)`` for every entry file.

        ``entry`` is None for a torn/unparseable file.  Stray temp
        files from crashed writers are yielded with ``entry is None``
        too, so one scan drives both healing and collection.
        """
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                if path.name.endswith(".tmp"):
                    # A fresh temp may be a publish in flight from a
                    # live writer; only temps past the grace window
                    # are crashed-writer debris.
                    try:
                        age = time.time() - path.stat().st_mtime
                    except OSError:
                        continue
                    if age >= self.STALE_TMP_SECONDS:
                        yield path, None
                    continue
                if path.suffix != ".json":
                    continue
                try:
                    entry = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    yield path, None
                    continue
                if not isinstance(entry, dict) or "value" not in entry:
                    yield path, None
                    continue
                yield path, entry

    def _remove(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False  # a concurrent healer/collector got it first
        except OSError:
            return False

    def heal(self, log=None) -> int:
        """Remove torn entries and stray temp files; returns the count.

        Safe under concurrent writers: publication is always a whole
        complete file (hard link or atomic rename), so anything torn is
        garbage from a crashed or killed writer, never a write in
        flight.  The one benign race — a torn entry replaced by a valid
        one between scan and unlink — costs at most a recomputable
        cache miss, never corruption.
        """
        removed = 0
        for path, entry in list(self._entries()):
            if entry is None and self._remove(path):
                removed += 1
                if log is not None:
                    log(f"cache: healed torn entry {path.name}")
        self.healed += removed
        return removed

    def gc(self, min_generation: int, log=None) -> int:
        """Drop every valid entry stamped older than ``min_generation``
        (entries with no stamp count as generation 0); heals torn
        entries on the way.  Returns the number of files removed."""
        removed = 0
        for path, entry in list(self._entries()):
            if entry is None:
                if self._remove(path):
                    removed += 1
                    self.healed += 1
                continue
            if int(entry.get("gen", 0)) < min_generation:
                if self._remove(path):
                    removed += 1
                    self.evicted += 1
                    if log is not None:
                        log(f"cache: collected {path.name} "
                            f"(gen {entry.get('gen', 0)})")
        return removed

    def evict(self, max_entries: int) -> int:
        """Bound the store to ``max_entries`` newest entries.

        Eviction order is deterministic — oldest generation first, then
        key order — so concurrent evictors converge on the same
        survivors instead of thrashing each other's choices.
        """
        valid = [
            (int(entry.get("gen", 0)), path.name, path)
            for path, entry in self._entries()
            if entry is not None
        ]
        removed = 0
        excess = len(valid) - max(0, max_entries)
        if excess <= 0:
            return 0
        valid.sort()
        for _gen, _name, path in valid[:excess]:
            if self._remove(path):
                removed += 1
                self.evicted += 1
        return removed

    def get(
        self, key: str, unit: Optional[WorkUnit] = None
    ) -> Optional[dict]:
        """Return the stored entry ``{"uid", "payload", "value"}`` or None."""
        try:
            entry = json.loads(self._path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or "value" not in entry:
            self.misses += 1
            return None
        if unit is not None and (
            entry.get("uid") != unit.uid
            or entry.get("payload") != unit.key_payload
        ):
            self.mismatches += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def _valid_entry(self, path: Path, unit: WorkUnit) -> bool:
        """True if ``path`` holds a complete entry for this unit."""
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return (
            isinstance(entry, dict)
            and "value" in entry
            and entry.get("uid") == unit.uid
            and entry.get("payload") == unit.key_payload
        )

    def put(self, key: str, unit: WorkUnit, value) -> Path:
        """Exclusive-create publish of one completed value.

        The entry is fully written to an ``O_EXCL`` temp file first;
        publication is a hard link (fails iff the key already exists),
        so a reader can never observe partial JSON no matter how many
        writers race on the key.  A loser of the race leaves the
        existing entry alone when it is valid (``races`` counts this)
        and replaces it atomically when it is torn or mismatched — the
        chaos layer's cache-corruption faults must stay healable.
        """
        entry = {
            "uid": unit.uid,
            "payload": unit.key_payload,
            "value": value,
            "gen": self.generation,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w") as tmp:
                tmp.write(json.dumps(entry, indent=2, sort_keys=True))
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                if self._valid_entry(path, unit):
                    self.races += 1
                else:
                    try:
                        os.replace(tmp_name, path)
                    except FileNotFoundError:
                        self.races += 1
                    tmp_name = None
            except FileNotFoundError:
                # A collector reaped our temp mid-publish.  The value
                # is recomputable, so a lost publish is a benign miss,
                # never a reason to crash the worker.
                tmp_name = None
                self.races += 1
            except OSError:
                # Filesystem without hard links: plain atomic rename.
                try:
                    os.replace(tmp_name, path)
                except FileNotFoundError:
                    self.races += 1
                tmp_name = None
        finally:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
        self.stores += 1
        return path


def _execute_task(task) -> UnitResult:
    """Worker entry: run one unit, never raise (failure isolation).

    ``task`` is ``(uid, module, func, kwargs, attempt)``; the 1-based
    attempt number lets deterministic fault plans key on retries.  The
    fault hook costs one environment lookup per unit when dormant.
    """
    global _PROGRESS_UID
    uid, module_name, func_name, kwargs, attempt = task
    _PROGRESS_UID = uid  # stamp emit_progress events with the unit id
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        if os.environ.get(FAULT_PLAN_ENV):
            from repro.faults.inject import maybe_inject

            maybe_inject(uid, attempt)
        module = importlib.import_module(module_name)
        func = getattr(module, func_name)
        value = func(**kwargs)
        return UnitResult(
            uid=uid,
            ok=True,
            value=value,
            cpu_seconds=time.process_time() - cpu0,
            wall_seconds=time.perf_counter() - wall0,
            attempts=attempt,
        )
    except Exception as error:  # noqa: BLE001 — isolation is the point
        return UnitResult(
            uid=uid,
            ok=False,
            error={
                "type": type(error).__name__,
                "message": str(error),
                "traceback": traceback.format_exc(),
            },
            cpu_seconds=time.process_time() - cpu0,
            wall_seconds=time.perf_counter() - wall0,
            attempts=attempt,
        )


def _mp_context():
    """Prefer fork (cheap, inherits in-process monkeypatches); fall back
    to the platform default where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def backoff_delay(
    base: float, attempt: int, uid: str, seed: int = 0
) -> float:
    """Seeded exponential backoff with jitter for one failed attempt.

    Doubles per attempt with a deterministic jitter factor in
    [0.5, 1.5), derived from (seed, uid, attempt) — so a replayed chaos
    run waits exactly as long, and simultaneous retries of different
    units decorrelate instead of stampeding.
    """
    rng = random.Random(f"{seed}:{uid}:{attempt}")
    return base * (2 ** (attempt - 1)) * (0.5 + rng.random())


def is_resilient(timeout: Optional[float], retries: int) -> bool:
    """True when a run needs the resilience layer: a per-unit timeout,
    a retry budget, or an active ``REPRO_FAULT_PLAN``."""
    return (
        timeout is not None
        or retries > 0
        or bool(os.environ.get(FAULT_PLAN_ENV))
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-unit resilience policy: wall-clock ``timeout`` per attempt
    (None = unbounded), ``retries`` extra attempts after the first, and
    the ``backoff`` base and jitter ``seed`` of :func:`backoff_delay`."""

    timeout: Optional[float] = None
    retries: int = 0
    backoff: float = 0.25
    seed: int = 0


def _supervised_worker(conn, task, tag=None, progress=False) -> None:
    """Entry point of a per-attempt supervised worker process.

    With ``progress`` set, :func:`emit_progress` events travel over the
    result pipe ahead of the result itself.
    """
    if progress:
        install_progress(conn.send, tag)
    try:
        result = _execute_task(task)
        conn.send(result)
    except Exception:  # noqa: BLE001 — e.g. unpicklable value
        try:
            conn.send(
                UnitResult(
                    uid=task[0],
                    ok=False,
                    error={
                        "type": "WorkerProtocolError",
                        "message": "worker could not deliver its result",
                        "traceback": traceback.format_exc(),
                    },
                    attempts=task[4],
                )
            )
        except Exception:  # noqa: BLE001
            pass
    finally:
        conn.close()


def _no_event(kind: str, info: dict) -> None:
    pass


def _failure(unit: WorkUnit, attempt: int, error_type: str, message: str,
             wall_seconds: float = 0.0) -> UnitResult:
    return UnitResult(
        uid=unit.uid,
        ok=False,
        error={"type": error_type, "message": message, "traceback": ""},
        wall_seconds=wall_seconds,
        attempts=attempt,
    )


async def run_attempts(
    unit: WorkUnit,
    attempt: Callable[[int], Awaitable[Tuple[UnitResult, bool]]],
    policy: RetryPolicy,
    emit: Callable[[str, dict], None],
    draining: Callable[[], bool],
) -> UnitResult:
    """The one retry/quarantine decision, shared by every placement.

    ``attempt(n)`` runs attempt ``n`` (in a local process, on a leased
    fabric worker) and returns ``(result, retryable)``.  A retryable
    failure is retried after :func:`backoff_delay` until the budget is
    spent or a drain began, then quarantined; any other failure (drain
    abort, a fabric worker's settled verdict) is returned as is.  Only
    a real backoff emits ``fault.retry``: a zero-delay retry (fabric
    reassignment) is announced by its placement.
    """
    import asyncio

    number = 1
    cpu = wall = 0.0
    while True:
        result, retryable = await attempt(number)
        cpu += result.cpu_seconds
        wall += result.wall_seconds
        result.cpu_seconds, result.wall_seconds = cpu, wall
        result.attempts = max(result.attempts, number)
        if result.ok or not retryable:
            return result
        if number > policy.retries or draining():
            result.quarantined = True
            emit(
                "fault.quarantine",
                {"uid": unit.uid, "attempts": number,
                 "error": result.error["type"]},
            )
            return result
        delay = backoff_delay(policy.backoff, number, unit.uid, policy.seed)
        if delay > 0:
            emit(
                "fault.retry",
                {"uid": unit.uid, "attempt": number,
                 "error": result.error["type"], "delay": round(delay, 4)},
            )
            await asyncio.sleep(delay)
        number += 1


async def _reap(process, kill: bool = False) -> Optional[int]:
    """Exit code of ``process`` once it ends (at most 5 s), awaited on
    its sentinel so the event loop keeps running meanwhile."""
    import asyncio

    if kill:
        process.kill()
    if process.exitcode is None:
        loop = asyncio.get_running_loop()
        exited = loop.create_future()
        loop.add_reader(
            process.sentinel, lambda: exited.done() or exited.set_result(0)
        )
        try:
            await asyncio.wait_for(exited, 5.0)
            process.join()
        except asyncio.TimeoutError:
            pass
        finally:
            loop.remove_reader(process.sentinel)
    return process.exitcode


class UnitExecutor:
    """The local placement: every attempt is one supervised process.

    Owning each attempt's process is what makes hung-worker SIGKILL,
    hard-crash detection and re-dispatch possible: a dead worker takes
    down exactly one attempt.  Attempts are awaited on their result
    pipes, not one thread each, so any number run at once; concurrency
    is the caller's (the engine's ``jobs``, the scheduler's slots).
    ``on_progress`` receives every :func:`emit_progress` event, on the
    event loop, before the result of the attempt that sent it.

    :meth:`begin_drain` stops retries and arms a grace deadline;
    attempts that outlive it are killed with a ``WorkerAborted`` error,
    which the daemon treats as "requeue on restart", not quarantine.
    """

    def __init__(
        self,
        on_progress: Optional[Callable[[dict], None]] = None,
        policy: RetryPolicy = RetryPolicy(),
    ) -> None:
        self.context = _mp_context()
        self.on_progress = on_progress
        self.policy = policy
        self.draining = False
        self._drain_expired = False
        self._drain_timer = None
        self._aborts: set = set()  # one per in-flight attempt
        #: Successful results read from the pipes of cancelled attempts.
        self.salvaged: List[UnitResult] = []

    def begin_drain(self, grace: float) -> None:
        """Stop retrying; kill attempts still running after ``grace``.
        Call on the event loop."""
        import asyncio

        self.end_drain()  # a repeated drain re-arms the deadline
        self.draining = True
        self._drain_timer = asyncio.get_running_loop().call_later(
            max(0.0, grace), self._expire_drain
        )

    def end_drain(self) -> None:
        """Accept and retry work again (a fabric worker's new session)."""
        if self._drain_timer is not None:
            self._drain_timer.cancel()
        self.draining = self._drain_expired = False

    def _expire_drain(self) -> None:
        self._drain_expired = True
        for abort in list(self._aborts):
            abort()

    async def run_unit(
        self,
        unit: WorkUnit,
        tag: Optional[str] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> UnitResult:
        """Run one unit to its final result under ``policy`` (default:
        the executor's).  ``tag`` stamps the unit's progress events;
        ``on_event`` receives the ``fault.*`` decisions."""
        policy = policy or self.policy
        emit = on_event or _no_event
        return await run_attempts(
            unit,
            lambda number: self._attempt(unit, number, policy.timeout,
                                         tag, emit),
            policy,
            emit,
            lambda: self.draining,
        )

    async def _attempt(
        self,
        unit: WorkUnit,
        number: int,
        timeout: Optional[float],
        tag: Optional[str],
        emit: Callable[[str, dict], None],
    ) -> Tuple[UnitResult, bool]:
        """One supervised attempt: a result, pipe EOF (``WorkerCrash``
        with the exit code), the ``timeout`` (``WorkerTimeout``), or an
        expired drain (``WorkerAborted``, not retryable)."""
        import asyncio

        loop = asyncio.get_running_loop()
        conn, child_conn = self.context.Pipe(duplex=False)
        task = (unit.uid, unit.module, unit.func, unit.kwargs, number)
        process = self.context.Process(
            target=_supervised_worker,
            args=(child_conn, task, tag, self.on_progress is not None),
            daemon=True,
        )
        started = time.monotonic()
        process.start()
        child_conn.close()
        fd = conn.fileno()
        outcome = loop.create_future()

        def settle(kind: str, result: Optional[UnitResult] = None) -> None:
            if not outcome.done():
                outcome.set_result((kind, result))

        def readable() -> None:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None
            if isinstance(message, dict):  # a progress event
                self.on_progress(message)
                return
            loop.remove_reader(fd)
            settle("eof" if message is None else "result", message)

        loop.add_reader(fd, readable)
        timer = (
            loop.call_later(timeout, settle, "timeout")
            if timeout is not None else None
        )
        abort = functools.partial(settle, "abort")
        self._aborts.add(abort)
        if self._drain_expired:
            abort()
        try:
            try:
                kind, result = await outcome
            except asyncio.CancelledError:
                # Checkpoint flush: keep a result that already reached
                # the pipe for the caller tearing the run down.
                with contextlib.suppress(EOFError, OSError):
                    while conn.poll():
                        message = conn.recv()
                        if isinstance(message, UnitResult) and message.ok:
                            self.salvaged.append(message)
                raise
            if kind == "result":
                await _reap(process)
                return result, True
            if kind == "eof":
                # The worker died hard (os._exit, SIGKILL, OOM-kill).
                # EOF can precede the exit: reap to learn the code.
                code = await _reap(process)
                emit("fault.crash", {"uid": unit.uid, "attempt": number,
                                     "exit_code": code})
                return _failure(
                    unit, number, "WorkerCrash",
                    f"worker died with exit code {code} on attempt "
                    f"{number}",
                    time.monotonic() - started,
                ), True
            await _reap(process, kill=True)
            wall = time.monotonic() - started
            if kind == "abort":
                return _failure(
                    unit, number, "WorkerAborted",
                    "daemon drain grace expired; unit will be re-run "
                    "after restart", wall,
                ), False
            emit("fault.timeout", {"uid": unit.uid, "attempt": number,
                                   "timeout": timeout})
            return _failure(
                unit, number, "WorkerTimeout",
                f"exceeded {timeout}s wall-clock on attempt {number}", wall,
            ), True
        finally:
            loop.remove_reader(fd)
            if timer is not None:
                timer.cancel()
            self._aborts.discard(abort)
            conn.close()
            if process.exitcode is None:
                process.kill()
                process.join(timeout=5.0)


def execute_units(
    units: Iterable[WorkUnit],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    salt: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    retry_seed: int = 0,
    tracer=None,
    on_progress: Optional[Callable[[dict], None]] = None,
    on_result: Optional[Callable[[UnitResult], None]] = None,
) -> Dict[str, UnitResult]:
    """Run every unit, in parallel when ``jobs > 1``; returns {uid: result}.

    Cache hits are resolved up front and skip execution entirely.
    Completion order never affects the result mapping — merge is by
    unit id — and successful values are written back to the cache as
    they arrive, which is what makes interrupted sweeps resumable
    (``KeyboardInterrupt`` additionally flushes completed-but-unmerged
    results before propagating).

    ``jobs > 1`` runs at most ``jobs`` units at once through
    :class:`UnitExecutor`, one supervised process per attempt.
    ``timeout`` (per-unit wall seconds) and ``retries`` (extra attempts
    after the first) add hung-worker SIGKILL + re-dispatch, seeded
    exponential ``backoff`` between attempts, and quarantine of units
    that exhaust the budget (``ok=False, quarantined=True`` instead of
    aborting); they, or an active ``REPRO_FAULT_PLAN``, route even
    ``jobs=1`` through the executor so injected crashes can never take
    the parent down.  Otherwise — and always when called from inside a
    worker process, whose own attempt is already supervised — units
    run inline, in order.

    ``on_progress`` receives, in this process, every uid-tagged event
    that unit targets send with :func:`emit_progress` while they run.

    ``on_result`` sees every final result as it lands — cache hits
    first, in unit order, then executed units in completion order.
    """
    ordered: List[WorkUnit] = list(units)
    seen = set()
    for unit in ordered:
        if unit.uid in seen:
            raise ValueError(f"duplicate work-unit id {unit.uid!r}")
        seen.add(unit.uid)
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")

    results: Dict[str, UnitResult] = {}
    pending: List[WorkUnit] = []
    keys: Dict[str, str] = {}
    for unit in ordered:
        if cache is not None:
            key = keys[unit.uid] = unit.cache_key(salt)
            entry = cache.get(key, unit)
            if entry is not None:
                results[unit.uid] = UnitResult(
                    uid=unit.uid, ok=True, value=entry["value"], cached=True
                )
                if progress is not None:
                    progress(f"{unit.uid} [cached]")
                if on_result is not None:
                    on_result(results[unit.uid])
                continue
        pending.append(unit)

    by_uid = {unit.uid: unit for unit in pending}

    def absorb(result: UnitResult, quiet: bool = False) -> None:
        results[result.uid] = result
        if result.ok and cache is not None:
            unit = by_uid[result.uid]
            cache.put(keys[unit.uid], unit, result.value)
        if progress is not None and not quiet:
            if result.ok:
                status = "ok"
            elif result.quarantined:
                status = (
                    f"QUARANTINED: {result.error['type']} "
                    f"after {result.attempts} attempt(s)"
                )
            else:
                status = f"FAILED: {result.error['type']}"
            progress(f"{result.uid} [{status}]")
        if on_result is not None and not quiet:
            on_result(result)

    if multiprocessing.current_process().daemon or (
        jobs <= 1 and not is_resilient(timeout, retries)
    ):
        previous = _PROGRESS_SINK
        if on_progress is not None:
            install_progress(on_progress)
        try:
            for unit in pending:
                absorb(_execute_task(
                    (unit.uid, unit.module, unit.func, unit.kwargs, 1)
                ))
        finally:
            if on_progress is not None:
                install_progress(previous)
        return results

    import asyncio

    executor = UnitExecutor(
        on_progress, RetryPolicy(timeout, retries, backoff, retry_seed)
    )
    def emit(kind: str, info: dict) -> None:
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.emit(kind, 0, **info)

    queue = deque(pending)
    running: set = set()
    loop = asyncio.new_event_loop()
    try:
        while queue or running:
            while queue and len(running) < max(1, jobs):
                running.add(loop.create_task(
                    executor.run_unit(queue.popleft(), on_event=emit)
                ))
            done, _ = loop.run_until_complete(
                asyncio.wait(running, return_when=asyncio.FIRST_COMPLETED)
            )
            for task in done:
                running.discard(task)
                absorb(task.result())
    finally:
        # On KeyboardInterrupt: kill what still runs, but absorb (which
        # writes to the cache) every result that already arrived.
        for task in running:
            task.cancel()
        flushed = []
        if running:
            flushed = loop.run_until_complete(
                asyncio.gather(*running, return_exceptions=True)
            )
        loop.close()
        for outcome in flushed + executor.salvaged:
            if isinstance(outcome, UnitResult) and outcome.ok:
                absorb(outcome, True)
    return results


def failed_units(results: Dict[str, UnitResult]) -> Dict[str, dict]:
    """Map of uid -> structured error for every failed unit."""
    return {
        uid: result.error
        for uid, result in results.items()
        if not result.ok
    }


def quarantine_report(results: Dict[str, UnitResult]) -> Dict[str, dict]:
    """Manifest ``quarantine`` section: every unit that ended failed.

    Keyed by uid; each entry records the attempts consumed and the
    final structured error, which is what a degraded sweep publishes
    instead of aborting.
    """
    return {
        uid: {
            "attempts": result.attempts,
            "error": result.error,
        }
        for uid, result in sorted(results.items())
        if not result.ok
    }


def fault_summary(
    results: Dict[str, UnitResult], tracer=None
) -> Dict[str, int]:
    """Retry/timeout/crash/quarantine counters for one engine run.

    Derived from final results plus (when a tracer was attached) the
    per-attempt ``fault.*`` events, which also see failures that later
    healed.  Rendered as ``fault.*`` statsdump rows and recorded in the
    sweep manifest's ``fault`` section.
    """
    summary = {
        "retries": sum(
            result.attempts - 1 for result in results.values()
            if not result.cached
        ),
        "timeouts": 0,
        "crashes": 0,
        "quarantined": sum(
            1 for result in results.values() if result.quarantined
        ),
    }
    if tracer is not None:
        for event in tracer.events():
            kind = event.get("kind", "")
            if kind == "fault.timeout":
                summary["timeouts"] += 1
            elif kind == "fault.crash":
                summary["crashes"] += 1
    else:
        for result in results.values():
            error = result.error or {}
            if error.get("type") == "WorkerTimeout":
                summary["timeouts"] += 1
            elif error.get("type") == "WorkerCrash":
                summary["crashes"] += 1
    return summary
