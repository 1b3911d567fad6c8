"""Host-time span ledger for the benchmark's traced runs.

Only the traced run installs it; timed runs import nothing from here.
:func:`install` wraps the public entry point of each layer from the
outside (class methods are replaced on the class, module functions in
every ``repro.*`` module that holds a reference), so nothing in the
program changes.

What a wrapper records, per process, in memory:

* a *span* (name, start, end, parent, run id) for coarse layers —
  work units, cells, trace generation, replay, hierarchy builds,
  result-cache I/O, foundry stages;
* for hot layers (hierarchy accesses, detector scans, DRAM, backing
  store, allocator calls) only a roll-up of calls and self time onto
  the nearest enclosing span, so memory stays bounded on traces with
  millions of accesses;
* per-layer totals: calls, inclusive time and self time (span time
  minus the time of traced children), plus exact work counters.

Worker processes are forked and inherit the wrappers.  A forked child
starts with an empty ledger, and writes its ledger to ``out_dir`` each
time its outermost unit span closes — ``Pool.__exit__`` terminates
pool workers without running ``atexit``.  :func:`merge` folds every
file into one ledger and :func:`chrome_trace` renders its spans as
Chrome Trace Event JSON.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Modules to import before patching so ``from X import f`` references
#: already bound in them are found and replaced.
_PRELOAD = (
    "repro.harness.parallel",
    "repro.harness.experiment",
    "repro.harness.sweeps",
    "repro.experiments.run_all",
    "repro.foundry.generator",
    "repro.foundry.executor",
    "repro.foundry.matrix",
    "repro.foundry.runner",
    "repro.workloads.generator",
    "repro.cpu.pipeline",
    "repro.cache.hierarchy",
    "repro.core.detector",
    "repro.mem.dram",
    "repro.mem.backing",
    "repro.defenses.registry",
)


class _Thread:
    """One thread's open frames and private totals (no locking needed)."""

    __slots__ = ("stack", "spans", "layers", "counts", "sets", "tid")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []
        self.spans: list = []
        self.layers: Dict[str, list] = {}  # name -> [calls, total, self] ns
        self.counts: Dict[str, int] = {}
        self.sets: Dict[str, set] = {}


class Ledger:
    def __init__(self, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        self._threads: List[_Thread] = []
        self._lock = threading.Lock()
        self._next_span = 0
        self._flushes = 0

    def state(self) -> _Thread:
        try:
            return self._local.state
        except AttributeError:
            state = _Thread(threading.get_ident())
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        name: str,
        fn: Callable,
        keep: bool = True,
        probe: Optional[Callable] = None,
        after: Optional[Callable] = None,
        unit: bool = False,
    ) -> Callable:
        """Return ``fn`` recorded as layer ``name``.

        ``keep`` records a span; otherwise the call is rolled up onto
        the nearest enclosing span.  ``probe(args)`` runs before the
        call and ``after(state, args, result, probed)`` after it
        (``result`` is None when the call raised).  ``unit`` marks the
        outermost span of a work unit: its run id is the unit id and
        closing it as the outermost frame flushes the process ledger.
        A call made while the same layer is already innermost (a
        subclass delegating to ``super()``) is not counted twice.
        """
        ledger = self
        monotonic_ns = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = ledger.state()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            owner = stack[-1][3] if stack else None
            if keep:
                with ledger._lock:
                    ledger._next_span += 1
                    span_id = f"{os.getpid()}.{ledger._next_span}"
                if unit:
                    run = _unit_id(fn)
                else:
                    run = owner[5] if owner is not None else "main"
                record = [
                    name, 0, 0, span_id,
                    owner[3] if owner is not None else None,
                    run, state.tid, {},
                ]
                owner = record
            frame = [name, 0, 0, owner]
            probed = probe(args) if probe is not None else None
            stack.append(frame)
            frame[1] = start = monotonic_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = monotonic_ns()
                stack.pop()
                total = end - start
                self_ns = total - frame[2]
                if stack:
                    stack[-1][2] += total
                layer = state.layers.get(name)
                if layer is None:
                    layer = state.layers[name] = [0, 0, 0]
                layer[0] += 1
                layer[1] += total
                layer[2] += self_ns
                if keep:
                    record[1] = start
                    record[2] = end
                    state.spans.append(record)
                elif owner is not None:
                    rolled = owner[7].get(name)
                    if rolled is None:
                        rolled = owner[7][name] = [0, 0]
                    rolled[0] += 1
                    rolled[1] += self_ns
                if after is not None:
                    after(state, args, result, probed)
                if unit and not stack:
                    ledger.flush()

        return traced

    # -------------------------------------------------------------- output

    def snapshot(self) -> dict:
        out = {"spans": [], "layers": {}, "counts": {}, "sets": {}}
        for state in list(self._threads):
            out["spans"].extend(
                [
                    name, start, end, sid, parent, run, os.getpid(), tid,
                    rollup,
                ]
                for name, start, end, sid, parent, run, tid, rollup
                in state.spans
            )
            _fold(out, {
                "layers": state.layers,
                "counts": state.counts,
                "sets": {k: sorted(v) for k, v in state.sets.items()},
            })
        return out

    def flush(self) -> None:
        """Write this process's ledger to a new file and clear it."""
        data = self.snapshot()
        for state in list(self._threads):
            state.spans = []
            state.layers = {}
            state.counts = {}
            state.sets = {}
        if not (data["spans"] or data["layers"] or data["counts"]):
            return
        self._flushes += 1
        path = self.out_dir / f"ledger-{os.getpid()}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)


def _unit_id(fn) -> str:
    parallel = sys.modules.get("repro.harness.parallel")
    uid = getattr(parallel, "_PROGRESS_UID", None) if parallel else None
    return uid or f"{fn.__module__}.{fn.__name__}"


def _fold(into: dict, part: dict) -> None:
    for name, (calls, total, self_ns) in part["layers"].items():
        layer = into["layers"].setdefault(name, [0, 0, 0])
        layer[0] += calls
        layer[1] += total
        layer[2] += self_ns
    for name, value in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, values in part["sets"].items():
        into["sets"][name] = sorted(set(into["sets"].get(name, [])) | set(values))


def _bump(state: _Thread, name: str, value: int = 1) -> None:
    state.counts[name] = state.counts.get(name, 0) + value


def _add(state: _Thread, name: str, item: str) -> None:
    state.sets.setdefault(name, set()).add(item)


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def trace_fingerprint(uops) -> str:
    """Digest of every uop field the core reads.

    ``cpu/encoding.encode_trace`` is not used: it drops the pc of
    memory ops, so two traces differing only there would collide.
    """
    return _digest(
        repr(
            [
                (u.op.name, u.pc, u.address, u.size, u.deps, u.taken)
                for u in uops
            ]
        )
    )


# ---------------------------------------------------------- installation


def _patch_function(
    ledger: Ledger, module_name: str, attr: str, name: str, **kw
) -> None:
    """Wrap ``module.attr`` there and in every ``repro.*`` module that
    bound it with ``from module import attr``."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = ledger.wrap(name, original, **kw)
    for loaded, module in list(sys.modules.items()):
        if module is None or not loaded.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch_method(ledger: Ledger, cls, method: str, name: str, **kw) -> None:
    fn = cls.__dict__[method]
    setattr(cls, method, ledger.wrap(name, fn, **kw))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: (module, function) of every work-unit target the benchmark runs.
def _unit_targets() -> List[tuple]:
    from repro.experiments.run_all import experiment_units

    targets = {(u.module, u.func) for u in experiment_units(0.1, 1)}
    targets.add(("repro.foundry.executor", "run_shard"))
    targets.add(("repro.harness.sweeps", "run_cell"))
    return sorted(targets)


def install(out_dir) -> Ledger:
    """Wrap every traced layer; returns the process ledger."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    for module_name, _ in _unit_targets():
        importlib.import_module(module_name)
    ledger = Ledger(out_dir)

    from repro.cache.hierarchy import MemoryHierarchy
    from repro.core.detector import TokenDetector
    from repro.cpu.pipeline import OutOfOrderCore
    from repro.defenses.base import Defense
    from repro.harness.parallel import ResultCache
    from repro.mem.backing import BackingStore
    from repro.mem.dram import DramModel
    from repro.workloads.generator import SyntheticWorkload

    # workloads: trace generation through Machine + defense hooks.
    def after_gen(state, args, result, probed):
        if result is None:
            return
        trace = args[0].defense.machine.trace
        _bump(state, "workloads.runs")
        _bump(state, "workloads.uops", len(trace))
        if trace:  # functional-mode runs record no trace
            _add(state, "workloads.traces", trace_fingerprint(trace))

    _patch_method(ledger, SyntheticWorkload, "run", "workloads.gen",
                  after=after_gen)

    # cpu: the out-of-order core loop.
    def after_replay(state, args, result, probed):
        if result is None:
            return
        _bump(state, "cpu.runs")
        _bump(state, "cpu.uops", result.committed)
        _bump(state, "cpu.sim_cycles", result.cycles)

    _patch_method(ledger, OutOfOrderCore, "run", "cpu.replay",
                  after=after_replay)

    # cache: hierarchy construction and every public access.
    _patch_method(ledger, MemoryHierarchy, "__init__", "cache.build")

    def probe_misses(args):
        hierarchy = args[0]
        return hierarchy.l1d.stats.misses, hierarchy.l2.stats.misses

    def after_access(state, args, result, probed):
        hierarchy = args[0]
        _bump(state, "cache.l1d_misses",
              hierarchy.l1d.stats.misses - probed[0])
        _bump(state, "cache.l2_misses",
              hierarchy.l2.stats.misses - probed[1])

    for method in ("read", "write", "arm", "disarm", "fetch_line"):
        _patch_method(ledger, MemoryHierarchy, method, "cache.access",
                      keep=False, probe=probe_misses, after=after_access)

    _patch_method(ledger, TokenDetector, "scan_line", "core.scan", keep=False)
    _patch_method(ledger, DramModel, "access", "mem.dram", keep=False)
    for method in ("read", "write"):
        _patch_method(ledger, BackingStore, method, "mem.backing", keep=False)

    for cls in [Defense, *_subclasses(Defense)]:
        for method in ("malloc", "free"):
            fn = cls.__dict__.get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                _patch_method(ledger, cls, method, f"defenses.{method}",
                              keep=False)

    # harness: cells, the engine, result-cache I/O.
    def after_cell(state, args, result, probed):
        _add(state, "harness.cells", _digest(repr(args)))

    _patch_function(ledger, "repro.harness.experiment", "run_benchmark",
                    "harness.cell", after=after_cell)

    _patch_function(ledger, "repro.harness.parallel", "execute_units",
                    "harness.execute")

    def after_put(state, args, result, probed):
        if result is None:
            return
        try:
            _bump(state, "harness.cache_put_bytes", Path(result).stat().st_size)
        except OSError:
            pass

    _patch_method(ledger, ResultCache, "get", "harness.cache_get")
    _patch_method(ledger, ResultCache, "put", "harness.cache_put",
                  after=after_put)

    # foundry stages.
    _patch_function(ledger, "repro.foundry.generator", "generate_corpus",
                    "foundry.generate")
    _patch_function(ledger, "repro.foundry.executor", "run_case",
                    "foundry.case")
    _patch_function(ledger, "repro.foundry.matrix", "score_matrix",
                    "foundry.score")

    # work units: the outermost span of every forked worker task.
    for module_name, func in _unit_targets():
        _patch_function(ledger, module_name, func, "unit", unit=True)
    return ledger


# ---------------------------------------------------------------- merge


def merge(out_dir) -> dict:
    """Fold every ledger file under ``out_dir`` into one ledger."""
    merged = {"spans": [], "layers": {}, "counts": {}, "sets": {}}
    for path in sorted(Path(out_dir).glob("ledger-*.json")):
        part = json.loads(path.read_text())
        merged["spans"].extend(part["spans"])
        _fold(merged, part)
    merged["spans"].sort(key=lambda span: (span[1], span[3]))
    return merged


def chrome_trace(merged: dict) -> dict:
    """Chrome Trace Event JSON (``chrome://tracing``, Perfetto)."""
    origin = min((span[1] for span in merged["spans"]), default=0)
    events = []
    for name, start, end, sid, parent, run, pid, tid, rollup in merged["spans"]:
        args = {"id": sid, "parent": parent, "run": run}
        if rollup:
            args["rollup"] = {
                layer: {"calls": calls, "self_us": round(ns / 1000, 1)}
                for layer, (calls, ns) in sorted(rollup.items())
            }
        events.append(
            {
                "name": run if name == "unit" else name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((start - origin) / 1000, 3),
                "dur": round((end - start) / 1000, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
