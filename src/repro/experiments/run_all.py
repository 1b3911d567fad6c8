"""Regenerate every experiment into an output directory.

``python -m repro.experiments.run_all --outdir results --scale 0.5 --jobs 4``
writes one text file per table/figure (what EXPERIMENTS.md cites) plus
a manifest recording the parameters used.

The unit of work is the simulation cell.  Experiments built from cells
(fig3, fig7, fig8, intext, stalls, defensezoo) declare them with a
``cells(scale, seed)`` function; the planner removes duplicate cells
across experiments by content and runs them as one work unit per
(config, benchmark) *shard*, where each trace is generated once and
replayed for every cell that shares it.  Work that is not cells (the
tables, memoverhead, security, defensezoo's coverage half) stays one
unit per experiment.  Units fan out over ``--jobs`` worker processes
(see :mod:`repro.harness.parallel`); each experiment is rendered in
this process as soon as every unit it needs has finished.

Completed units land in a content-addressed cache under the output
directory, so re-running the same sweep skips everything already
computed; a unit that crashes is recorded as a structured error in the
manifest of every experiment that needs it while the rest of the sweep
completes, and a re-run recomputes only the failed/missing units.
Output is byte-identical regardless of job count (timing fields
aside).

``--timeout``/``--retries`` activate the engine's resilience layer:
hung workers are killed and re-dispatched, failed attempts retry with
seeded backoff, and units that exhaust the budget are *quarantined* —
the manifest gains a structured ``quarantine`` section and a ``fault``
counter summary, the sweep completes degraded instead of aborting, and
the engine's ``fault.*`` events are written to
``events-engine.jsonl`` for ``repro report``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.argtypes import (
    cache_dir,
    non_negative_int,
    positive_float,
    positive_int,
)
from repro.harness.parallel import (
    ResultCache,
    UnitResult,
    WorkUnit,
    execute_units,
    failed_units,
    fault_summary,
    is_resilient,
    quarantine_report,
)

#: experiment name -> scale override (None = use the requested scale).
EXPERIMENT_SCALES = {
    "table1": None,
    "table2": None,
    "table3": None,
    "fig3": 0.35,  # in-order core: slower per instruction
    "fig7": None,
    "fig8": None,
    "intext": None,
    "memoverhead": 0.35,
    "security": None,
    #: Defense zoo: REST-vs-MTE-vs-ASan overhead/coverage matrix; runs
    #: the full workload suite under six specs plus a foundry corpus,
    #: so it gets a fixed small scale regardless of the sweep's.
    "defensezoo": 0.2,
    #: Observability artifact: per-defense top-down stall decomposition
    #: (written as ``stalls.json``; rendered by ``repro report``).
    "stalls": None,
}

#: Experiments run only when named (``repro experiments attackmatrix``),
#: never as part of the default sweep.
ON_REQUEST = ("attackmatrix",)

#: Units that live outside ``repro.experiments`` and/or write something
#: other than a ``.txt`` file: name -> (module, output filename).
_SPECIAL_UNITS = {
    "stalls": ("repro.obs.stalls", "stalls.json"),
    "defensezoo": ("repro.experiments.defensezoo", "defensezoo.json"),
}


@dataclass
class PlannedExperiment:
    """One experiment of a sweep and the units its output folds."""

    module: str
    scale: float
    filename: str
    #: uids of every unit the experiment needs: its own unit (named
    #: after it) if it has non-cell work, then its shards.
    units: List[str]
    #: True if it is rendered from cell values (has ``cells()``).
    from_cells: bool


@dataclass
class SweepPlan:
    """The work units of one sweep and the experiments they make.

    Iterates (and sizes) as its units, so it goes wherever a unit list
    does: :func:`execute_units`, the job service, fault plans.
    """

    units: List[WorkUnit]
    experiments: Dict[str, PlannedExperiment]
    seed: int

    def __iter__(self):
        return iter(self.units)

    def __len__(self) -> int:
        return len(self.units)

    def dependents(self, uids: Iterable[str]) -> List[str]:
        """Experiments that need any of ``uids``, in plan order."""
        wanted = set(uids)
        return [
            name
            for name, experiment in self.experiments.items()
            if wanted.intersection(experiment.units)
        ]


@dataclass
class _Shard:
    """One (config, benchmark) shard while the planner fills it."""

    uid: str
    config: object  # SimulationConfig
    #: cell key -> cell: the distinct cells, first declaration wins.
    cells: Dict[str, object] = field(default_factory=dict)
    #: ``[module, scale]`` of every experiment that declared one.
    sources: List[List] = field(default_factory=list)


def check_scale(scale) -> None:
    """ValueError unless ``scale`` is a positive, finite number."""
    if (
        not isinstance(scale, (int, float))
        or isinstance(scale, bool)
        or not math.isfinite(scale)
        or scale <= 0
    ):
        raise ValueError(f"scale must be positive and finite, got {scale!r}")


def _check_known(names: Iterable[str], known) -> None:
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )


def experiment_units(
    scale: float,
    seed: int,
    scales: Optional[Dict] = None,
    names: Optional[List[str]] = None,
) -> SweepPlan:
    """Plan a sweep: the shard and experiment units, and what each
    experiment folds.

    ``scales`` maps experiment names to scale overrides (default:
    :data:`EXPERIMENT_SCALES`); any name of it or of
    :data:`ON_REQUEST` may appear.  ``names`` restricts the sweep to a
    subset of ``scales`` (request order, duplicates collapsed).  An
    unknown name or a scale that is not positive and finite raises
    ``ValueError`` so callers — the CLIs and the job service's
    admission control — reject bad requests up front instead of
    failing mid-sweep.
    """
    from repro.harness.experiment import cell_key, config_key, spec_content

    check_scale(scale)
    scales = EXPERIMENT_SCALES if scales is None else scales
    if names is not None:
        names = list(dict.fromkeys(names))
        _check_known(names, scales)
        scales = {name: scales[name] for name in names}
    _check_known(scales, [*EXPERIMENT_SCALES, *ON_REQUEST])
    units: List[WorkUnit] = []
    experiments: Dict[str, PlannedExperiment] = {}
    shards: Dict[Tuple[str, str], _Shard] = {}
    for name, override in scales.items():
        effective = override if override is not None else scale
        module_name, filename = _SPECIAL_UNITS.get(
            name, (f"repro.experiments.{name}", f"{name}.txt")
        )
        module = importlib.import_module(module_name)
        declare = getattr(module, "cells", None)
        needs: List[str] = []
        if declare is None or hasattr(module, "NON_CELL_WORK"):
            units.append(
                WorkUnit(
                    uid=name,
                    module=module_name,
                    func=getattr(module, "NON_CELL_WORK", "regenerate"),
                    kwargs={"scale": effective, "seed": seed},
                    key_payload={
                        "experiment": name,
                        "scale": effective,
                        "seed": seed,
                    },
                )
            )
            needs.append(name)
        for cell in declare(effective, seed) if declare else ():
            ckey = config_key(cell.config)
            shard = shards.get((ckey, cell.profile.name))
            if shard is None:
                shard = shards[ckey, cell.profile.name] = _Shard(
                    f"cells/{ckey[:8]}/{cell.profile.name}", cell.config
                )
            shard.cells.setdefault(cell_key(cell), cell)
            if [module_name, effective] not in shard.sources:
                shard.sources.append([module_name, effective])
            if shard.uid not in needs:
                needs.append(shard.uid)
        experiments[name] = PlannedExperiment(
            module=module_name,
            scale=effective,
            filename=filename,
            units=needs,
            from_cells=declare is not None,
        )
    for (ckey, benchmark), shard in shards.items():
        specs = sorted(
            (spec_content(cell.spec) for cell in shard.cells.values()),
            key=lambda spec: json.dumps(spec, sort_keys=True),
        )
        units.append(
            WorkUnit(
                uid=shard.uid,
                module=__name__,
                func="run_shard",
                kwargs={
                    "benchmark": benchmark,
                    "config": ckey,
                    "seed": seed,
                    "sources": shard.sources,
                },
                key_payload={
                    "profile": benchmark,
                    "config": shard.config.key_payload(),
                    "specs": specs,
                },
            )
        )
    return SweepPlan(units=units, experiments=experiments, seed=seed)


def run_shard(
    benchmark: str, config: str, seed: int, sources: List[List]
) -> Dict[str, dict]:
    """Work-unit target: simulate one (config, benchmark) shard.

    ``sources`` lists the ``[module, scale]`` declarations the planner
    merged; their cells on ``benchmark`` under the config whose content
    key is ``config`` are simulated once each, sharing traces
    (:func:`repro.harness.experiment.simulate_cells`).  Returns
    {cell key: values}.
    """
    from repro.harness.experiment import config_key, simulate_cells

    cells = [
        cell
        for module_name, scale in sources
        for cell in importlib.import_module(module_name).cells(scale, seed)
        if cell.profile.name == benchmark
        and config_key(cell.config) == config
    ]
    return simulate_cells(cells)


def _render(plan: SweepPlan, name: str, results: Dict[str, UnitResult]) -> str:
    experiment = plan.experiments[name]
    if not experiment.from_cells:
        return results[name].value
    module = importlib.import_module(experiment.module)
    values: Dict[str, dict] = {}
    extra = {}
    for uid in experiment.units:
        if uid == name:
            extra[module.NON_CELL_WORK] = results[uid].value
        else:
            values.update(results[uid].value)
    return module.regenerate(
        scale=experiment.scale, seed=plan.seed, values=values, **extra
    )


def experiment_outcome(
    plan: SweepPlan, name: str, results: Dict[str, UnitResult]
) -> Tuple[str, Optional[str], Optional[dict]]:
    """(progress status, text, error) of one experiment whose units
    have all finished: its first failed unit's error, else its rendered
    text (a failing render is an error too)."""
    needs = [results[uid] for uid in plan.experiments[name].units]
    for result in needs:
        if result.ok:
            continue
        error = dict(result.error)
        if result.uid != name:
            error["unit"] = result.uid
        if result.quarantined:
            status = (
                f"QUARANTINED: {error['type']} "
                f"after {result.attempts} attempt(s)"
            )
        else:
            status = f"FAILED: {error['type']}"
        return status, None, error
    try:
        text = _render(plan, name, results)
    except Exception as error:  # noqa: BLE001 — degrade like a unit
        return f"FAILED: {type(error).__name__}", None, {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
    status = "cached" if all(result.cached for result in needs) else "ok"
    return status, text, None


def write_outputs(
    outdir,
    plan: SweepPlan,
    results: Dict,
    scale: float,
    seed: int,
    jobs: int = 1,
    tracer=None,
    resilient: bool = False,
    wall_seconds: float = 0.0,
    outcomes: Optional[Dict] = None,
) -> Dict:
    """Write per-experiment artifacts + ``manifest.json`` for one sweep.

    Shared by :func:`run_all` and the job service's ``run_all`` job
    finalizer, so a job submitted through the service produces a
    directory (and manifest) ``strip_volatile``-identical to a direct
    run of the same configuration.  ``outcomes`` holds experiments
    already rendered (:func:`experiment_outcome`); the rest are
    rendered here.  Each experiment record folds the units it needs:
    ``cached`` if all were cache hits, ``attempts`` their maximum, and
    the timing of every unit no earlier experiment already charged, so
    the records sum to ``units_timing``.  Returns the manifest dict.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    outcomes = outcomes or {}
    manifest = {
        "scale": scale,
        "seed": seed,
        "jobs": jobs,
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "experiments": {},
    }
    charged = set()
    # Plan order, not completion order: deterministic.
    for name, experiment in plan.experiments.items():
        needs = [results[uid] for uid in experiment.units]
        fresh = [r for r in needs if r.uid not in charged]
        charged.update(r.uid for r in fresh)
        record = {
            "scale": experiment.scale,
            "cached": all(r.cached for r in needs),
            "cpu_seconds": round(sum(r.cpu_seconds for r in fresh), 3),
            "wall_seconds": round(sum(r.wall_seconds for r in fresh), 3),
            "attempts": max((r.attempts for r in needs), default=1),
        }
        outcome = outcomes.get(name) or experiment_outcome(
            plan, name, results
        )
        _, text, error = outcome
        if error is None:
            target = out / experiment.filename
            target.write_text(text + "\n")
            record["status"] = "ok"
            record["file"] = target.name
        else:
            record["status"] = "error"
            record["error"] = error
        manifest["experiments"][name] = record
    manifest["quarantine"] = quarantine_report(results)
    if resilient:
        manifest["fault"] = fault_summary(results, tracer)
        if tracer is not None and len(tracer):
            from repro.obs.tracer import write_jsonl

            write_jsonl(tracer.events(), out / "events-engine.jsonl")
    # Failed-unit timing counts too: a degraded sweep must not
    # under-report what it actually spent.
    manifest["units_timing"] = {
        "cpu_seconds": round(
            sum(results[unit.uid].cpu_seconds for unit in plan), 3
        ),
        "wall_seconds": round(
            sum(results[unit.uid].wall_seconds for unit in plan), 3
        ),
    }
    manifest["wall_seconds"] = round(wall_seconds, 3)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def run_all(
    outdir: str,
    scale: float = 0.5,
    seed: int = 1234,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    quiet: bool = False,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    names: Optional[List[str]] = None,
) -> Path:
    """Run every experiment; returns the output directory path.

    Failures do not abort the sweep: the manifest records a structured
    error per failed experiment (``status: "error"``), lists every unit
    that exhausted its retry budget in the ``quarantine`` section, and
    every other cell still completes and is written.  Callers that need
    an exit code should inspect the manifest (see :func:`main`).
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    cache = None
    if use_cache:
        cache = ResultCache(cache_dir if cache_dir is not None else out / "cache")
    plan = experiment_units(scale, seed, names=names)

    # Render each experiment as soon as every unit it needs finished,
    # printing one progress line per experiment (none per unit).
    finished: Dict[str, UnitResult] = {}
    waiting = {
        name: set(experiment.units)
        for name, experiment in plan.experiments.items()
    }
    outcomes: Dict[str, tuple] = {}

    def on_result(result: UnitResult) -> None:
        finished[result.uid] = result
        for name, needs in waiting.items():
            needs.discard(result.uid)
            if not needs and name not in outcomes:
                outcomes[name] = experiment_outcome(plan, name, finished)
                if not quiet:
                    print(f"  {name} [{outcomes[name][0]}]", flush=True)

    resilient = is_resilient(timeout, retries)
    tracer = None
    if resilient:
        from repro.obs.tracer import RingTracer

        tracer = RingTracer()

    wall0 = time.perf_counter()
    results = execute_units(
        plan,
        jobs=jobs,
        cache=cache,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        retry_seed=seed,
        tracer=tracer,
        on_result=on_result,
    )

    manifest = write_outputs(
        out,
        plan,
        results,
        scale=scale,
        seed=seed,
        jobs=jobs,
        tracer=tracer,
        resilient=resilient,
        wall_seconds=time.perf_counter() - wall0,
        outcomes=outcomes,
    )

    if not quiet:
        records = manifest["experiments"].values()
        done = sum(1 for record in records if record["status"] == "ok")
        hits = sum(1 for record in records if record["cached"])
        degraded = " DEGRADED" if manifest["quarantine"] else ""
        print(
            f"  {done}/{len(records)} experiments ok ({hits} cached, "
            f"{len(records) - done} failed) in "
            f"{manifest['wall_seconds']:.1f}s -> {out}{degraded}"
        )
        for uid, error in sorted(failed_units(results).items()):
            attempts = results[uid].attempts
            print(
                f"  QUARANTINED {uid}: {error['type']}: "
                f"{error['message']} (after {attempts} attempt(s))"
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--scale", type=positive_float, default=0.5)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--jobs",
        "-j",
        type=positive_int,
        default=1,
        help="worker processes (1 = run in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        type=cache_dir,
        default=None,
        help="result cache location (default: <outdir>/cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    parser.add_argument(
        "--timeout",
        type=positive_float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock timeout (hung workers are killed "
             "and re-dispatched)",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="extra attempts per failed unit before quarantine",
    )
    args = parser.parse_args(argv)
    out = run_all(
        args.outdir,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        timeout=args.timeout,
        retries=args.retries,
    )
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [
        name
        for name, record in manifest["experiments"].items()
        if record["status"] != "ok"
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
