"""Simulation job service: daemon, fabric, scheduler, protocol, client.

See INTERNALS.md §10 (single-daemon service) and §13 (distributed
fabric) for the architecture.  Quick tour:

* :mod:`repro.service.protocol` — versioned JSON-lines wire format,
  including the v2 fabric frames (``w.register`` / ``w.assign`` /
  ``w.result`` / heartbeats).
* :mod:`repro.service.jobs` — job kinds (``run_all``, ``sweep``) and
  their decomposition into engine work units.
* :mod:`repro.service.scheduler` — priority classes, FIFO fairness,
  admission control, single-flight dedup, drain persistence.
* :mod:`repro.service.fabric` — coordinator-side worker registry,
  heartbeat-backed leases, rendezvous routing; the remote placement of
  the engine's one retry/quarantine loop.
* :mod:`repro.service.worker` — the ``repro worker`` daemon: dials a
  coordinator, executes assignments, reconnects on loss.
* :mod:`repro.service.daemon` — the ``repro serve`` process: units
  run on the sweep engine's
  :class:`~repro.harness.parallel.UnitExecutor` (one supervised
  process per attempt) by default, on the fabric with
  ``--coordinator``.
* :mod:`repro.service.client` — blocking client used by the CLI verbs
  (``submit``, ``status``, ``watch``, ``workers``, ``jobs``,
  ``shutdown``), plus :func:`watch_resilient` for restart-surviving
  watches.
* :mod:`repro.service.loadgen` — load/chaos harness behind
  ``repro loadgen`` (throughput-vs-workers curves, p50/p99 latency,
  chaos-identity proof, ``BENCH_service.json``).
"""

from repro.service.client import (
    ServiceClient,
    ServiceError,
    wait_for_daemon,
    watch_resilient,
)
from repro.service.daemon import Daemon, ServiceConfig, StartupError, serve
from repro.service.fabric import FabricDispatcher
from repro.service.jobs import JOB_KINDS, PRIORITIES, Job, JobParamsError
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.scheduler import AdmissionError, Scheduler
from repro.service.worker import WorkerConfig, WorkerDaemon, serve_worker

__all__ = [
    "AdmissionError",
    "Daemon",
    "FabricDispatcher",
    "JOB_KINDS",
    "Job",
    "JobParamsError",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "StartupError",
    "WorkerConfig",
    "WorkerDaemon",
    "serve",
    "serve_worker",
    "wait_for_daemon",
    "watch_resilient",
]
