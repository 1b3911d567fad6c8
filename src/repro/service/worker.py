"""Worker daemon of the distributed sweep fabric.

``repro worker --connect ENDPOINT`` runs one worker: it dials the
coordinator, registers its name and slot count, and then executes
whatever ``w.assign`` frames arrive — each assignment through the
sweep engine's :class:`~repro.harness.parallel.UnitExecutor`, the one
a local daemon and a ``--jobs`` sweep use, under the retry policy the
assignment carries (timeout, retries, backoff), so per-unit timeouts,
retries with seeded backoff, and quarantine behave identically whether
a unit runs in-process or three hosts away.  The worker's verdict is
final: the coordinator reassigns a unit only when its lease is lost.
Results travel back as ``w.result`` frames; progress and
fault events are forwarded live as ``w.progress`` so coordinator-side
watchers see remote units exactly like local ones.

Liveness is the worker's job: it heartbeats at the interval the
coordinator announced in ``w.registered``.  If the coordinator goes
away (restart, crash, network), the worker reconnects with seeded
exponential backoff and registers again — from the coordinator's side
a rejoin is just a new worker joining, so a worker can be SIGKILLed
and relaunched mid-sweep without any special-case recovery path.

Fault injection composes for free: ``REPRO_FAULT_PLAN`` is read inside
the supervised worker *processes*, which inherit this daemon's
environment — launching a worker with a fault plan in its environment
chaos-tests the whole fabric path (worker-local retries first, then
lease revocation and reassignment when the worker itself is killed).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Tuple

from repro.harness.parallel import RetryPolicy, UnitExecutor, backoff_delay
from repro.service import protocol

#: Reconnect backoff base (seconds); capped growth via backoff_delay.
_RECONNECT_BASE = 0.25


@dataclass
class WorkerConfig:
    """Everything one worker daemon needs to run."""

    socket_path: Optional[str] = None  # coordinator Unix socket
    tcp: Optional[Tuple[str, int]] = None  # or coordinator TCP endpoint
    name: Optional[str] = None  # default: coordinator assigns one
    slots: int = 2  # concurrent supervised attempts
    state_dir: Optional[str] = None  # for worker.log; stdout if None
    reconnect: bool = True
    reconnect_tries: int = 30  # consecutive failed dials before giving up
    reconnect_seed: int = 0


class WorkerDaemon:
    def __init__(self, config: WorkerConfig) -> None:
        if (config.socket_path is None) == (config.tcp is None):
            raise ValueError(
                "worker needs exactly one of socket_path or tcp"
            )
        self.config = config
        self.executor = UnitExecutor(on_progress=self._forward_progress)
        self.inflight = 0
        self.completed = 0
        self.sessions = 0
        self._stop = asyncio.Event()
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock = asyncio.Lock()
        self._log_path = (
            Path(config.state_dir) / "worker.log"
            if config.state_dir
            else None
        )
        if self._log_path is not None:
            self._log_path.parent.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- log

    def log(self, message: str) -> None:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        line = f"{stamp} {message}"
        if self._log_path is not None:
            with self._log_path.open("a") as handle:
                handle.write(line + "\n")
        else:
            print(line, flush=True)

    # --------------------------------------------------------------- wire

    async def _send(self, frame: dict) -> None:
        """Write one frame to the coordinator (serialised, may raise)."""
        async with self._send_lock:
            writer = self._writer
            if writer is None:
                raise ConnectionResetError("not connected")
            writer.write(protocol.encode_frame(frame))
            await writer.drain()

    async def _send_quiet(self, frame: dict) -> None:
        """Like :meth:`_send` but a dead connection is not an error —
        the reconnect loop owns connection failures."""
        try:
            await self._send(frame)
        except (ConnectionError, OSError, RuntimeError):
            pass

    # ---------------------------------------------------------- progress

    def _forward_progress(self, event: dict) -> None:
        """Forward one progress or fault event as a ``w.progress`` frame."""
        if isinstance(event, dict):
            asyncio.ensure_future(
                self._send_quiet(
                    protocol.request("w.progress", event=event)
                )
            )

    # -------------------------------------------------------- assignment

    async def _run_assignment(self, frame: dict) -> None:
        lease = frame.get("lease")
        tag = frame.get("tag")
        try:
            unit = protocol.unit_from_wire(frame.get("unit") or {})
        except KeyError:
            self.log(f"malformed assign for lease {lease}; dropped")
            return
        # Each assignment carries the coordinator's per-unit policy.
        policy = RetryPolicy(**{
            name: frame[name]
            for name in (f.name for f in fields(RetryPolicy))
            if name in frame
        })

        def on_event(kind: str, info: dict) -> None:
            event = {"kind": kind, "tag": tag}
            event.update(info)
            self._forward_progress(event)

        self.inflight += 1
        try:
            result = await self.executor.run_unit(
                unit, tag=tag, on_event=on_event, policy=policy
            )
        finally:
            self.inflight -= 1
        self.completed += 1
        await self._send_quiet(
            protocol.request(
                "w.result",
                lease=lease,
                result=protocol.result_to_wire(result),
            )
        )

    # ---------------------------------------------------------- sessions

    async def _dial(self):
        if self.config.socket_path is not None:
            return await asyncio.open_unix_connection(
                self.config.socket_path
            )
        host, port = self.config.tcp
        return await asyncio.open_connection(host, port)

    async def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.is_set():
            await asyncio.sleep(interval)
            try:
                await self._send(
                    protocol.request(
                        "w.heartbeat",
                        name=self.config.name,
                        inflight=self.inflight,
                    )
                )
            except (ConnectionError, OSError, RuntimeError):
                return  # session read loop will observe the EOF

    async def _session(self, reader, writer) -> None:
        """One registered connection, register to EOF."""
        self._writer = writer
        self.sessions += 1
        # A fresh session un-drains the executor: a coordinator that
        # drained and restarted may assign again.
        self.executor.end_drain()
        await self._send(
            protocol.request(
                "w.register",
                name=self.config.name,
                slots=self.config.slots,
                pid=os.getpid(),
            )
        )
        heartbeat_task: Optional[asyncio.Task] = None
        pending = set()
        try:
            while not self._stop.is_set():
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    frame = protocol.decode_frame(line)
                except protocol.ProtocolError as error:
                    self.log(f"bad frame from coordinator: {error}")
                    return
                ftype = frame.get("type")
                if ftype == "w.registered":
                    self.config.name = frame.get("worker", self.config.name)
                    interval = float(frame.get("heartbeat", 1.0))
                    heartbeat_task = asyncio.ensure_future(
                        self._heartbeat_loop(interval)
                    )
                    self.log(
                        f"registered as {self.config.name} "
                        f"(slots={self.config.slots}, "
                        f"heartbeat={interval}s)"
                    )
                elif ftype == "w.assign":
                    task = asyncio.ensure_future(
                        self._run_assignment(frame)
                    )
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif ftype == "w.drain":
                    grace = float(frame.get("grace", 10.0))
                    self.log(f"coordinator draining (grace={grace}s)")
                    self.executor.begin_drain(grace)
                elif ftype == "w.revoke":
                    # Best-effort: the coordinator reassigned this
                    # lease; our eventual result will be discarded, so
                    # there is nothing to do that correctness needs.
                    self.log(f"lease {frame.get('lease')} revoked")
                elif ftype == "error":
                    self.log(
                        f"coordinator error: {frame.get('code')}: "
                        f"{frame.get('message')}"
                    )
                    return
        finally:
            self._writer = None
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            # In-flight assignments keep running across a reconnect;
            # their late results are dropped by _send_quiet (no writer)
            # or discarded coordinator-side as unknown leases.
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ----------------------------------------------------------- run/stop

    def request_stop(self) -> None:
        self._stop.set()
        writer = self._writer
        if writer is not None:
            try:
                writer.close()  # unblocks the session read loop
            except Exception:  # noqa: BLE001
                pass

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (ValueError, NotImplementedError, RuntimeError):
                pass
        endpoint = self.config.socket_path or "%s:%d" % self.config.tcp
        failures = 0
        try:
            while not self._stop.is_set():
                try:
                    reader, writer = await self._dial()
                except (ConnectionError, OSError) as error:
                    failures += 1
                    if (
                        not self.config.reconnect
                        or failures > self.config.reconnect_tries
                    ):
                        raise ConnectionError(
                            f"cannot reach coordinator at {endpoint} "
                            f"after {failures} attempt(s): {error}"
                        )
                    delay = min(
                        backoff_delay(
                            _RECONNECT_BASE,
                            failures,
                            self.config.name or "worker",
                            self.config.reconnect_seed,
                        ),
                        2.0,  # cap: poll a long outage every couple s
                    )
                    await asyncio.sleep(delay)
                    continue
                failures = 0
                self.log(f"connected to coordinator at {endpoint}")
                await self._session(reader, writer)
                if self._stop.is_set() or not self.config.reconnect:
                    break
                self.log("coordinator connection lost; reconnecting")
        finally:
            self._stop.set()


def serve_worker(config: WorkerConfig) -> None:
    """Blocking entry point: run one worker until stopped."""
    worker = WorkerDaemon(config)
    asyncio.run(worker.run())
