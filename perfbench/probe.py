"""Host-speed probe: how much slower than unloaded each CPU runs now.

The benchmark shares its CPUs with other tenants of the host.  Their
load slows every instruction we run (shared cores and caches), by up
to 2x, in phases of seconds to minutes; a run's wall and CPU times
then say more about the neighbours than about the program.  The probe
measures that slowdown while a workload runs, so the benchmark can
report times at the host's unloaded speed.

One probe process is pinned to each CPU the workload uses.  Every
``PERIOD_S`` it runs a fixed kernel (random reads over a table larger
than the caches, plus dict stores — the mix the simulator's hot loops
make) and records its thread CPU time, which excludes the time the
guest scheduler gives to the workload on the same CPU.  The kernel is
the benchmark's own code: a change to the program never changes it.
At ~1.2 ms every 50 ms it takes about 2.5% of each CPU.

The kernel is less sensitive to the neighbours than the simulator:
on the reference host, with the probe ratio (mean kernel time over
``UNLOADED_NS``, its time on an unloaded CPU) between 1.1 and 1.6,
the workloads' times grew as the ratio squared (a log-log slope of
2.0 over 27 paper runs, 2.2 over 22 foundry iterations).  :meth:`HostProbe.slowdown` therefore
estimates a workload's slowdown over a window as the window's probe
ratio to the power ``SENSITIVITY``.  The kernel, ``UNLOADED_NS`` and
``SENSITIVITY`` must stay as they are: changing any of them rescales
every time the benchmark reports.

    python3 probe.py CPU OUTFILE    # one probe process (run by HostProbe)
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

#: The kernel's fastest time on the reference host (2 CPUs of a shared
#: x86-64 host, CPython 3), in ns.  A scale factor only: it makes the
#: corrected times read as seconds on an unloaded host.
UNLOADED_NS = 1_200_000
#: Workload slowdown = probe ratio ** SENSITIVITY (fitted, see above).
SENSITIVITY = 2.0
PERIOD_S = 0.05
#: Samples this far outside a window still count for it, so that a
#: set-up window of a few hundred ms has enough of them.
PAD_NS = 250_000_000
TABLE_SIZE = 1 << 19
READS = 3000


def _kernel_inputs():
    rng = random.Random(1)
    table = [rng.random() for _ in range(TABLE_SIZE)]
    index = [rng.randrange(TABLE_SIZE) for _ in range(READS)]
    return table, index


def _kernel(table, index, slots) -> float:
    total = 0.0
    for k, i in enumerate(index):
        total += table[i]
        slots[i & 4095] = k
    return total


def _probe_main(cpu: int, out: Path) -> int:
    """Sample until SIGTERM (or until the benchmark that started it is
    gone), then write [[mid stamp ns, cpu ns], ...]."""
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    table, index = _kernel_inputs()
    slots = {}
    samples = []
    Path(f"{out}.ready").touch()
    while not stop and os.getppid() == parent:
        started = time.monotonic_ns()
        cpu0 = time.thread_time_ns()
        _kernel(table, index, slots)
        spent = time.thread_time_ns() - cpu0
        samples.append((started + (time.monotonic_ns() - started) // 2, spent))
        time.sleep(PERIOD_S)
    out.write_text(json.dumps(samples))
    return 0


class HostProbe:
    """One probe process per CPU for the duration of a ``with`` block."""

    def __init__(self, work: Path, cpus: int) -> None:
        self.work = work
        self.cpus = sorted(os.sched_getaffinity(0))[:cpus]
        self.procs: List[subprocess.Popen] = []
        self.samples: List[Tuple[int, int]] = []

    def _out(self, cpu: int) -> Path:
        return self.work / f"probe-cpu{cpu}.json"

    def __enter__(self) -> "HostProbe":
        try:
            for cpu in self.cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, __file__, str(cpu), str(self._out(cpu))],
                ))
            deadline = time.monotonic() + 30.0
            while not all(
                Path(f"{self._out(cpu)}.ready").exists() for cpu in self.cpus
            ):
                if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in self.procs
                ):
                    raise RuntimeError("host probe did not start")
                time.sleep(0.01)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        if exc[0] is None:
            for cpu in self.cpus:
                self.samples += [
                    tuple(sample)
                    for sample in json.loads(self._out(cpu).read_text())
                ]
            self.samples.sort()

    def _stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """How many times slower than on an unloaded host the workload
        ran over the window: the probe ratio (mean kernel time in
        [start - PAD, end + PAD] over ``UNLOADED_NS``) to the power
        ``SENSITIVITY``."""
        spent = [
            cpu_ns for stamp, cpu_ns in self.samples
            if start_ns - PAD_NS <= stamp <= end_ns + PAD_NS
        ]
        if not spent:
            raise RuntimeError("no host probe samples in a timed window")
        return (sum(spent) / len(spent) / UNLOADED_NS) ** SENSITIVITY


if __name__ == "__main__":
    sys.exit(_probe_main(int(sys.argv[1]), Path(sys.argv[2])))
