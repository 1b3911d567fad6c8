"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from repro.harness.configs import SimulationConfig

#: Default workload scale of the experiment functions, and of
#: ``python -m repro experiments --scale``.  0.35 keeps a full Figure 7
#: sweep (12 benchmarks x 8 configurations) under a minute.
DEFAULT_SCALE = 0.35


def make_config(scale: float = DEFAULT_SCALE, seed: int = 1234) -> SimulationConfig:
    return SimulationConfig(scale=scale, seed=seed)
