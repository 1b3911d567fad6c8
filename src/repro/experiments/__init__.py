"""Experiment reproductions, one module per paper table/figure.

Every module exposes ``regenerate(scale=..., seed=...) -> str``
returning the paper-style rendering; run one or more through the
experiment planner (:mod:`repro.experiments.run_all`)::

    python -m repro experiments fig7 --scale 0.35

Modules: :mod:`table1` (REST action-semantics conformance),
:mod:`table2` (hardware configuration), :mod:`table3` (scheme
comparison + measured detection matrix), :mod:`fig3` (ASan overhead
breakdown), :mod:`fig7` (runtime overheads), :mod:`fig8` (token
widths), :mod:`intext` (Section VI-B in-text microarchitectural
observations), :mod:`memoverhead` (memory overhead), :mod:`security`
(detection coverage), :mod:`defensezoo` (REST vs MTE vs ASan) and
:mod:`attackmatrix` (attack suite x defense outcome grid).
:mod:`run_all` regenerates them all into a directory.
"""

__all__ = [
    "attackmatrix",
    "defensezoo",
    "fig3",
    "fig7",
    "fig8",
    "intext",
    "memoverhead",
    "run_all",
    "security",
    "table1",
    "table2",
    "table3",
]
