"""One benchmark iteration in a fresh interpreter.

``run.py`` starts this once per iteration so every iteration pays the
imports a user pays and its CPU time and memory land in
``RUSAGE_CHILDREN``.  The last stdout line is one JSON object; times
are ``time.monotonic_ns()`` stamps, which are comparable across the
processes of one host.

    child.py paper   --workdir W --seed N --scale S --jobs J [--trace-dir D]
    child.py foundry --workdir W --seed N --count C --jobs J [--trace-dir D]
    child.py paper|foundry --setup-only
    child.py repro --trace-dir D -- serve|worker ...

``--setup-only`` imports the entry point and exits (a set-up probe).
``--trace-dir`` installs the span ledger (``ledger.py``) before the
entry point is imported and flushes it when the run ends; without it
nothing is installed.  ``repro`` runs ``python -m repro`` under the
ledger, for traced service daemons and workers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: A run_all progress line: "  <uid> [ok]" (or cached/FAILED/...).
_PROGRESS = re.compile(r"^\s+(\S+) \[(\w+)")


class _LineStamper(io.TextIOBase):
    """stdout stand-in that timestamps each completed line."""

    def __init__(self) -> None:
        self._partial = ""
        self.lines = []

    def write(self, text: str) -> int:
        now = time.monotonic_ns()
        self._partial += text
        *complete, self._partial = self._partial.split("\n")
        self.lines.extend((now, line) for line in complete)
        return len(text)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_paper(args) -> dict:
    from repro.experiments.run_all import run_all

    ready = time.monotonic_ns()
    if args.setup_only:
        return {"ready": ready}
    workdir = Path(args.workdir)
    outdir = workdir / "paper"
    stamper = _LineStamper()
    with contextlib.redirect_stdout(stamper):
        run_all(
            str(outdir),
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            cache_dir=str(workdir / "cache"),
            quiet=False,
        )
    end = time.monotonic_ns()
    done = {}
    for stamp, line in stamper.lines:
        match = _PROGRESS.match(line)
        if match:
            done[match.group(1)] = stamp
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {
        "ready": ready,
        "end": end,
        "done": done,
        "status": {
            name: record["status"]
            for name, record in manifest["experiments"].items()
        },
        "digests": {
            path.name: _sha256(path.read_bytes())
            for path in sorted(outdir.iterdir())
            if path.is_file() and path.name != "manifest.json"
        },
    }


def run_foundry_matrix(args) -> dict:
    from repro.foundry.matrix import matrix_to_json
    from repro.foundry.runner import run_foundry

    ready = time.monotonic_ns()
    if args.setup_only:
        return {"ready": ready}
    done = {}

    def progress(message: str) -> None:
        done[message.split()[0]] = time.monotonic_ns()

    matrix = run_foundry(
        args.seed, args.count, jobs=args.jobs, progress=progress
    )
    text = matrix_to_json(matrix)
    end = time.monotonic_ns()
    golden = ROOT / "results" / "foundry_matrix_golden.json"
    return {
        "ready": ready,
        "end": end,
        "done": done,
        "records": matrix["cases"] * len(matrix["defenses"]),
        "mispredictions": len(matrix["mispredictions"]),
        "digest": _sha256(text.encode()),
        "golden_equal": (
            text.encode() == golden.read_bytes()
            if golden.is_file()
            else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("paper", "foundry", "repro"))
    parser.add_argument("--workdir")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    ledger = None
    if args.trace_dir:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from ledger import install

        ledger = install(args.trace_dir)
    try:
        if args.mode == "repro":
            from repro.__main__ import main as repro_main

            return repro_main(rest)
        runner = run_paper if args.mode == "paper" else run_foundry_matrix
        result = runner(args)
    finally:
        if ledger is not None:
            ledger.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
