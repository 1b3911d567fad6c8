"""argparse value types shared by every command-line entry point.

A bad value fails at parse time with the standard usage error (exit 2)
instead of surfacing later as a traceback, or not at all.  Stdlib
only: the CLIs import this before anything else.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number, got {text}"
        )
    return value


def cache_dir(text: str) -> str:
    """A cache-directory path: anything but an existing plain file."""
    if Path(text).is_file():
        raise argparse.ArgumentTypeError(
            f"{text!r} is a file, not a cache directory"
        )
    return text
