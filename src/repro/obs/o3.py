"""gem5 O3PipeView-compatible per-instruction pipeline trace export.

gem5's out-of-order CPU can log one record per instruction in the
``O3PipeView`` format, which ``util/o3-pipeview.py`` (and the web-based
Konata viewer) render as a pipeline diagram.  This module reconstructs
those records from our structured event stream (see
:mod:`repro.obs.tracer`) so existing gem5 visualizers work on our runs.

One record is seven lines::

    O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
    O3PipeView:decode:<tick>
    O3PipeView:rename:<tick>
    O3PipeView:dispatch:<tick>
    O3PipeView:issue:<tick>
    O3PipeView:complete:<tick>
    O3PipeView:retire:<tick>:store:<store-completion-tick>

Our pipeline has no distinct decode/rename stages, so decode mirrors
fetch and rename mirrors dispatch — exactly what o3-pipeview renders as
zero-length stages.  Ticks are ``cycle * cycle_ticks`` with the default
``cycle_ticks=1000`` matching o3-pipeview's default ``--cycle-time``,
so traces open with stock viewer settings.

Fetch events stamped with a ``seq`` (the core previews the dispatch
sequence number at fetch, see INTERNALS §12) pair with the dispatch
event carrying the same ``seq`` directly; unstamped legacy streams fall
back to FIFO pairing (the frontend is in order, so the Nth fetch is the
Nth dispatch).  Records missing any stage (their early events were
overwritten in the ring buffer, or the op never committed) are skipped
rather than emitted half-filled.  A record whose events carry a static
statement id surfaces it as ``sid`` and in the disasm column.
"""

from __future__ import annotations

import re
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Union

#: Stage keys of one complete record, in pipeline order.
RECORD_STAGES = ("fetch", "dispatch", "issue", "complete", "retire")

_FETCH_LINE = re.compile(
    r"^O3PipeView:fetch:(\d+):0x([0-9a-f]+):(\d+):(\d+):(.+)$"
)
_STAGE_LINE = re.compile(
    r"^O3PipeView:(decode|rename|dispatch|issue|complete):(\d+)$"
)
_RETIRE_LINE = re.compile(r"^O3PipeView:retire:(\d+):store:(\d+)$")

#: Line kinds of one record, in emission order.
_LINE_ORDER = (
    "fetch", "decode", "rename", "dispatch", "issue", "complete", "retire",
)


def o3_records(events: Iterable[Dict]) -> List[Dict]:
    """Assemble per-instruction stage records from an event stream.

    Returns one dict per instruction with ``seq``, ``pc``, ``op`` and a
    cycle per stage in :data:`RECORD_STAGES`.  Incomplete records are
    dropped (ring wraparound or in-flight at end of trace).
    """
    fetch_fifo: deque = deque()
    fetch_by_seq: Dict[int, Dict] = {}
    records: Dict[int, Dict] = {}
    order: List[int] = []
    for event in events:
        kind = event.get("kind")
        if kind == "fetch":
            if "seq" in event:
                fetch_by_seq[event["seq"]] = event
            else:
                fetch_fifo.append(event)
        elif kind == "dispatch":
            seq = event["seq"]
            record = {
                "seq": seq,
                "pc": event.get("pc", 0),
                "sid": event.get("sid", -1),
                "op": event.get("op", "uop"),
                "dispatch": event["cycle"],
            }
            fetch_event = fetch_by_seq.pop(seq, None)
            if fetch_event is None and fetch_fifo:
                fetch_event = fetch_fifo.popleft()
            if fetch_event is not None:
                record["fetch"] = fetch_event["cycle"]
                record.setdefault("pc", fetch_event.get("pc", 0))
                if record["sid"] < 0:
                    record["sid"] = fetch_event.get("sid", -1)
            records[seq] = record
            order.append(seq)
        elif kind == "issue":
            record = records.get(event["seq"])
            if record is not None:
                record["issue"] = event["cycle"]
        elif kind == "complete":
            record = records.get(event["seq"])
            if record is not None:
                record["complete"] = event["cycle"]
        elif kind == "commit":
            record = records.get(event["seq"])
            if record is not None:
                record["retire"] = event["cycle"]
                record["store_done"] = event.get("store_done", 0)
    complete = []
    for seq in order:
        record = records[seq]
        if all(stage in record for stage in RECORD_STAGES):
            complete.append(record)
    return complete


def format_o3_record(record: Dict, cycle_ticks: int = 1000) -> str:
    """Render one assembled record as the seven O3PipeView lines."""
    tick = lambda cycle: cycle * cycle_ticks  # noqa: E731
    store_done = record.get("store_done", 0) or 0
    sid = record.get("sid", -1)
    disasm = record["op"] if sid < 0 else "%s s%d" % (record["op"], sid)
    lines = [
        "O3PipeView:fetch:%d:0x%08x:0:%d:%s"
        % (tick(record["fetch"]), record["pc"], record["seq"], disasm),
        "O3PipeView:decode:%d" % tick(record["fetch"]),
        "O3PipeView:rename:%d" % tick(record["dispatch"]),
        "O3PipeView:dispatch:%d" % tick(record["dispatch"]),
        "O3PipeView:issue:%d" % tick(record["issue"]),
        "O3PipeView:complete:%d" % tick(record["complete"]),
        "O3PipeView:retire:%d:store:%d"
        % (tick(record["retire"]), tick(store_done) if store_done > 0 else 0),
    ]
    return "\n".join(lines)


def export_o3_pipeview(
    events: Iterable[Dict],
    path: Union[str, Path],
    cycle_ticks: int = 1000,
) -> int:
    """Write an O3PipeView trace from an event stream; returns records
    written."""
    records = o3_records(events)
    with open(path, "w") as handle:
        for record in records:
            handle.write(format_o3_record(record, cycle_ticks))
            handle.write("\n")
    return len(records)


def validate_o3_trace(text: str) -> int:
    """Validate O3PipeView line format and record structure.

    Checks what gem5's ``util/o3-pipeview.py`` parser relies on: every
    line matches one of the three line shapes, lines group into
    complete 7-line records in stage order, and stage ticks are
    monotonically non-decreasing within a record.  Returns the record
    count; raises ``ValueError`` on the first violation.
    """
    lines = [line for line in text.splitlines() if line]
    if len(lines) % len(_LINE_ORDER):
        raise ValueError(
            f"{len(lines)} lines is not a multiple of "
            f"{len(_LINE_ORDER)}-line records"
        )
    records = 0
    for base in range(0, len(lines), len(_LINE_ORDER)):
        ticks = []
        for offset, expected in enumerate(_LINE_ORDER):
            line = lines[base + offset]
            if expected == "fetch":
                match = _FETCH_LINE.match(line)
            elif expected == "retire":
                match = _RETIRE_LINE.match(line)
            else:
                match = _STAGE_LINE.match(line)
                if match and match.group(1) != expected:
                    match = None
            if match is None:
                raise ValueError(
                    f"line {base + offset + 1}: expected "
                    f"{expected!r} line, got {line!r}"
                )
            if expected == "fetch":
                ticks.append(int(match.group(1)))
            elif expected == "retire":
                ticks.append(int(match.group(1)))
            else:
                ticks.append(int(match.group(2)))
        if ticks != sorted(ticks):
            raise ValueError(
                f"record at line {base + 1}: stage ticks {ticks} are "
                "not monotonically non-decreasing"
            )
        records += 1
    return records
