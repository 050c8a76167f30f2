#!/usr/bin/env python3
"""Structural validator for `thermosched serve --trace` output.

Checks that a Chrome/Perfetto traceEvents JSON file (the format
src/obs/trace.cpp exports — docs/OBSERVABILITY.md "Trace format") is
well formed:

1. The document parses as JSON with a ``traceEvents`` array and an
   ``otherData.dropped_events`` count.
2. Every event carries name/cat/ph/ts/pid/tid; ``ph`` is ``B`` or
   ``E`` (the recorder has spans only); ``ts`` is a non-negative number.
3. Per thread (``tid``), timestamps are non-decreasing — the recorder
   uses one monotonic clock, so out-of-order events mean a broken ring.
4. Per thread, ``B``/``E`` events are stack-balanced with matching
   names: every ``E`` closes the most recent open ``B`` of the same
   name, and nothing is left open at end of stream (the exporter
   synthesizes closing ``E`` events for spans still open at snapshot).

Usage: check_trace.py TRACE.json [--min-events N]

Stdlib only (CI runs it with a bare python3). Exit 0 = valid trace,
1 = violation (first offending event reported), 2 = usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PHASES = {"B", "E"}
REQUIRED_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")


def fail(message: str) -> None:
    print(f"check_trace: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="traceEvents JSON file")
    parser.add_argument(
        "--min-events", type=int, default=1,
        help="require at least this many events (default 1)")
    args = parser.parse_args()

    try:
        document = json.loads(args.trace.read_text())
    except OSError as error:
        fail(f"cannot read {args.trace}: {error}")
    except json.JSONDecodeError as error:
        fail(f"{args.trace} is not valid JSON: {error}")

    events = document.get("traceEvents")
    if not isinstance(events, list):
        fail("missing or non-array traceEvents")
    dropped = document.get("otherData", {}).get("dropped_events")
    if not isinstance(dropped, int) or dropped < 0:
        fail("otherData.dropped_events missing or not a non-negative int")

    last_ts: dict[int, float] = {}
    open_spans: dict[int, list[str]] = {}
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            fail(f"{where}: not an object")
        for key in REQUIRED_KEYS:
            if key not in event:
                fail(f"{where}: missing key '{key}'")
        name, phase, ts, tid = (event["name"], event["ph"], event["ts"],
                                event["tid"])
        if not isinstance(name, str) or not name:
            fail(f"{where}: empty or non-string name")
        if phase not in PHASES:
            fail(f"{where}: phase '{phase}' is not B or E")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{where}: ts {ts!r} is not a non-negative number")
        if tid in last_ts and ts < last_ts[tid]:
            fail(f"{where}: ts {ts} < previous ts {last_ts[tid]} on tid "
                 f"{tid} — per-thread timestamps must be non-decreasing")
        last_ts[tid] = ts

        stack = open_spans.setdefault(tid, [])
        if phase == "B":
            stack.append(name)
        else:
            if not stack:
                fail(f"{where}: 'E' for '{name}' on tid {tid} with no "
                     f"open span")
            top = stack.pop()
            if top != name:
                fail(f"{where}: 'E' for '{name}' on tid {tid} but the "
                     f"innermost open span is '{top}'")

    for tid, stack in sorted(open_spans.items()):
        if stack:
            fail(f"tid {tid}: {len(stack)} span(s) left open at end of "
                 f"stream (innermost '{stack[-1]}') — the exporter must "
                 f"synthesize closing events")

    if len(events) < args.min_events:
        fail(f"only {len(events)} events, expected >= {args.min_events}")

    spans = sum(1 for e in events if e["ph"] == "B")
    threads = len({e["tid"] for e in events})
    print(f"check_trace: OK — {len(events)} events ({spans} spans) on "
          f"{threads} thread(s), {dropped} dropped")


if __name__ == "__main__":
    main()
