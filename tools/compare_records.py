#!/usr/bin/env python3
"""Compare two serve result streams (JSONL) field by field.

    tools/compare_records.py A B --rel 1e-13

Record k of A is compared with record k of B. Everything but
floating-point numbers must be exactly equal: the line count, every key,
every string (ids and error messages), every boolean (``ok``), null, and
every number that is an integer on both sides (session and discard
counts, steps, violations). A number written with a fraction or an
exponent on either side is a float, and must lie within ``--rel`` of its
counterpart relative to the larger magnitude.

Each difference that fails is printed with its path, e.g.
``line 3 (id "g000049"): points[0].sessions: 2 != 3``. The exit status is
1 on any failure and 0 otherwise. The closing summary names every float
field that differed within the bound, with its count and largest
relative gap, so a tolerance-pinned change can show which fields moved.

Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from collections import defaultdict

FIELD_INDEX = re.compile(r"\[\d+\]")


class Comparison:
    def __init__(self, rel: float) -> None:
        self.rel = rel
        self.failures: list[str] = []
        # Float fields that differed within the bound, by path with the
        # list indices dropped: [count, largest relative gap].
        self.moved: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def fail(self, where: str, path: str, message: str) -> None:
        self.failures.append(f"{where}: {path or '<record>'}: {message}")

    def value(self, where: str, path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.fail(where, path, f"keys {list(a)} != {list(b)}")
                return
            for key in a:
                self.value(where, f"{path}.{key}" if path else key, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.fail(where, path, f"length {len(a)} != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.value(where, f"{path}[{i}]", x, y)
        elif is_number(a) and is_number(b) and (isinstance(a, float) or
                                                isinstance(b, float)):
            if a == b:
                return
            gap = abs(a - b) / max(abs(a), abs(b))
            if gap > self.rel:
                self.fail(where, path, f"{a!r} != {b!r} (relative {gap:.3g})")
                return
            moved = self.moved[FIELD_INDEX.sub("[]", path)]
            moved[0] += 1
            moved[1] = max(moved[1], gap)
        elif type(a) is not type(b) or a != b:
            self.fail(where, path, f"{json.dumps(a)} != {json.dumps(b)}")


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_records(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rel", type=float, default=0.0,
                        help="relative bound on float fields (default 0: exact)")
    args = parser.parse_args()

    a = read_records(args.a)
    b = read_records(args.b)
    comparison = Comparison(args.rel)
    if len(a) != len(b):
        comparison.fail("file", "", f"{len(a)} records != {len(b)}")
    for k, (x, y) in enumerate(zip(a, b), start=1):
        record_id = x.get("id") if isinstance(x, dict) else None
        where = f"line {k}" + (f" (id {json.dumps(record_id)})"
                               if record_id is not None else "")
        comparison.value(where, "", x, y)

    for failure in comparison.failures:
        print(failure)
    for field, (count, gap) in sorted(comparison.moved.items()):
        print(f"moved within bound: {field}: {count} values, "
              f"max relative {gap:.3g}")
    print(f"{min(len(a), len(b))} records compared, "
          f"{len(comparison.failures)} failures (--rel {args.rel:g})")
    return 1 if comparison.failures else 0


if __name__ == "__main__":
    sys.exit(main())
