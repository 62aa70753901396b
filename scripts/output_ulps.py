#!/usr/bin/env python3
"""Compare two output directories of the CLI, file by file, in ulps.

    python scripts/output_ulps.py BASE_DIR HEAD_DIR

Prints one Markdown line per file: identical, or how it differs.  For a CSV
file that differs, each numeric column whose values moved gets its maximum
and median distance in ulps over the rows, and its maximum distance in
ulps of the column's largest |value|; any other column that changed gets
its count of changed rows.  The first reads a column that crosses zero as
moving far, since a value near 0 has tiny ulps; the second measures the
move against the column's scale.  For a JSON file, each float leaf
that moved gets its distance in ulps, and any other leaf that changed is
named.  The distance between two floats is the number of representable
doubles between them, so +0.0 and -0.0 are 0 ulps apart.  `timings.json`
holds wall-clock timers, which differ between any two runs, so it gets one
line saying so and is not compared.  Exits 0 whatever it finds: it reports,
it does not judge.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import struct
import sys
from pathlib import Path

# Files whose values are measurements of the run, not its results.
NOT_COMPARED = {"timings.json": "wall-clock timers, not compared"}


def _ordered(x: float) -> int:
    """The position of x on the line of doubles, +0.0 and -0.0 both at 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: float, b: float) -> float:
    """Doubles between a and b; inf when either is NaN and they are not both."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return float(abs(_ordered(a) - _ordered(b)))


def column_ulps(pairs: list[tuple[float, float]]) -> float:
    """The largest |a - b| over the pairs, in ulps of the largest |value| of
    either side: inf when a pair moves to or from a non-finite value."""
    if any(not (math.isfinite(a) and math.isfinite(b)) and ulps(a, b) for a, b in pairs):
        return math.inf
    finite = [(a, b) for a, b in pairs if math.isfinite(a) and math.isfinite(b)]
    scale = max((max(abs(a), abs(b)) for a, b in finite), default=0.0)
    return max((abs(a - b) for a, b in finite), default=0.0) / math.ulp(scale)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def csv_lines(base: Path, head: Path) -> list[str]:
    """One line per column that moved."""
    with base.open(newline="") as fb, head.open(newline="") as fh:
        rows_b, rows_h = list(csv.DictReader(fb)), list(csv.DictReader(fh))
    if len(rows_b) != len(rows_h):
        return [f"{len(rows_b)} rows in the base, {len(rows_h)} here"]
    lines = []
    columns = list(rows_h[0]) if rows_h else []
    for col in columns:
        if rows_b and col not in rows_b[0]:
            lines.append(f"`{col}`: new column")
            continue
        pairs = [(rb[col], rh[col]) for rb, rh in zip(rows_b, rows_h)]
        numbers = [(_number(b), _number(h)) for b, h in pairs]
        if all(b is not None and h is not None for b, h in numbers):
            dist = [ulps(b, h) for b, h in numbers]
            if max(dist, default=0.0) > 0.0:
                lines.append(
                    f"`{col}`: max {max(dist):g} ulps, median {statistics.median(dist):g}; "
                    f"max {column_ulps(numbers):.3g} ulps of the column's largest |value|"
                )
        else:
            changed = sum(b != h for b, h in pairs)
            if changed:
                lines.append(f"`{col}`: {changed} of {len(pairs)} rows changed")
    return lines


def _leaves(node, path=""):
    """(path, value) of every leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def json_lines(base: Path, head: Path) -> list[str]:
    """One line per leaf that moved."""
    leaves_b = dict(_leaves(json.loads(base.read_text())))
    lines = []
    for path, value in _leaves(json.loads(head.read_text())):
        if path not in leaves_b:
            lines.append(f"`{path}`: new")
            continue
        old = leaves_b.pop(path)
        if isinstance(value, float) and isinstance(old, (int, float)) and not isinstance(old, bool):
            dist = ulps(float(old), value)
            if dist:
                lines.append(f"`{path}`: {dist:g} ulps ({old!r} -> {value!r})")
        elif value != old or type(value) is not type(old):
            lines.append(f"`{path}`: {old!r} -> {value!r}")
    lines += [f"`{path}`: gone" for path in leaves_b]
    return lines


def report(base_dir: Path, head_dir: Path) -> list[str]:
    names = sorted({p.name for d in (base_dir, head_dir) for p in d.iterdir() if p.is_file()})
    out = []
    for name in names:
        base, head = base_dir / name, head_dir / name
        if not base.exists() or not head.exists():
            out.append(f"- `{name}`: only {'here' if head.exists() else 'in the base'}")
            continue
        if name in NOT_COMPARED:
            out.append(f"- `{name}`: {NOT_COMPARED[name]}")
            continue
        if base.read_bytes() == head.read_bytes():
            out.append(f"- `{name}`: identical")
            continue
        out.append(f"- `{name}`: **differs**")
        try:
            if name.endswith(".csv"):
                detail = csv_lines(base, head)
            elif name.endswith(".json"):
                detail = json_lines(base, head)
            else:
                detail = []
        except (ValueError, KeyError) as exc:
            detail = [f"not compared: {exc}"]
        out += [f"  - {line}" for line in detail]
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python scripts/output_ulps.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    print("\n".join(report(Path(args[0]), Path(args[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
