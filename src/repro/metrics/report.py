"""Plain-text tables for benchmark output.

The benchmark harnesses print the same rows/series the paper's figures
plot; these helpers keep that output aligned and readable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def ms(seconds: Optional[float]) -> Optional[float]:
    """Seconds -> milliseconds (None passes through)."""
    return None if seconds is None else seconds * 1000.0


def storage_table(storage: dict, title: Optional[str] = "storage") -> str:
    """Per-disk fault/IO counters plus the cluster integrity totals.

    ``storage`` is the dict :meth:`repro.cluster.SimCluster.storage_stats`
    returns (also embedded in each chaos report): per-device sync/byte
    counts with every injected-fault counter, the reader-side integrity
    totals, and any salvage reports recovery produced.
    """
    disks = storage.get("disks", {})
    rows = [
        (
            name,
            d.get("syncs", 0),
            d.get("bytes_written", 0),
            d.get("write_errors", 0),
            d.get("lost_fsyncs", 0),
            d.get("corruptions", 0),
            d.get("torn_writes", 0),
            d.get("repairs", "-"),
        )
        for name, d in sorted(disks.items())
    ]
    lines = [
        format_table(
            ["disk", "syncs", "bytes", "werr", "liedfsync", "rot", "torn",
             "repairs"],
            rows,
            title=title,
        )
    ]
    integrity = storage.get("integrity", {})
    if integrity:
        lines.append(
            "integrity: "
            + " ".join(f"{k}={v}" for k, v in sorted(integrity.items()))
        )
    for report in storage.get("salvage_reports", []):
        lines.append(
            "salvage: {path}: kept {kept}/{total}, dropped {dropped} "
            "(torn {torn}, corrupt {corrupt}), repaired {repaired}, "
            "{bytes_truncated}B truncated [{reason}]".format(**report)
        )
    return "\n".join(lines)


def spans_table(
    stage_summary: dict,
    title: Optional[str] = "commit-path stages",
) -> str:
    """Per-stage latency breakdown from ``SpanTracer.stage_summary()``.

    One row per stage: sample count, mean/p50/p95/p99/max in
    milliseconds, plus the crash-truncated span count when non-zero.
    """
    rows = []
    for stage, stats in sorted(stage_summary.items()):
        rows.append((
            stage,
            stats.get("count", 0),
            ms(stats.get("mean", 0.0)),
            ms(stats.get("p50", 0.0)),
            ms(stats.get("p95", 0.0)),
            ms(stats.get("p99", 0.0)),
            ms(stats.get("max", 0.0)),
            stats.get("truncated", 0) or "-",
        ))
    return format_table(
        ["stage", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms",
         "max ms", "trunc"],
        rows,
        title=title,
    )


def ascii_chart(
    series: Sequence[tuple],
    height: int = 10,
    width: int = 72,
    title: Optional[str] = None,
    y_label: str = "",
) -> str:
    """Render (x, y) points as a monospace chart (None y-values are gaps).

    Down-samples to ``width`` columns by averaging; the y-axis is scaled to
    the data range.  Good enough to eyeball a failover timeline in a
    terminal without plotting libraries.
    """
    points = [(x, y) for x, y in series if y is not None]
    if not points:
        return "(no data)"
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    span = (x_max - x_min) or 1.0

    columns: List[List[float]] = [[] for _ in range(width)]
    for x, y in points:
        col = min(int((x - x_min) / span * (width - 1)), width - 1)
        columns[col].append(y)
    col_values = [sum(c) / len(c) if c else None for c in columns]

    grid = [[" "] * width for _ in range(height)]
    for col, value in enumerate(col_values):
        if value is None:
            continue
        row = int((value - y_min) / (y_max - y_min) * (height - 1))
        grid[height - 1 - row][col] = "*"

    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_max:>8.1f} |"
        elif i == height - 1:
            label = f"{y_min:>8.1f} |"
        else:
            label = " " * 8 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 8 + " +" + "-" * width)
    lines.append(
        " " * 10 + f"{x_min:<10.0f}" + " " * (width - 24) + f"{x_max:>10.0f}"
    )
    if y_label:
        lines.append(" " * 10 + y_label)
    return "\n".join(lines)
