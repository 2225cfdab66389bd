"""Plain-text table rendering for experiment output.

Tables render in the paper's row-oriented style: a header row, a rule, and
one row per metric, padded to column widths.  No external dependencies --
the output goes straight into CLI logs.
"""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as an aligned text table with a header rule."""
    if not headers:
        raise ValueError("headers must be non-empty")
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)} columns"
            )
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = [format_row(headers)]
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(format_row(row) for row in text_rows)
    return "\n".join(lines)


def render_kv(title: str, pairs: Sequence[tuple[str, object]]) -> str:
    """Render key/value pairs under a title (experiment headers)."""
    width = max((len(key) for key, _ in pairs), default=0)
    lines = [title, "=" * len(title)]
    lines.extend(f"{key.ljust(width)} : {value}" for key, value in pairs)
    return "\n".join(lines)


def format_us(value_us: float) -> str:
    """Human-scale duration: us / ms / s with sensible precision."""
    if value_us < 1000:
        return f"{value_us:.1f} us"
    if value_us < 1_000_000:
        return f"{value_us / 1000:.1f} ms"
    return f"{value_us / 1_000_000:.2f} s"


def format_bytes(value: float) -> str:
    """Human-scale sizes: B / KB / MB / GB (binary units)."""
    units = ["B", "KB", "MB", "GB", "TB"]
    size = float(value)
    for unit in units:
        if size < 1024 or unit == units[-1]:
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.2f} {unit}"
        size /= 1024
    raise AssertionError("unreachable")
