"""Plain-text tables for experiment output.

``repro reproduce`` prints the same rows/series the paper's figures
report; this module renders them readably without external dependencies.
"""

from __future__ import annotations

from typing import Any, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(values: Sequence[str]) -> str:
        return "  ".join(v.rjust(widths[i]) for i, v in enumerate(values))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append(fmt_row(["-" * w for w in widths]))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)
