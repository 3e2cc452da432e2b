"""CSV export for experiment rows.

The CLI prints human-readable tables; this module emits
machine-readable CSV (the golden artifacts, ``--csv`` outputs) so the
series can be re-plotted with external tooling.  Rows may be
dataclasses, mappings, or plain sequences.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import pathlib
from typing import Any, Iterable, Sequence

from repro.errors import ExperimentError


def _row_to_dict(row: Any) -> dict[str, Any]:
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return dataclasses.asdict(row)
    if isinstance(row, dict):
        return dict(row)
    raise ExperimentError(
        f"cannot export row of type {type(row).__name__}; pass dataclasses "
        "or dicts (or use to_csv_columns for plain sequences)"
    )


def to_csv(rows: Iterable[Any]) -> str:
    """Render dataclass/dict rows as CSV text (header from field names)."""
    dict_rows = [_row_to_dict(row) for row in rows]
    if not dict_rows:
        raise ExperimentError("no rows to export")
    fieldnames = list(dict_rows[0])
    for row in dict_rows:
        if list(row) != fieldnames:
            raise ExperimentError("rows have inconsistent fields")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(dict_rows)
    return buffer.getvalue()


def to_csv_columns(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Render header + positional rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(headers))
    count = 0
    for row in rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        writer.writerow(list(row))
        count += 1
    if count == 0:
        raise ExperimentError("no rows to export")
    return buffer.getvalue()


def write_csv(path: str | pathlib.Path, rows: Iterable[Any]) -> pathlib.Path:
    """Write dataclass/dict rows to a CSV file; returns the path.

    The write is atomic (temp + fsync + rename via the goldens writer):
    an interrupted export leaves the previous file intact rather than a
    truncated one, so a CSV on disk is always a complete run's rows.
    """
    from repro.goldens.writer import atomic_write_text

    return atomic_write_text(path, to_csv(rows))


#: The one chaos/campaign run schema, in column order.  Shared by
#: ``repro chaos --csv``, the ``chaos``/``failover`` golden surfaces,
#: and every ``repro campaign`` summary row (campaign rows prepend
#: trial-context columns via ``prefix``), so all fault-run exports
#: carry identical columns and a row from any of them can be compared
#: against any other.
CHAOS_RUN_FIELDS: tuple[str, ...] = (
    "system",
    "workload",
    "scenario",
    "seed",
    "ok",
    "final_counter",
    "chain_length",
    "converged",
    "lock_requests",
    "lock_timeouts",
    "lock_retries",
    "lock_reclaims",
    "failovers",
    "stale_epoch_discards",
    "rerouted_requests",
    "window_discards",
    "recovery_time_mean_s",
    "messages",
    "dropped",
    "fault_dropped",
    "fault_delayed",
    "fault_duplicated",
    "root_count",
    "root_load_max",
    "root_load_mean",
    "stall",
)


def chaos_run_row(
    values: dict[str, Any], prefix: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Project ``values`` onto the shared chaos-run schema.

    Returns a dict whose keys are exactly ``prefix`` columns (in their
    given order) followed by :data:`CHAOS_RUN_FIELDS`; a missing or
    extra field is a hard error so the chaos and campaign emitters can
    never silently diverge.
    """
    extra = set(values) - set(CHAOS_RUN_FIELDS)
    missing = set(CHAOS_RUN_FIELDS) - set(values)
    if extra or missing:
        raise ExperimentError(
            "chaos-run row does not match the shared schema: "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    row: dict[str, Any] = dict(prefix) if prefix else {}
    for name in CHAOS_RUN_FIELDS:
        if name in row:
            raise ExperimentError(
                f"chaos-run prefix column {name!r} collides with the schema"
            )
        row[name] = values[name]
    return row


def channel_stats_summary(stats: "ChannelStats") -> dict[str, int]:  # noqa: F821
    """Whole-network traffic and fault counters as one flat mapping.

    Includes the loss-model vs fault-injector drop split so chaos runs
    can report both causes separately (``dropped`` is their sum plus any
    legacy accounting).
    """
    return {
        "messages": stats.messages,
        "bytes": stats.bytes,
        "dropped": stats.dropped,
        "loss_dropped": stats.loss_dropped,
        "fault_dropped": stats.fault_dropped,
        "fault_delayed": stats.fault_delayed,
        "fault_duplicated": stats.fault_duplicated,
        "stale_epoch_discards": stats.stale_epoch_discards,
        "rerouted_requests": stats.rerouted_requests,
        "failovers": stats.failovers,
    }


def channel_stats_rows(stats: "ChannelStats") -> list[dict[str, int]]:  # noqa: F821
    """Per-node traffic rows (ready for :func:`to_csv` / :func:`write_csv`).

    One row per node that ever sent or received, with its inbound,
    outbound, and dropped-inbound message counts.
    """
    nodes = sorted(
        set(stats.inbound) | set(stats.outbound) | set(stats.dropped_inbound)
    )
    return [
        {
            "node": node,
            "inbound": stats.inbound.get(node, 0),
            "outbound": stats.outbound.get(node, 0),
            "dropped_inbound": stats.dropped_inbound.get(node, 0),
        }
        for node in nodes
    ]
