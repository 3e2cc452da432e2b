"""Unit tests for CSV export."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import ExperimentError
from repro.metrics.export import (
    channel_stats_rows,
    channel_stats_summary,
    to_csv,
    to_csv_columns,
    write_csv,
)
from repro.net.network import ChannelStats


@dataclass(frozen=True)
class _Row:
    n: int
    value: float


class TestToCsv:
    def test_dataclass_rows(self):
        text = to_csv([_Row(1, 2.5), _Row(2, 3.5)])
        lines = text.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "1,2.5"
        assert lines[2] == "2,3.5"

    def test_dict_rows(self):
        text = to_csv([{"a": 1, "b": "x"}])
        assert text.strip().splitlines() == ["a,b", "1,x"]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            to_csv([])

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ExperimentError):
            to_csv([{"a": 1}, {"b": 2}])

    def test_unsupported_type_rejected(self):
        with pytest.raises(ExperimentError):
            to_csv([(1, 2)])


class TestToCsvColumns:
    def test_positional_rows(self):
        text = to_csv_columns(["x", "y"], [[1, 2], [3, 4]])
        assert text.strip().splitlines() == ["x,y", "1,2", "3,4"]

    def test_width_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            to_csv_columns(["x"], [[1, 2]])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            to_csv_columns(["x"], [])


class TestWriteCsv:
    def test_writes_file(self, tmp_path):
        target = write_csv(tmp_path / "sub" / "out.csv", [_Row(1, 2.0)])
        assert target.exists()
        assert target.read_text().startswith("n,value")


class TestChannelStatsExport:
    def _stats(self) -> ChannelStats:
        stats = ChannelStats()
        stats.messages = 10
        stats.bytes = 640
        stats.dropped = 3
        stats.loss_dropped = 1
        stats.fault_dropped = 2
        stats.fault_delayed = 4
        stats.fault_duplicated = 5
        stats.inbound.update({0: 4, 1: 3})
        stats.outbound.update({0: 5, 2: 5})
        stats.dropped_inbound.update({1: 3})
        return stats

    def test_summary_flattens_all_counters(self):
        assert channel_stats_summary(self._stats()) == {
            "messages": 10,
            "bytes": 640,
            "dropped": 3,
            "loss_dropped": 1,
            "fault_dropped": 2,
            "fault_delayed": 4,
            "fault_duplicated": 5,
            "failovers": 0,
            "stale_epoch_discards": 0,
            "rerouted_requests": 0,
        }

    def test_rows_cover_every_node_seen(self):
        rows = channel_stats_rows(self._stats())
        assert [row["node"] for row in rows] == [0, 1, 2]
        assert rows[1] == {
            "node": 1,
            "inbound": 3,
            "outbound": 0,
            "dropped_inbound": 3,
        }

    def test_rows_round_trip_through_csv(self):
        text = to_csv(channel_stats_rows(self._stats()))
        assert text.splitlines()[0] == "node,inbound,outbound,dropped_inbound"
        assert len(text.strip().splitlines()) == 4

    def test_fresh_stats_summary_is_all_zero(self):
        summary = channel_stats_summary(ChannelStats())
        assert all(value == 0 for value in summary.values())
