"""Unit tests for the tracer, RNG streams, and the CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.sim.rng import RngStreams
from repro.sim.trace import NullTracer, Tracer


class TestTracer:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a", x=1)
        tracer.record(2.0, "b", y=2)
        assert len(tracer) == 2
        assert [r.category for r in tracer] == ["a", "b"]

    def test_filter_by_category(self):
        tracer = Tracer()
        tracer.record(1.0, "a", n=1)
        tracer.record(2.0, "b", n=2)
        tracer.record(3.0, "a", n=3)
        assert [r.detail["n"] for r in tracer.filter("a")] == [1, 3]

    def test_category_allowlist(self):
        tracer = Tracer(categories={"keep"})
        tracer.record(1.0, "keep", x=1)
        tracer.record(2.0, "drop", x=2)
        assert len(tracer) == 1

    def test_dump_renders_text(self):
        tracer = Tracer()
        tracer.record(1e-6, "cat", key="value")
        text = tracer.dump()
        assert "cat" in text
        assert "key=value" in text

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.record(1.0, "x", a=1)
        assert len(tracer) == 0


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(5).stream("s")
        b = RngStreams(5).stream("s")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent(self):
        streams = RngStreams(5)
        first = streams.stream("a").random()
        # Creating and using other streams must not perturb "a".
        again = RngStreams(5)
        for name in ("z", "y", "x"):
            again.stream(name).random()
        assert again.stream("a").random() == first

    def test_stream_identity_cached(self):
        streams = RngStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_fork_independent_of_parent(self):
        parent = RngStreams(1)
        child = parent.fork("c")
        assert child.stream("a").random() != parent.stream("a").random()

    def test_fork_deterministic(self):
        a = RngStreams(1).fork("c").stream("s").random()
        b = RngStreams(1).fork("c").stream("s").random()
        assert a == b


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("figure1", "figure2", "figure8", "figure7",
                        "ablations", "systems", "chaos"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_systems_command(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "gwc_optimistic" in out
        assert "entry" in out

    def test_figure1_command_passes_checks(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "FAIL" not in out

    def test_figure7_command(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "rollback" in out

    def test_figure8_command_custom_sizes(self, capsys):
        assert main(["figure8", "--sizes", "2,4", "--data", "32"]) == 0
        out = capsys.readouterr().out
        assert "mutex methods" in out

    def test_figure2_command_custom_sizes(self, capsys):
        assert main(["figure2", "--sizes", "3,5", "--tasks", "32"]) == 0
        out = capsys.readouterr().out
        assert "task management" in out

    def test_chaos_smoke_command(self, capsys, tmp_path):
        csv_path = tmp_path / "chaos.csv"
        assert main(["chaos", "--smoke", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert "crash_holder" in out
        assert "9/9 run(s) ok" in out
        assert csv_path.read_text().startswith("system,workload,scenario")

    def test_chaos_single_scenario(self, capsys):
        assert main(
            ["chaos", "--systems", "gwc", "--scenario", "partition"]
        ) == 0
        out = capsys.readouterr().out
        assert "1/1 run(s) ok" in out

    def test_chaos_no_recovery_reports_stall_and_fails(self, capsys):
        assert main(
            [
                "chaos",
                "--systems",
                "gwc",
                "--scenario",
                "crash_holder",
                "--no-recovery",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "STALL" in out
        assert "0/1 run(s) ok" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_reproduce_command_digest(self, capsys):
        # Tiny custom scale via the quick defaults; the digest must end
        # with every expectation holding.
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "REPRODUCTION DIGEST: every paper expectation held" in out
        assert "FIGURE 1" in out and "FIGURE 8" in out
        for title in ("ABLATION A5", "GROUPING", "SENSITIVITY", "ANALYTIC"):
            assert title in out
        assert "REPLICATION" in out

    def test_bad_repro_jobs_is_a_one_line_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        assert main(["figure2", "--sizes", "3", "--tasks", "8"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "repro figure2: REPRO_JOBS must be an integer, got 'abc'"
        ]
