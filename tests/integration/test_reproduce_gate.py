"""``repro reproduce`` fails when any section's paper claim fails.

Each test forces one section's rows past a bound and checks that the
command's exit code reports it.  The section list is cut to the
section under test plus Figure 1 (which passes), so the tests stay
fast and show that only the failed claim is counted.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments import ablation, digest, grouping
from repro.experiments.grouping import GroupingRow


def _only(monkeypatch, *prefixes: str) -> None:
    kept = tuple(
        section
        for section in digest.SECTIONS
        if section.title.startswith(("FIGURE 1 — locking",) + prefixes)
    )
    assert len(kept) == 1 + len(prefixes)
    monkeypatch.setattr(digest, "SECTIONS", kept)


def _global_root_barely_slower(**_kwargs) -> list[GroupingRow]:
    return [GroupingRow(8, 10e-6, 12e-6), GroupingRow(16, 10e-6, 14e-6)]


def _echo_blocking_not_needed(**_kwargs):
    correct = SimpleNamespace(
        extra={"correct": True, "chain_ok": True, "echoes_dropped": 0}
    )
    return correct, correct


@pytest.mark.parametrize(
    "prefix, module, name, fake",
    [
        ("GROUPING", grouping, "run_grouping_sweep", _global_root_barely_slower),
        (
            "ABLATION A2",
            ablation,
            "run_echo_blocking_ablation",
            _echo_blocking_not_needed,
        ),
    ],
)
def test_failed_section_fails_reproduce(
    monkeypatch, capsys, prefix, module, name, fake
):
    _only(monkeypatch, prefix)
    monkeypatch.setattr(module, name, fake)
    assert main(["reproduce"]) == 1
    out = capsys.readouterr().out
    assert "REPRODUCTION DIGEST: 1 expectation(s) FAILED" in out
    assert out.count("[FAIL]") == 1


def test_all_sections_pass_gives_zero(monkeypatch, capsys):
    _only(monkeypatch, "GROUPING")
    assert main(["reproduce"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_failed_ablation_fails_ablations_command(monkeypatch, capsys):
    monkeypatch.setattr(
        ablation, "run_echo_blocking_ablation", _echo_blocking_not_needed
    )
    assert main(["ablations"]) == 1
    assert "[FAIL] without echo blocking" in capsys.readouterr().out


def test_grouping_command_gates_on_the_same_bound(monkeypatch, capsys):
    monkeypatch.setattr(grouping, "run_grouping_sweep", _global_root_barely_slower)
    assert main(["grouping"]) == 1
    assert "[FAIL] one global root is more than 1.5x slower" in capsys.readouterr().out
