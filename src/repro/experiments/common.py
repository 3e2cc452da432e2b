"""Shared experiment plumbing: sweep sizes and paper expectations.

The paper's sweeps run 1024 tasks on up to 129 processors; that is
minutes of wall-clock in a pure-Python simulator, too slow for a unit
test loop.  Figures 2 and 8 therefore have two sizes, and this module
holds the only table of them:

* quick — reduced sizes, the default everywhere (tests, goldens,
  examples, ``make profile``);
* full  — the paper's sizes, picked by the ``--full`` flag of ``repro
  reproduce``, ``repro figure2`` and ``repro figure8`` (the numbers
  recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass


def figure2_scale(full: bool = False) -> tuple[tuple[int, ...], int]:
    """Figure 2's (network sizes, total tasks); sizes are 2^k + 1."""
    if full:
        return (3, 5, 9, 17, 33, 65, 129), 1024
    return (3, 5, 9, 17), 128


def figure8_scale(full: bool = False) -> tuple[tuple[int, ...], int]:
    """Figure 8's (network sizes, data size); sizes are powers of two."""
    if full:
        return (2, 4, 8, 16, 32, 64, 128), 1024
    return (2, 4, 8, 16), 128


@dataclass(frozen=True, slots=True)
class PaperExpectation:
    """A qualitative claim from the paper that a sweep must reproduce."""

    claim: str
    holds: bool

    def __str__(self) -> str:
        marker = "OK " if self.holds else "FAIL"
        return f"[{marker}] {self.claim}"
