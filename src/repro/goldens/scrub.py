"""Canonical artifact hashing.

Golden artifacts must hash identically on every host, every run, so the
hash must see structure, not spelling: dict insertion order, trailing
newlines and CRLF conversions never change it.  Every golden surface
generates its artifacts from simulated-time-deterministic code, so no
artifact carries host- or wall-clock-dependent fields.

JSON artifacts are therefore parsed and hashed through the same
type-tagged canonical encoder that run state hashes use
(:mod:`repro.sim.statehash`).  CSV and plain-text artifacts are hashed
over newline-normalized UTF-8.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

from repro.errors import ExperimentError
from repro.sim.statehash import hash_payload


def normalize_text(text: str) -> str:
    """Newline-normalize text so checkouts never change a hash."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def raw_file_hash(path: str | pathlib.Path) -> str:
    """SHA-256 hex digest of the file's exact bytes (truncation guard)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def canonical_payload(path: str | pathlib.Path) -> Any:
    """The drift-comparable content of an artifact file.

    JSON files parse to their payload; everything else (CSV, plain
    text) to its newline-normalized text.
    """
    target = pathlib.Path(path)
    if target.suffix == ".json":
        try:
            return json.loads(target.read_text())
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"{target}: not valid JSON (truncated artifact?): {exc}"
            ) from None
    return normalize_text(target.read_text())


def canonical_file_hash(path: str | pathlib.Path) -> str:
    """Canonical SHA-256 of an artifact.

    This is the hash recorded in manifests and compared by the drift
    gate: equal iff the artifacts' content is structurally identical,
    regardless of key order or newline convention.
    """
    content = canonical_payload(path)
    if isinstance(content, str):
        return hashlib.sha256(content.encode("utf-8")).hexdigest()
    return hash_payload(content)
