"""Output formats: CSV data files, JSON reports and the run manifest.

Every CLI output directory carries exactly one manifest.  It separates the
deterministic payload (command, parameters, grid, tolerances, results) from
provenance (wall time); re-running the same invocation reproduces the
payload and all data files byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = "gllflow.run_manifest/1"
MANIFEST_NAME = "run_manifest.json"


def write_csv(path, header, *columns):
    """Columns (1-D or (N, k)) side by side under a header row, each value as
    %.17g; the row format, repeated once per row, formats the table in one pass."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    Path(path).write_text(header + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def report_json(doc) -> str:
    """A report (or manifest) document as sorted, indented JSON text; a NaN
    or infinite value, which JSON has no token for, is a DomainError."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"report not written, JSON has no NaN or inf: {exc}") from None


@dataclass(frozen=True)
class CheckResult:
    """One row of a check suite or report: a named property and its verdict."""

    name: str
    passed: bool
    detail: str


@dataclass
class RunManifest:
    command: str
    parameters: dict
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def write(self, out_dir, wall_time_s) -> Path:
        """Write the payload, a sha256 of its inputs and the provenance."""
        inputs = {"command": self.command, "parameters": self.parameters,
                  "grid": self.grid, "tolerances": self.tolerances}
        canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"), default=str)
        doc = dict(inputs, schema_version=SCHEMA_VERSION, results=self.results,
                   input_hash=hashlib.sha256(canonical.encode()).hexdigest(),
                   provenance={"wall_time_s": wall_time_s})
        path = Path(out_dir) / MANIFEST_NAME
        path.write_text(report_json(doc) + "\n")
        return path
