"""Structured run reports emitted by the command line.

The JSON layout is versioned and validated against the schema shipped in
this package; scripts may rely on it. Serialization sorts keys and every
variable list, so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Optional

from .formula import Assignment, Formula, emit_dimacs

SCHEMA_VERSION = 1
_SCHEMA_FILE = "run_report_schema.json"


def formula_digest(formula: Formula) -> str:
    """Hex digest of the canonical DIMACS serialization."""
    return hashlib.sha256(emit_dimacs(formula).encode("ascii")).hexdigest()


@dataclass
class RunReport:
    command: str
    digest: str
    parameters: dict[str, Any]
    path: Optional[str] = None
    verdict: Optional[str] = None
    backdoor: Optional[list[int]] = None
    witness: Optional[Assignment] = None
    count: Optional[int] = None
    stats: dict[str, Any] = field(default_factory=dict)
    wall_ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        witness = None
        if self.witness is not None:
            witness = [[v, bool(self.witness[v])] for v in sorted(self.witness)]
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "input": {"sha256": self.digest, "path": self.path},
            "parameters": self.parameters,
            "verdict": self.verdict,
            "backdoor": sorted(self.backdoor) if self.backdoor is not None else None,
            "witness": witness,
            "count": self.count,
            "stats": self.stats,
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def base_stats(formula: Formula) -> dict[str, Any]:
    return {
        "variables": len(formula.universe),
        "clauses": formula.num_clauses,
        "length": formula.length(),
        "width": formula.max_clause_width(),
    }


def report_schema() -> dict[str, Any]:
    text = resources.files(__package__).joinpath(_SCHEMA_FILE).read_text("utf-8")
    return json.loads(text)


def validate_report(payload: dict[str, Any]) -> None:
    """Raises jsonschema.ValidationError when the payload deviates."""
    # Imported here so the command line starts without jsonschema.
    import jsonschema

    jsonschema.validate(payload, report_schema())
