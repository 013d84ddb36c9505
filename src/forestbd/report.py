"""Structured run reports emitted by the command line.

The JSON layout is versioned and validated against the schema shipped in
this package; scripts may rely on it. Serialization sorts keys and every
variable list, so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Optional

from .formula import Assignment, Formula, emit_dimacs

SCHEMA_VERSION = 1
_SCHEMA_FILE = "run_report_schema.json"


def formula_digest(formula: Formula) -> str:
    """Hex digest of the canonical DIMACS serialization."""
    return canonical_digest(emit_dimacs(formula).encode("ascii"))


def canonical_digest(data: bytes) -> str:
    """Hex digest of DIMACS bytes already in canonical form, `emit_dimacs`
    of their formula: its `formula_digest`, without serialising it again."""
    return hashlib.sha256(data).hexdigest()


class RunReport:
    """One command's outcome, filled in by the command line and written by
    `to_json`. Reports are mutable, compare by every field and are not
    hashable; each one built without `stats` gets a dict of its own."""

    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        command: str,
        digest: str,
        parameters: dict[str, Any],
        path: Optional[str] = None,
        verdict: Optional[str] = None,
        backdoor: Optional[list[int]] = None,
        witness: Optional[Assignment] = None,
        count: Optional[int] = None,
        stats: Optional[dict[str, Any]] = None,
        wall_ms: float = 0.0,
    ) -> None:
        self.command = command
        self.digest = digest
        self.parameters = parameters
        self.path = path
        self.verdict = verdict
        self.backdoor = backdoor
        self.witness = witness
        self.count = count
        self.stats = {} if stats is None else stats
        self.wall_ms = wall_ms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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
    widths = [len(c.literals) for c in formula.clauses]
    return {
        "variables": len(formula.universe),
        "clauses": formula.num_clauses,
        "length": sum(widths),
        "width": max(widths, default=0),
    }


def report_schema() -> dict[str, Any]:
    # Only the schema check reads the schema, so the loader is imported on
    # use: `importlib.resources` pulls in `pathlib`, `zipfile` and `tempfile`.
    from importlib import resources

    text = resources.files(__package__).joinpath(_SCHEMA_FILE).read_text("utf-8")
    return json.loads(text)


def validate_report(payload: dict[str, Any]) -> None:
    """Raises jsonschema.ValidationError when the payload deviates."""
    # jsonschema is a test dependency only, so it is imported on use.
    import jsonschema

    jsonschema.validate(payload, report_schema())
