"""Structured run reports emitted by the command line.

The JSON layout is versioned, and the tests validate it against the
schema shipped in this package; scripts may rely on it. Serialization
sorts keys and every variable list, so identical runs produce
byte-identical reports.
`RunReport.to_json` writes `json.dumps(..., sort_keys=True, indent=2)`'s
bytes itself: for any `indent` CPython's `json` runs its pure-Python
encoder, which builds a set of closures per call.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional

from .formula import Assignment, Formula, emit_dimacs

SCHEMA_VERSION = 1


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
        """`json.dumps(self.to_dict(), sort_keys=True, indent=2)` and a
        newline, byte for byte."""
        chunks: list[str] = []
        _write(self.to_dict(), "\n", chunks.append)
        chunks.append("\n")
        return "".join(chunks)


_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# The text of each scalar type, as `json` writes it with ASCII output.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
    float: _float,
}


def _write(value: Any, pad: str, out: Callable[[str], Any]) -> None:
    """Append the JSON text of `value` to `out`: a dict with string keys, a
    list or a tuple, of scalars and such containers; any other type raises
    TypeError, as `json` does. `pad` is the newline and indent of the line
    the value starts on."""
    inner = pad + "  "
    comma = "," + inner
    if type(value) is dict:
        if not value:
            out("{}")
            return
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out(separator + encode_basestring_ascii(key) + ": ")
                _write(item, inner, out)
            else:
                out(separator + encode_basestring_ascii(key) + ": " + scalar(item))
            separator = comma
        out(pad + "}")
    elif type(value) is list or type(value) is tuple:
        if not value:
            out("[]")
            return
        separator = "[" + inner
        for item in value:
            scalar = _SCALARS.get(type(item))
            if scalar is None:
                out(separator)
                _write(item, inner, out)
            else:
                out(separator + scalar(item))
            separator = comma
        out(pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def base_stats(formula: Formula) -> dict[str, Any]:
    length, width = formula.length_and_width
    return {
        "variables": len(formula.universe),
        "clauses": formula.num_clauses,
        "length": length,
        "width": width,
    }
