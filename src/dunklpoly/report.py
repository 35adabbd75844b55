"""Uniform machine-readable result records for every verification.

Each check run anywhere in the package reduces to one flat
``VerificationRecord``: which suite produced it, which family/operator it
targeted, the full parameter tuple (exact rationals as ``p/q`` strings, for
reproducibility), the degree range covered, the outcome, a residual summary,
the tolerance used, and the wall time.  ``emit`` serializes a record list to
JSON (an array of flat objects) or CSV (header plus one row per record) with
the stable field names ``suite, target, params, degrees, outcome, residual,
tolerance, millis``; ``parse`` inverts it field-for-field.  The JSON writer
lays the array out itself, and its bytes are those of
``json.dumps([...], indent=2)``: strings escaped to ASCII, ``millis`` by
``repr`` (``NaN`` and ``Infinity`` as json writes them), two-space indent.

Outcome vocabulary and the invariants enforced at construction:

* ``exact_pass``  -- a rational-arithmetic identity held literally; the
  residual is the string ``"0"`` and the tolerance is ``"exact"``.
* ``float_pass``  -- a floating-point residual was at or below the stated
  tolerance (both serialized losslessly via ``repr``).
* ``fail``        -- anything else; residual and tolerance record what was
  measured against what.  An exact fail (tolerance ``"exact"``) never
  carries the residual ``"0"``.

Rationals are serialized as canonical ``p/q`` strings, never floats, so the
audit trail of exact suites is lossless.  Collection is append-only behind a
single writer (the caller); ``emit``/``parse`` themselves are pure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, List, Tuple, Union

OUTCOMES = ("exact_pass", "float_pass", "fail")

FIELD_NAMES = ("suite", "target", "params", "degrees", "outcome",
               "residual", "tolerance", "millis")


def rational_str(value: Union[Fraction, int]) -> str:
    """Canonical lossless ``p/q`` form (plain ``p`` for integers)."""
    return str(Fraction(value))


def format_params(pairs: Iterable[Tuple[str, object]]) -> str:
    """``name=value`` pairs joined by commas (a rational as p/q); the canonical params field."""
    return ",".join(f"{name}={value}" for name, value in pairs)


@dataclass(frozen=True)
class VerificationRecord:
    """One verification outcome, flat and serializable."""

    suite: str
    target: str
    params: str
    degrees: str
    outcome: str
    residual: str
    tolerance: str
    millis: float

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.millis < 0:
            raise ValueError("wall time must be nonnegative")
        if self.outcome == "exact_pass":
            if self.residual != "0":
                raise ValueError("exact_pass requires a literal zero residual")
            if self.tolerance != "exact":
                raise ValueError('exact_pass requires tolerance "exact"')
        if self.outcome == "float_pass":
            if float(self.residual) > float(self.tolerance):
                raise ValueError("float_pass requires residual <= tolerance")
        if self.outcome == "fail" and self.tolerance == "exact" and self.residual == "0":
            raise ValueError("an exact fail requires a nonzero residual")


def exact_record(suite: str, target: str, params: str, degrees: str,
                 millis: float = 0.0, residual: str = "0") -> VerificationRecord:
    """Record of an exact rational check: ``exact_pass`` exactly when its
    ``residual`` is ``"0"``, else ``fail`` carrying the residual."""
    outcome = "exact_pass" if residual == "0" else "fail"
    return VerificationRecord(suite, target, params, degrees, outcome, residual,
                              "exact", millis)


def float_record(suite: str, target: str, params: str, degrees: str,
                 residual: float, tolerance: float,
                 millis: float = 0.0) -> VerificationRecord:
    """Record of a float check; outcome follows residual vs tolerance."""
    outcome = "float_pass" if residual <= tolerance else "fail"
    return VerificationRecord(suite, target, params, degrees, outcome,
                              repr(float(residual)), repr(float(tolerance)),
                              millis)


@contextmanager
def stopwatch() -> Iterator[List[float]]:
    """Context manager yielding a one-slot list that receives the millis."""
    box = [0.0]
    start = time.perf_counter()
    try:
        yield box
    finally:
        box[0] = (time.perf_counter() - start) * 1e3


def _as_row(record: VerificationRecord) -> dict:
    return {name: getattr(record, name) for name in FIELD_NAMES}


_encode_str = json.encoder.encode_basestring_ascii

# one record as json.dumps(..., indent=2) lays it out inside the array
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {_encode_str(name)}: %s" for name in FIELD_NAMES) + "\n  }"


def _json_value(value: object) -> str:
    """``value`` as json writes it: a str escaped to ASCII, a finite float
    by ``repr``, anything else (``NaN``, ``Infinity``, an int) by json."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _json_array(records: List[VerificationRecord]) -> str:
    """The bytes of ``json.dumps([row, ...], indent=2)``, written directly:
    json's encoder takes its pure-Python path whenever ``indent`` is set."""
    if not records:
        return "[]"
    rows = ",\n".join(
        _JSON_ROW % tuple(_json_value(getattr(r, name)) for name in FIELD_NAMES)
        for r in records)
    return f"[\n{rows}\n]"


def emit(records: Iterable[VerificationRecord], format: str = "json") -> bytes:
    """Serialize records to a JSON or CSV byte stream with stable fields."""
    records = list(records)
    if format == "json":
        return _json_array(records).encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=FIELD_NAMES, lineterminator="\n")
        writer.writeheader()
        for record in records:
            writer.writerow(_as_row(record))
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")


def parse(blob: Union[bytes, str], format: str = "json") -> List[VerificationRecord]:
    """Inverse of ``emit``; reproduces the record list field-for-field."""
    text = blob.decode() if isinstance(blob, bytes) else blob
    if format == "json":
        rows = json.loads(text)
    elif format == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    else:
        raise ValueError(f"unknown format {format!r}")
    out = []
    for row in rows:
        kwargs = {name: row[name] for name in FIELD_NAMES}
        kwargs["millis"] = float(kwargs["millis"])
        out.append(VerificationRecord(**kwargs))
    return out


assert tuple(f.name for f in fields(VerificationRecord)) == FIELD_NAMES
