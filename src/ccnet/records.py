"""Result persistence: canonical CSV rows and JSON-lines records.

Every command emits ``ResultRecord`` objects: a config echo (enough to
reproduce the run bit for bit), a list of scalar observable rows in the
canonical column order, and metadata (wall clock, artifact version) that is
excluded from the deterministic data section.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

from . import __version__

__all__ = ["CSV_HEADER", "ResultRecord", "canonical_row", "emit", "read_records"]

CSV_HEADER = [
    "command",
    "r",
    "t",
    "M",
    "L",
    "z_mod",
    "z_arg_over_pi",
    "seed",
    "n_steps",
    "k",
    "lambda_k",
    "stderr_k",
    "xi_M",
    "status",
]

_FLOAT_COLS = {"r", "t", "z_mod", "z_arg_over_pi", "lambda_k", "stderr_k", "xi_M"}
_INT_COLS = {"M", "L", "seed", "n_steps", "k"}


def canonical_row(**kwargs) -> dict:
    """A row with every canonical column present (missing entries are None)."""
    unknown = set(kwargs) - set(CSV_HEADER)
    if unknown:
        raise ValueError(f"unknown result columns: {sorted(unknown)}")
    row = {key: None for key in CSV_HEADER}
    row.update(kwargs)
    return row


@dataclass
class ResultRecord:
    """One command invocation worth of reproducible output."""

    command: str
    config: dict
    rows: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    version: str = __version__


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # repr round-trips; cast strips numpy scalar types
    return str(value)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV, ``\\r\\n`` line ends, cells by ``_format_cell``.

    The package's one CSV writer: records, side tables and dumps share its dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_format_cell(value) for value in row] for row in rows)


def _parse_cell(column: str, text: str):
    if text == "":
        return None
    if column in _FLOAT_COLS:
        return float(text)
    if column in _INT_COLS:
        return int(text)
    return text


def emit(records, format: str, path) -> None:
    """Write records as canonical CSV (rows only) or JSON lines (full records).

    CSV keeps the fixed documented header order and is byte-deterministic
    for identical data; JSON carries the config echo plus a ``meta`` object
    with the wall clock and artifact version.
    """
    records = list(records)
    if format == "csv":
        rows = ([row.get(col) for col in CSV_HEADER] for record in records for row in record.rows)
        _write_csv(path, CSV_HEADER, rows)
    elif format == "json":
        with open(path, "w") as fh:
            for record in records:
                payload = {
                    "command": record.command,
                    "config": record.config,
                    "rows": record.rows,
                    "meta": {
                        "wall_clock_s": record.wall_clock_s,
                        "version": record.version,
                    },
                }
                fh.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {format!r} (expected 'csv' or 'json')")


def read_records(path, format: str):
    """Round-trip reader for ``emit``.

    CSV returns the typed canonical rows; JSON returns full ResultRecords.
    """
    if format == "csv":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {reader.fieldnames}")
            for raw in reader:
                rows.append({col: _parse_cell(col, raw[col]) for col in CSV_HEADER})
        return rows
    if format == "json":
        records = []
        with open(path) as fh:
            for line in fh:
                if not line.strip():
                    continue
                payload = json.loads(line)
                meta = payload.get("meta", {})
                records.append(
                    ResultRecord(
                        command=payload["command"],
                        config=payload["config"],
                        rows=payload["rows"],
                        wall_clock_s=meta.get("wall_clock_s", 0.0),
                        version=meta.get("version", ""),
                    )
                )
        return records
    raise ValueError(f"unknown format {format!r} (expected 'csv' or 'json')")
