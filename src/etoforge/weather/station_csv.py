"""Weather-station CSV loading and canonical serialization.

The file format is a plain header-row CSV with one row per day and
ISO-8601 dates. Units are declared out-of-band in a sidecar schema file
of `column=unit` lines; the mapping from canonical field names to file
column headers defaults to identity and can be overridden for
third-party exports.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass, field

from ..errors import DuplicateDate, MissingColumn, RangeError, UnitError
from . import units
from .records import DailyObservation, ObservationTable, by_date, decode_utf8, read_text

REQUIRED_FIELDS = (
    "temp_max", "temp_min", "temp_avg",
    "rh_max", "rh_min", "rh_avg",
    "wind_avg", "sr_avg", "precip",
)
OPTIONAL_FIELDS = ("sr_max", "pressure_avg")
CSV_FIELDS = ("date",) + REQUIRED_FIELDS + OPTIONAL_FIELDS


@dataclass
class WsSchema:
    """Column mapping and per-column unit declarations for one WS export.

    `columns` maps canonical field names to the file's column headers
    (canonical names that do not appear map to themselves); `units` maps
    column headers to declared unit strings.
    """

    units: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)

    def header_for(self, canonical: str) -> str:
        return self.columns.get(canonical, canonical)

    @classmethod
    def canonical(cls) -> "WsSchema":
        """The schema of files this module writes itself."""
        return cls(units={
            f: units.CANONICAL[units.FIELD_QUANTITY[f]]
            for f in REQUIRED_FIELDS + OPTIONAL_FIELDS
        })


def load_ws_schema(path, columns=None) -> WsSchema:
    """Read a `column=unit` sidecar file; `#` starts a comment line."""
    declared = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UnitError(f"{path}:{lineno}: expected column=unit, got {line!r}")
        key, _, value = line.partition("=")
        declared[key.strip()] = value.strip()
    return WsSchema(units=declared, columns=dict(columns or {}))


def ws_schema_text() -> str:
    """The canonical schema as sidecar text."""
    schema = WsSchema.canonical()
    lines = [f"{column}={unit}" for column, unit in sorted(schema.units.items())]
    return "\n".join(lines) + "\n"


def _open_text(stream):
    if hasattr(stream, "read"):
        data = stream.read()
        if isinstance(data, bytes):
            data = decode_utf8(data, getattr(stream, "name", "input stream"))
        return io.StringIO(data)
    return io.StringIO(read_text(stream))


def parse_ws_csv(stream, schema: WsSchema) -> ObservationTable:
    """Load daily observations from a CSV stream, converting to canonical units.

    Returns their table in ascending date order. Before any row is read: MissingColumn
    for an absent mapped header, then UnitError for an undeclared, unknown or
    wrong-quantity unit. Then RangeError (with the 1-based data row number) for
    invariant violations, DuplicateDate for repeated dates.
    """
    reader = csv.DictReader(_open_text(stream))
    headers = reader.fieldnames or []

    date_header = schema.header_for("date")
    if date_header not in headers:
        raise MissingColumn(f"date column {date_header!r} not in file header")
    resolved = {}
    for canonical in REQUIRED_FIELDS:
        header = schema.header_for(canonical)
        if header not in headers:
            raise MissingColumn(f"column {header!r} (for {canonical}) not in file header")
        resolved[canonical] = header
    for canonical in OPTIONAL_FIELDS:
        header = schema.header_for(canonical)
        if header in headers:
            resolved[canonical] = header
        elif canonical in schema.columns:
            raise MissingColumn(f"column {header!r} (for {canonical}) not in file header")

    convert = {}
    for canonical, header in resolved.items():
        if header not in schema.units:
            raise UnitError(f"no unit declared for column {header!r}")
        convert[canonical] = units.converter(units.FIELD_QUANTITY[canonical],
                                             schema.units[header])

    observations = []
    seen = {}
    for rownum, row in enumerate(reader, start=1):
        try:
            day = dt.date.fromisoformat((row.get(date_header) or "").strip())
        except ValueError as exc:
            raise RangeError(f"bad date {row.get(date_header)!r}: {exc}", row=rownum)
        if day in seen:
            raise DuplicateDate(f"date {day} appears in rows {seen[day]} and {rownum}")
        seen[day] = rownum

        values = {}
        for canonical, header in resolved.items():
            cell = (row.get(header) or "").strip()
            if not cell:
                if canonical in OPTIONAL_FIELDS:
                    values[canonical] = None
                    continue
                raise RangeError(f"empty value for {canonical}", row=rownum)
            try:
                raw = float(cell)
            except ValueError:
                raise RangeError(f"{canonical}={cell!r} is not a number", row=rownum)
            values[canonical] = convert[canonical](raw)
        try:
            observations.append(DailyObservation(date=day, **values))
        except RangeError as exc:
            raise RangeError(str(exc), row=rownum) from exc

    return by_date(observations)


def serialize_ws_csv(observations) -> str:
    """Write observations as canonical-unit CSV text.

    Floats use repr so that parse_ws_csv(serialize(...)) round-trips
    bit-exactly; optional missing values serialize as empty cells.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for obs in by_date(observations):
        row = [obs.date.isoformat()]
        for name in CSV_FIELDS[1:]:
            value = getattr(obs, name)
            row.append("" if value is None else repr(value))
        writer.writerow(row)
    return out.getvalue()
