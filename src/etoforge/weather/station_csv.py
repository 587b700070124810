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
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DuplicateColumn, DuplicateDate, MissingColumn, RangeError, UnitError
from . import units
from .records import (OBSERVATION_FIELDS, OPTIONAL_FIELDS, ORDERED_FIELDS, ObservationTable,
                      by_date, decode_utf8, read_text, rejected)

CSV_FIELDS = ("date",) + OBSERVATION_FIELDS
REQUIRED_FIELDS = tuple(name for name in OBSERVATION_FIELDS if name not in OPTIONAL_FIELDS)


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
            f: units.CANONICAL[units.FIELD_QUANTITY[f]] for f in OBSERVATION_FIELDS
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
        key = key.strip()
        if key in declared:
            raise UnitError(f"{path}:{lineno}: column {key!r} is declared twice")
        declared[key] = value.strip()
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

    Returns their table in ascending date order. Before any row is read, for each
    mapped column in CSV_FIELDS order: MissingColumn if its header is absent,
    DuplicateColumn if it repeats; then UnitError for an undeclared, unknown or
    wrong-quantity unit. The rows are read as columns and checked whole; the first
    failing row in file order raises the error :func:`_raise_row_error` finds in it.
    """
    reader = csv.reader(_open_text(stream))
    headers = next(reader, [])
    resolved = {}   # canonical field -> its header
    for canonical in CSV_FIELDS:
        header = schema.header_for(canonical)
        if headers.count(header) > 1:
            raise DuplicateColumn(f"column {header!r} (for {canonical}) appears "
                                  f"{headers.count(header)} times in the file header")
        if header in headers:
            resolved[canonical] = header
        elif canonical == "date":
            raise MissingColumn(f"date column {header!r} not in file header")
        elif canonical not in OPTIONAL_FIELDS or canonical in schema.columns:
            raise MissingColumn(f"column {header!r} (for {canonical}) not in file header")
    convert = {}
    for canonical, header in list(resolved.items())[1:]:
        if header not in schema.units:
            raise UnitError(f"no unit declared for column {header!r}")
        convert[canonical] = units.converter(units.FIELD_QUANTITY[canonical],
                                             schema.units[header])

    rows, failure = [], None
    try:
        rows.extend(filter(None, reader))   # keeps the rows read before a failing line
    except csv.Error as exc:                # raised after the errors of those rows
        failure = exc
    # one tuple of cells per column, after a pad cell; None where a row is short
    columns = list(itertools.zip_longest([""] * len(headers), *rows))
    cells = {name: columns[headers.index(header)][1:] for name, header in resolved.items()}
    dates = cells.pop("date")
    # 0, which no date has, marks a cell that holds no date
    day = np.array([_or(_iso_ordinal, cell, 0) for cell in dates], dtype=np.int64)
    values, present = {}, {}
    with np.errstate(over="ignore"):   # a value a converter takes to inf fails the check
        for name in OBSERVATION_FIELDS:
            x, present[name] = _floats(cells.get(name, ("",) * len(rows)))
            values[name] = convert[name](x) if name in convert else x
    table = ObservationTable(day, values, present)
    order = np.argsort(day, kind="stable")
    first = order[np.searchsorted(day[order], day)]   # each row's first row of its date
    bad = (day == 0) | (first != np.arange(len(rows))) | rejected(
        values, present, REQUIRED_FIELDS, ORDERED_FIELDS.values())
    if bad.any():
        i = int(np.argmax(bad))
        _raise_row_error(table, i, dates[i], {name: c[i] for name, c in cells.items()},
                         int(first[i]) + 1)
    if failure is not None:
        raise failure
    return by_date(table)


def _iso_ordinal(cell) -> int:
    return dt.date.fromisoformat((cell or "").strip()).toordinal()


def _or(parse, cell, default):
    """`parse(cell)`, or `default` where that raises ValueError."""
    try:
        return parse(cell)
    except ValueError:
        return default


def _floats(cells):
    """(the cells as floats, NaN where one is absent, empty or no number; the mask of
    the cells that are not empty)."""
    try:
        return np.array(list(map(float, cells))), np.ones(len(cells), dtype=bool)
    except (TypeError, ValueError):
        cells = [(cell or "").strip() for cell in cells]
        return (np.array([_or(float, cell, math.nan) for cell in cells]),
                np.array([cell != "" for cell in cells], dtype=bool))


def _raise_row_error(table, i, date, cells, first):
    """Raise the error row i (0-based) raises when checked alone, as rows were checked
    one at a time: its date cell, then its field cells in CSV_FIELDS order, then its
    DailyObservation. `first` is the number of the first row with its date."""
    rownum = i + 1
    try:
        day = dt.date.fromisoformat((date or "").strip())
    except ValueError as exc:
        raise RangeError(f"bad date {date!r}: {exc}", row=rownum)
    if first < rownum:
        raise DuplicateDate(f"date {day} appears in rows {first} and {rownum}")
    for name, cell in cells.items():
        cell = (cell or "").strip()
        if not cell and name not in OPTIONAL_FIELDS:
            raise RangeError(f"empty value for {name}", row=rownum)
        if cell and _or(float, cell, None) is None:
            raise RangeError(f"{name}={cell!r} is not a number", row=rownum)
    try:
        table[i]
    except RangeError as exc:
        raise RangeError(str(exc), row=rownum) from exc
    raise RangeError("the column check rejects a row the row check accepts", row=rownum)


def serialize_ws_csv(observations) -> str:
    """Write observations as canonical-unit CSV text.

    Floats use repr so that parse_ws_csv(serialize(...)) round-trips
    bit-exactly; optional missing values serialize as empty cells. No cell
    needs CSV quoting, so the cells are joined as they are.
    """
    table = by_date(observations)
    columns = ([repr(x) if held else "" for x, held in
                zip(table.values[name].tolist(), table.present[name].tolist())]
               for name in OBSERVATION_FIELDS)
    rows = zip([day.isoformat() for day in table.dates], *columns)
    return "\n".join(map(",".join, [CSV_FIELDS, *rows])) + "\n"
