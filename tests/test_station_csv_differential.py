"""parse_ws_csv against a row-by-row reference parse, one single-fault file at a time.

The reference is the row loop the column parse replaced: one `csv.DictReader`
dict and one `DailyObservation` per row, checked as it is read. For every
file both must raise the same exception type, message and `row`, or return
the same dates and the same `serialize_ws_csv` bytes (the reference's through
a per-record writer).
"""

import csv
import datetime as dt
import io

import pytest

from etoforge.errors import DuplicateDate, MissingColumn, RangeError, UnitError
from etoforge.weather import DailyObservation, WsSchema, parse_ws_csv, serialize_ws_csv, units
from etoforge.weather.records import OBSERVATION_FIELDS, OPTIONAL_FIELDS

REQUIRED_FIELDS = tuple(f for f in OBSERVATION_FIELDS if f not in OPTIONAL_FIELDS)
CSV_FIELDS = ("date",) + OBSERVATION_FIELDS


def reference_parse(text, schema):
    """The observations of `text`, parsed and checked one row at a time."""
    reader = csv.DictReader(io.StringIO(text))
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
    observations, seen = [], {}
    for rownum, row in enumerate(_rows(reader), start=1):
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
    return sorted(observations, key=lambda o: o.date)


def _rows(reader):
    """The reader's rows; RangeError naming the line it cannot read."""
    try:
        yield from reader
    except csv.Error as exc:
        raise RangeError(f"line {reader.reader.line_num}: {exc}") from exc


def reference_serialize(observations) -> str:
    """Canonical CSV text written one record at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for obs in observations:
        writer.writerow([obs.date.isoformat()] + ["" if getattr(obs, name) is None
                                                  else repr(getattr(obs, name))
                                                  for name in OBSERVATION_FIELDS])
    return out.getvalue()


def outcome(text, schema, reference):
    """(exception type, message, row) of the parse, or (dates, serialized text)."""
    try:
        if reference:
            rows = reference_parse(text, schema)
            return [r.date for r in rows], reference_serialize(rows)
        table = parse_ws_csv(io.StringIO(text), schema)
        return list(table.dates), serialize_ws_csv(table)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc), getattr(exc, "row", None)


# Canonical units in file order, and the same fields renamed, reordered and in
# other units (each unit converts by plain float arithmetic).
CANONICAL = (WsSchema.canonical(), CSV_FIELDS,
             lambda k: [f"2022-06-{k + 1:02d}", f"{25 + 0.3 * k}", f"{14.25 + 0.1 * k}",
                        f"{19.5 + 0.2 * k}", "91.0", f"{38.5 + k}", f"{64.0 - k}",
                        f"{2.1 + 0.05 * k}", f"{231.7 + k}", f"{1.3 * (k % 3)}",
                        f"{540.2 + 2 * k}", f"{101.3 + 0.01 * k}"])
CONVERTED = (WsSchema(units={"tx": "degF", "tn": "degF", "ta": "degF", "hx": "fraction",
                             "hn": "fraction", "ha": "fraction", "w": "km/h", "s": "kW/m2",
                             "p": "in", "sx": "kW/m2", "pa": "hPa"},
                      columns={"date": "day", "temp_max": "tx", "temp_min": "tn",
                               "temp_avg": "ta", "rh_max": "hx", "rh_min": "hn",
                               "rh_avg": "ha", "wind_avg": "w", "sr_avg": "s",
                               "precip": "p", "sr_max": "sx", "pressure_avg": "pa"}),
             ("pa", "tx", "ta", "tn", "day", "hn", "ha", "hx", "p", "w", "sx", "s"),
             lambda k: [f"{1013.0 + 0.7 * k}", f"{77.3 + 0.3 * k}", f"{68.1 + 0.2 * k}",
                        f"{59.0 + 0.1 * k}", f"2022-06-{k + 1:02d}", f"{0.385 + 0.01 * k}",
                        f"{0.64 - 0.01 * k}", "0.91", f"{0.05 * (k % 3)}", f"{7.2 + 0.3 * k}",
                        f"{0.5402 + 0.002 * k}", f"{0.2317 + 0.001 * k}"])
LAYOUTS = {"canonical": CANONICAL, "converted": CONVERTED}
CELLS = ("-1", "101", "nan", "inf", "-inf", "text", "", "1e309", "-500", "0", "2022-13-01")


def csv_text(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in [list(header)] + rows)


def base_rows(layout):
    return [layout[2](k) for k in range(8)]


def single_cell_cases():
    for name, layout in LAYOUTS.items():
        for column, header in enumerate(layout[1]):
            for row in (0, 4):
                for cell in CELLS:
                    rows = base_rows(layout)
                    rows[row][column] = cell
                    yield (f"{name}-{header}-row{row + 1}-{cell or 'empty'}", layout[0],
                           csv_text(layout[1], rows))


def file_cases():
    for name, layout in LAYOUTS.items():
        schema, header = layout[0], layout[1]
        date_at = header.index(schema.header_for("date"))
        rows = base_rows(layout)
        yield f"{name}-clean", schema, csv_text(header, rows)
        dup = base_rows(layout)
        dup[5][date_at] = dup[1][date_at]
        yield f"{name}-duplicate-date", schema, csv_text(header, dup)
        dup[3][date_at] = dup[2][date_at]
        yield f"{name}-duplicate-date-adjacent", schema, csv_text(header, dup)
        swapped = base_rows(layout)
        swapped[2], swapped[3] = swapped[3], swapped[2]
        yield f"{name}-swapped-rows", schema, csv_text(header, swapped)
        for cut in (1, 3, 6, 11):
            short = base_rows(layout)
            short[3] = short[3][:cut]
            yield f"{name}-short-row-{cut}", schema, csv_text(header, short)
        yield f"{name}-header-only", schema, csv_text(header, [])
        yield f"{name}-empty-file", schema, ""
        long = base_rows(layout)
        long[2] = long[2] + ["7", "x"]
        yield f"{name}-long-row", schema, csv_text(header, long)
        padded = base_rows(layout)
        padded[1] = [f" {cell}\t" for cell in padded[1]]
        padded[6] = ["\x1c" + cell for cell in padded[6]]
        yield f"{name}-padded-cells", schema, csv_text(header, padded)
        text = csv_text(header, base_rows(layout)).split("\n")
        text[3:3] = ["", ""]
        yield f"{name}-blank-lines", schema, "\n".join(text)
        for bad, torn in ((0, 4), (4, 0)):
            rows = base_rows(layout)
            rows[bad][header.index(schema.header_for("rh_avg"))] = "120"
            rows[torn][0] = "1\r2"   # a bare carriage return: RangeError naming its line
            yield f"{name}-range-row{bad + 1}-torn-row{torn + 1}", schema, csv_text(header, rows)
    schema, header = WsSchema.canonical(), CSV_FIELDS[1:] + ("date",)
    rows = [row[1:] + row[:1] for row in base_rows(CANONICAL)]
    rows[2] = rows[2][:5]
    yield "date-last-short-row", schema, csv_text(header, rows)
    yield ("optional-empty-and-nan", schema,
           csv_text(CSV_FIELDS, [row[:10] + ["", "nan"] for row in base_rows(CANONICAL)]))


CASES = list(single_cell_cases()) + list(file_cases())


def test_differential_covers_every_column_and_cell():
    assert len(CASES) == 2 * 12 * 2 * len(CELLS) + 2 * 15 + 2


@pytest.mark.parametrize("schema, text", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_parse_equals_the_row_by_row_reference(schema, text):
    assert outcome(text, schema, reference=False) == outcome(text, schema, reference=True)


def test_optional_nan_raises_where_an_empty_cell_is_absent():
    rows = base_rows(CANONICAL)
    rows[2][10] = ""
    table = parse_ws_csv(io.StringIO(csv_text(CSV_FIELDS, rows)), WsSchema.canonical())
    assert table[2].sr_max is None and not table.present["sr_max"][2]
    rows[2][10] = "nan"
    with pytest.raises(RangeError, match=r"row 3: sr_max=nan is not a finite number"):
        parse_ws_csv(io.StringIO(csv_text(CSV_FIELDS, rows)), WsSchema.canonical())
