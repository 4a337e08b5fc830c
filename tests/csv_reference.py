"""A reference CSV writer: csv.writer over cells formatted one at a time.

The command line formats whole columns at once; the tests compare its
bytes with these.
"""

import csv
import io
import math


def fmt(value) -> str:
    """The CSV cell of one value: a float's repr, '' for NaN and None, '1'
    or '0' for a bool and `str` of anything else."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write a header line and rows whose cells follow the header's order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(value) for value in row])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buf.getvalue())


def write_table(path: str, rows: list[dict]) -> None:
    """Write dict rows under the first row's keys."""
    header = list(rows[0])
    write_csv(path, header, ([row.get(col) for col in header] for row in rows))
