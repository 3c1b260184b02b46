"""Loading and integrity checking of relational company CSV tables.

Six table kinds are understood: organizations, funding rounds, investments,
IPOs, acquisitions and jobs. Each loads through a logical->physical column
mapping (see data/default_mapping.txt) so schema drift is a config change,
not a code change. Per-row problems are collected as RowError values rather
than aborting the load; strict mode promotes them to a DataError.

SCHEMA declares each table's columns and column types once; the row types,
the row parser in ``load_table`` and the CSV writer in ``write_table`` all
derive from it. Adding a column means one (column, type) pair there and one
line in the mapping file.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import DataError

# The one description of the six tables: each kind's columns in file order,
# with the column type that parses and writes them (see _COLUMN_TYPES).
SCHEMA = {
    "organizations": (
        ("org_id", "key"),
        ("name", "text"),
        ("description", "text"),
        ("founded_on", "date"),
        ("created_at", "date"),
    ),
    "funding_rounds": (
        ("round_id", "key"),
        ("org_id", "key"),
        ("announced_on", "date"),
        ("raised_usd", "amount"),
    ),
    "investments": (("round_id", "key"), ("investor_id", "key")),
    "ipos": (("org_id", "key"), ("went_public_on", "date")),
    "acquisitions": (("acquiree_id", "key"), ("acquirer_id", "key"), ("announced_on", "date")),
    "jobs": (("org_id", "key"), ("person_id", "id"), ("title", "text")),
}

TABLE_KINDS = tuple(SCHEMA)

LOGICAL_COLUMNS = {kind: tuple(column for column, _ in columns) for kind, columns in SCHEMA.items()}

# Typed rows: immutable, constructed positionally or by column name.
OrganizationRow = namedtuple("OrganizationRow", LOGICAL_COLUMNS["organizations"])
FundingRoundRow = namedtuple("FundingRoundRow", LOGICAL_COLUMNS["funding_rounds"])
InvestmentRow = namedtuple("InvestmentRow", LOGICAL_COLUMNS["investments"])
IpoRow = namedtuple("IpoRow", LOGICAL_COLUMNS["ipos"])
AcquisitionRow = namedtuple("AcquisitionRow", LOGICAL_COLUMNS["acquisitions"])
JobRow = namedtuple("JobRow", LOGICAL_COLUMNS["jobs"])

ROW_TYPES = {
    "organizations": OrganizationRow,
    "funding_rounds": FundingRoundRow,
    "investments": InvestmentRow,
    "ipos": IpoRow,
    "acquisitions": AcquisitionRow,
    "jobs": JobRow,
}


@dataclass(frozen=True)
class RowError:
    """One rejected data row: physical line number (header = line 1) + reason."""

    line: int
    reason: str


def parse_kv_text(text: str, source) -> dict:
    """Parse flat ``key = value`` text ('#' comments, blank lines ok); errors name ``source``."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_kv_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: {exc}")
    return parse_kv_text(text, path)


def parse_mapping(flat: dict) -> dict:
    """Turn flat ``table.logical = physical`` pairs into a nested mapping."""
    mapping = {kind: {} for kind in TABLE_KINDS}
    for key, value in flat.items():
        if "." not in key:
            raise DataError(f"mapping key {key!r} is not of the form table.column")
        kind, logical = key.split(".", 1)
        if kind not in LOGICAL_COLUMNS:
            raise DataError(f"mapping references unknown table {kind!r}")
        if logical not in LOGICAL_COLUMNS[kind]:
            raise DataError(f"mapping references unknown column {kind}.{logical}")
        mapping[kind][logical] = value
    return mapping


def load_mapping_file(path) -> dict:
    return parse_mapping(parse_kv_file(path))


def default_mapping() -> dict:
    """The checked-in mapping shipped with the package."""
    path = resources.files("ventureval").joinpath("data/default_mapping.txt")
    return parse_mapping(parse_kv_text(path.read_text(encoding="utf-8"), path))


def identity_mapping() -> dict:
    """Logical names map to themselves; used for canonical re-loads."""
    return {kind: {c: c for c in cols} for kind, cols in LOGICAL_COLUMNS.items()}


# A timestamp: a date, "T" or a space, then the time as Python 3.10's
# datetime.fromisoformat documents it, HH[:MM[:SS[.fff[fff]]]], and an
# optional offset, +HH:MM[:SS[.ffffff]] or Z. Digits are ASCII.
_TIMESTAMP = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[T ]"
    r"([01][0-9]|2[0-3])(:[0-5][0-9](:[0-5][0-9](\.[0-9]{3}([0-9]{3})?)?)?)?"
    r"(Z|[+-]([01][0-9]|2[0-3]):[0-5][0-9](:[0-5][0-9](\.[0-9]{6})?)?)?"
).fullmatch


def parse_iso_date(text: str) -> Optional[date]:
    """A ``YYYY-MM-DD`` date, or the date of a ``_TIMESTAMP``; empty -> None.

    The accepted strings are the same on every Python version: newer ones
    read more forms (``2020-W01-1``, ``20200101``) that are row errors here.
    """
    text = text.strip()
    if not text:
        return None
    try:
        if len(text) == 10 and text[4] == "-" == text[7]:
            return date.fromisoformat(text)
        stamp = _TIMESTAMP(text)
        if stamp:
            return date.fromisoformat(stamp[1])
    except ValueError:
        pass
    raise ValueError(f"not an ISO-8601 date: {text!r}")


def _parse_amount(text: str) -> Optional[float]:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"negative or invalid amount: {text!r}")
    return value


def _parse_key(text: str, column: str) -> str:
    value = text.strip()
    if not value:
        raise ValueError(f"empty {column}")
    return value


# Column type -> (parse(cell, column), format(value) or None to write the
# value as is). Parsers raise ValueError with the reason a RowError records.
# The csv writer writes None as "" and any other value as str(value), which
# for a date is its ISO form.
#   key: stripped, must not be empty      id: stripped, may be empty
#   text: kept as is                      date: ISO date, or empty -> None
#   amount: finite number >= 0, or empty -> None
_COLUMN_TYPES = {
    "key": (_parse_key, None),
    "id": (lambda text, column: text.strip(), None),
    "text": (lambda text, column: text, None),
    "date": (lambda text, column: parse_iso_date(text), None),
    "amount": (
        lambda text, column: _parse_amount(text),
        lambda value: str(int(value)) if value == int(value) else repr(value),
    ),
}


# A lone surrogate. Decoding with surrogateescape turns each byte that is not
# UTF-8 into one (U+DC80-U+DCFF), and valid UTF-8 never decodes to one; a JSON
# "\ud800" escape also yields one, which no UTF-8 output can hold.
SURROGATE_RE = re.compile("[\ud800-\udfff]")


def undecodable(text: str) -> Optional[str]:
    """``"not UTF-8: byte 0x.."`` for the first byte that decoding ``text``
    with surrogateescape could not decode, or None."""
    found = not text.isascii() and SURROGATE_RE.search(text)
    return f"not UTF-8: byte 0x{ord(found.group()) - 0xDC00:02x}" if found else None


def _unique(values: list, seen: set, column: str) -> None:
    if values[-1] in seen:
        raise ValueError(f"duplicate {column} {values[-1]!r}")
    seen.add(values[-1])


def _not_self_acquired(values: list, seen: set, column: str) -> None:
    if values[0] == values[1]:
        raise ValueError(f"acquiree equals acquirer: {values[0]!r}")


# Row rules beyond the column types, by the (table, column) they follow:
# each runs as soon as that column has parsed, on the values parsed so far,
# so of a row's several faults the first in column order is the one reported.
_ROW_RULES = {
    ("organizations", "org_id"): _unique,
    ("funding_rounds", "round_id"): _unique,
    ("acquisitions", "acquirer_id"): _not_self_acquired,
}


def _row_parser(kind: str, positions: list):
    """``parse(record) -> row`` for the data records of one ``load_table``
    call: ``positions`` holds the index of each SCHEMA column of ``kind`` in
    a record, and the record must be long enough to have them all. The
    rules' seen keys last for the one call."""
    steps = [
        (pos, _COLUMN_TYPES[ctype][0], column, _ROW_RULES.get((kind, column)))
        for (column, ctype), pos in zip(SCHEMA[kind], positions)
    ]
    row_type, seen = ROW_TYPES[kind], set()

    def parse(record):
        values = []
        for pos, parse_cell, column, rule in steps:
            values.append(parse_cell(record[pos], column))
            if rule is not None:
                rule(values, seen, column)
        return tuple.__new__(row_type, values)  # what row_type._make does, less its checks

    return parse


def _physical_columns(mapping: dict, kind: str) -> list:
    if kind not in SCHEMA:
        raise ValueError(f"unknown table kind {kind!r}")
    colmap = mapping[kind]
    missing_logical = [c for c in LOGICAL_COLUMNS[kind] if c not in colmap]
    if missing_logical:
        raise DataError(f"{kind}: mapping lacks logical columns {missing_logical}")
    return [colmap[c] for c in LOGICAL_COLUMNS[kind]]


def load_table(path, kind, mapping=None, strict=False):
    """Load one CSV table into typed rows.

    Returns ``(rows, row_errors)``. Fatal problems (missing file, a mapped
    column absent from the header) raise; per-row parse failures land in
    ``row_errors`` unless ``strict`` is set, in which case the first one
    raises DataError. Every data line ends up in exactly one of the two
    lists, in file order.
    """
    physical = _physical_columns(mapping or default_mapping(), kind)
    path = Path(path)
    try:
        # surrogateescape defers decode errors to the record that holds them.
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required")
            positions = []
            for name in physical:
                if name not in header:
                    raise DataError(f"{path}: header lacks mapped column {name!r}")
                positions.append(header.index(name))
            parse = _row_parser(kind, positions)
            width = max(positions) + 1

            rows, errors = [], []
            for record in reader:
                if not record:
                    continue
                try:
                    if not all(map(str.isascii, record)):
                        reason = undecodable("".join(record))
                        if reason:
                            raise ValueError(reason)
                    if len(record) < width:  # a short row's missing cells are empty
                        record += [""] * (width - len(record))
                    rows.append(parse(record))
                except ValueError as exc:
                    line = reader.line_num
                    if strict:
                        raise DataError(f"{path}:{line}: {exc}")
                    errors.append(RowError(line=line, reason=str(exc)))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"{path}:{reader.line_num}: {exc}")
    return rows, errors


def write_table(rows, path, kind, mapping=None) -> None:
    """Serialize typed rows to CSV, the inverse of ``load_table``.

    The header holds the physical names of ``mapping`` (default: the logical
    column names, which ``identity_mapping()`` reads back).
    """
    formats = [_COLUMN_TYPES[ctype][1] for _, ctype in SCHEMA[kind]]
    if any(formats):
        rows = ([v if f is None or v is None else f(v) for f, v in zip(formats, row)] for row in rows)
    write_csv(path, _physical_columns(mapping or identity_mapping(), kind), rows)


@contextlib.contextmanager
def output_file(path, newline=None):
    """Open ``path`` for writing as UTF-8 text, making its directory first.

    Writes go to a temporary file that replaces ``path`` only when the block
    ends without an exception. A path that exists and is not a regular file
    (a FIFO, ``/dev/stdout``, a symlink) is written in place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_symlink() or (path.exists() and not path.is_file()):
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    # Not mkstemp, whose files are 0600. A file of this name is stale: its writer had our pid.
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.unlink(missing_ok=True)
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each row of ``rows``, as one CSV file."""
    with output_file(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Each foreign key once: (table, column) -> the (table, key column) it refers
# to, in the order ``integrity["dangling"]`` reports them.
REFERENCES = {
    ("funding_rounds", "org_id"): ("organizations", "org_id"),
    ("investments", "round_id"): ("funding_rounds", "round_id"),
    ("ipos", "org_id"): ("organizations", "org_id"),
    ("acquisitions", "acquiree_id"): ("organizations", "org_id"),
    ("acquisitions", "acquirer_id"): ("organizations", "org_id"),
    ("jobs", "org_id"): ("organizations", "org_id"),
}


@dataclass
class CompanyStore:
    """The six loaded tables, in load order.

    ``integrity`` counts dangling foreign keys per reference; dangling rows
    stay in the row lists.
    """

    organizations: list = field(default_factory=list)
    funding_rounds: list = field(default_factory=list)
    investments: list = field(default_factory=list)
    ipos: list = field(default_factory=list)
    acquisitions: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    integrity: dict = field(default_factory=dict)


def build_store(
    organizations,
    funding_rounds=(),
    investments=(),
    ipos=(),
    acquisitions=(),
    jobs=(),
) -> CompanyStore:
    """Collect loaded rows and tally referential-integrity problems.

    Nothing here is fatal: rows referencing unknown keys are kept and
    reported in ``store.integrity`` under ``<table>.<column>`` keys.
    """
    store = CompanyStore(
        organizations=list(organizations),
        funding_rounds=list(funding_rounds),
        investments=list(investments),
        ipos=list(ipos),
        acquisitions=list(acquisitions),
        jobs=list(jobs),
    )
    known = {
        (table, key): {getattr(row, key) for row in getattr(store, table)}
        for table, key in set(REFERENCES.values())
    }
    dangling = {}
    for (table, column), target in REFERENCES.items():
        keys = known[target]
        dangling[f"{table}.{column}"] = sum(
            1 for row in getattr(store, table) if getattr(row, column) not in keys
        )
    store.integrity = {
        "dangling": dangling,
        "total_dangling": sum(dangling.values()),
        "row_counts": {kind: len(getattr(store, kind)) for kind in TABLE_KINDS},
    }
    return store


def load_directory(data_dir, mapping=None, strict=False):
    """Load all six tables from ``<data_dir>/<kind>.csv`` and build the store.

    Returns ``(store, row_errors_by_kind)``.
    """
    loaded, errors = {}, {}
    for kind in TABLE_KINDS:
        path = Path(data_dir) / f"{kind}.csv"
        loaded[kind], errors[kind] = load_table(path, kind, mapping=mapping, strict=strict)
    return build_store(**loaded), errors
