"""Loading and indexing of relational company CSV tables.

Six table kinds are understood: organizations, funding rounds, investments,
IPOs, acquisitions and jobs. Each loads through a logical->physical column
mapping (see data/default_mapping.txt) so schema drift is a config change,
not a code change. Per-row problems are collected as RowError values rather
than aborting the load; strict mode promotes them to a DataError.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, datetime
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import DataError

TABLE_KINDS = (
    "organizations",
    "funding_rounds",
    "investments",
    "ipos",
    "acquisitions",
    "jobs",
)

LOGICAL_COLUMNS = {
    "organizations": ("org_id", "name", "description", "founded_on", "created_at"),
    "funding_rounds": ("round_id", "org_id", "announced_on", "raised_usd"),
    "investments": ("round_id", "investor_id"),
    "ipos": ("org_id", "went_public_on"),
    "acquisitions": ("acquiree_id", "acquirer_id", "announced_on"),
    "jobs": ("org_id", "person_id", "title"),
}


@dataclass(frozen=True)
class OrganizationRow:
    org_id: str
    name: str
    description: str
    founded_on: Optional[date]
    created_at: Optional[date]


@dataclass(frozen=True)
class FundingRoundRow:
    round_id: str
    org_id: str
    announced_on: Optional[date]
    raised_usd: Optional[float]


@dataclass(frozen=True)
class InvestmentRow:
    round_id: str
    investor_id: str


@dataclass(frozen=True)
class IpoRow:
    org_id: str
    went_public_on: Optional[date]


@dataclass(frozen=True)
class AcquisitionRow:
    acquiree_id: str
    acquirer_id: str
    announced_on: Optional[date]


@dataclass(frozen=True)
class JobRow:
    org_id: str
    person_id: str
    title: str


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
    return parse_kv_text(Path(path).read_text(encoding="utf-8"), path)


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


def parse_iso_date(text: str) -> Optional[date]:
    """ISO date, or a timestamp truncated to its date; empty -> None."""
    text = text.strip()
    if not text:
        return None
    try:
        if len(text) == 10:
            return date.fromisoformat(text)
        return datetime.fromisoformat(text).date()
    except ValueError:
        raise ValueError(f"not an ISO-8601 date: {text!r}")


def _parse_amount(text: str) -> Optional[float]:
    text = text.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")
    if value != value or value < 0:
        raise ValueError(f"negative or invalid amount: {text!r}")
    return value


class _RowReader:
    """Wraps one raw CSV row with mapped-field access that raises ValueError."""

    def __init__(self, record: dict):
        self.record = record

    def text(self, logical: str) -> str:
        return self.record[logical]

    def key(self, logical: str) -> str:
        value = self.record[logical].strip()
        if not value:
            raise ValueError(f"empty {logical}")
        return value

    def date(self, logical: str) -> Optional[date]:
        return parse_iso_date(self.record[logical])

    def amount(self, logical: str) -> Optional[float]:
        return _parse_amount(self.record[logical])


def _parse_organization(row: _RowReader, seen: set) -> OrganizationRow:
    org_id = row.key("org_id")
    if org_id in seen:
        raise ValueError(f"duplicate org_id {org_id!r}")
    seen.add(org_id)
    return OrganizationRow(
        org_id=org_id,
        name=row.text("name"),
        description=row.text("description"),
        founded_on=row.date("founded_on"),
        created_at=row.date("created_at"),
    )


def _parse_funding_round(row: _RowReader, seen: set) -> FundingRoundRow:
    round_id = row.key("round_id")
    if round_id in seen:
        raise ValueError(f"duplicate round_id {round_id!r}")
    seen.add(round_id)
    return FundingRoundRow(
        round_id=round_id,
        org_id=row.key("org_id"),
        announced_on=row.date("announced_on"),
        raised_usd=row.amount("raised_usd"),
    )


def _parse_investment(row: _RowReader, seen: set) -> InvestmentRow:
    return InvestmentRow(round_id=row.key("round_id"), investor_id=row.key("investor_id"))


def _parse_ipo(row: _RowReader, seen: set) -> IpoRow:
    return IpoRow(org_id=row.key("org_id"), went_public_on=row.date("went_public_on"))


def _parse_acquisition(row: _RowReader, seen: set) -> AcquisitionRow:
    acquiree = row.key("acquiree_id")
    acquirer = row.key("acquirer_id")
    if acquiree == acquirer:
        raise ValueError(f"acquiree equals acquirer: {acquiree!r}")
    return AcquisitionRow(
        acquiree_id=acquiree, acquirer_id=acquirer, announced_on=row.date("announced_on")
    )


def _parse_job(row: _RowReader, seen: set) -> JobRow:
    return JobRow(
        org_id=row.key("org_id"),
        person_id=row.text("person_id").strip(),
        title=row.text("title"),
    )


_PARSERS = {
    "organizations": _parse_organization,
    "funding_rounds": _parse_funding_round,
    "investments": _parse_investment,
    "ipos": _parse_ipo,
    "acquisitions": _parse_acquisition,
    "jobs": _parse_job,
}


def load_table(path, kind, mapping=None, strict=False):
    """Load one CSV table into typed rows.

    Returns ``(rows, row_errors)``. Fatal problems (missing file, a mapped
    column absent from the header) raise; per-row parse failures land in
    ``row_errors`` unless ``strict`` is set, in which case the first one
    raises DataError. Every data line ends up in exactly one of the two
    lists, in file order.
    """
    if kind not in LOGICAL_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    mapping = mapping or default_mapping()
    colmap = mapping[kind]
    missing_logical = [c for c in LOGICAL_COLUMNS[kind] if c not in colmap]
    if missing_logical:
        raise DataError(f"{kind}: mapping lacks logical columns {missing_logical}")

    path = Path(path)
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required")
        positions = {}
        for logical in LOGICAL_COLUMNS[kind]:
            physical = colmap[logical]
            if physical not in header:
                raise DataError(f"{path}: header lacks mapped column {physical!r}")
            positions[logical] = header.index(physical)

        parser = _PARSERS[kind]
        rows, errors = [], []
        seen_keys: set = set()
        for record in reader:
            line = reader.line_num
            if not record:
                continue
            try:
                values = {
                    logical: (record[pos] if pos < len(record) else "")
                    for logical, pos in positions.items()
                }
                rows.append(parser(_RowReader(values), seen_keys))
            except ValueError as exc:
                if strict:
                    raise DataError(f"{path}:{line}: {exc}")
                errors.append(RowError(line=line, reason=str(exc)))
    return rows, errors


def _format_amount(value: Optional[float]) -> str:
    if value is None:
        return ""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_date(value: Optional[date]) -> str:
    return value.isoformat() if value is not None else ""


_WRITERS = {
    "organizations": lambda r: [
        r.org_id,
        r.name,
        r.description,
        _format_date(r.founded_on),
        _format_date(r.created_at),
    ],
    "funding_rounds": lambda r: [
        r.round_id,
        r.org_id,
        _format_date(r.announced_on),
        _format_amount(r.raised_usd),
    ],
    "investments": lambda r: [r.round_id, r.investor_id],
    "ipos": lambda r: [r.org_id, _format_date(r.went_public_on)],
    "acquisitions": lambda r: [
        r.acquiree_id,
        r.acquirer_id,
        _format_date(r.announced_on),
    ],
    "jobs": lambda r: [r.org_id, r.person_id, r.title],
}


def write_table(rows, path, kind) -> None:
    """Serialize typed rows back to CSV under canonical (logical) columns."""
    if kind not in LOGICAL_COLUMNS:
        raise ValueError(f"unknown table kind {kind!r}")
    to_fields = _WRITERS[kind]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOGICAL_COLUMNS[kind])
        for row in rows:
            writer.writerow(to_fields(row))


@dataclass
class CompanyStore:
    """Immutable indexed view over the six loaded tables.

    Lookups for unknown keys return empty lists. ``integrity`` counts
    dangling foreign keys per relation; dangling rows stay in the row lists.
    """

    organizations: list = field(default_factory=list)
    funding_rounds: list = field(default_factory=list)
    investments: list = field(default_factory=list)
    ipos: list = field(default_factory=list)
    acquisitions: list = field(default_factory=list)
    jobs: list = field(default_factory=list)

    _rounds_by_org: dict = field(default_factory=dict, repr=False)
    _investments_by_round: dict = field(default_factory=dict, repr=False)
    _ipos_by_org: dict = field(default_factory=dict, repr=False)
    _acq_by_acquiree: dict = field(default_factory=dict, repr=False)
    _acq_by_acquirer: dict = field(default_factory=dict, repr=False)
    _jobs_by_org: dict = field(default_factory=dict, repr=False)
    _org_by_id: dict = field(default_factory=dict, repr=False)
    integrity: dict = field(default_factory=dict)

    def organization(self, org_id):
        return self._org_by_id.get(org_id)

    def rounds_by_org(self, org_id):
        return self._rounds_by_org.get(org_id, [])

    def investments_by_round(self, round_id):
        return self._investments_by_round.get(round_id, [])

    def ipos_by_org(self, org_id):
        return self._ipos_by_org.get(org_id, [])

    def acquisitions_of(self, acquiree_id):
        return self._acq_by_acquiree.get(acquiree_id, [])

    def acquisitions_made_by(self, acquirer_id):
        return self._acq_by_acquirer.get(acquirer_id, [])

    def jobs_by_org(self, org_id):
        return self._jobs_by_org.get(org_id, [])


def build_store(
    organizations,
    funding_rounds=(),
    investments=(),
    ipos=(),
    acquisitions=(),
    jobs=(),
) -> CompanyStore:
    """Index loaded rows and tally referential-integrity problems.

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
    store._org_by_id = {o.org_id: o for o in store.organizations}
    known_orgs = set(store._org_by_id)
    known_rounds = {r.round_id for r in store.funding_rounds}

    dangling = {
        "funding_rounds.org_id": 0,
        "investments.round_id": 0,
        "ipos.org_id": 0,
        "acquisitions.acquiree_id": 0,
        "acquisitions.acquirer_id": 0,
        "jobs.org_id": 0,
    }

    for r in store.funding_rounds:
        store._rounds_by_org.setdefault(r.org_id, []).append(r)
        if r.org_id not in known_orgs:
            dangling["funding_rounds.org_id"] += 1
    for inv in store.investments:
        store._investments_by_round.setdefault(inv.round_id, []).append(inv)
        if inv.round_id not in known_rounds:
            dangling["investments.round_id"] += 1
    for ipo in store.ipos:
        store._ipos_by_org.setdefault(ipo.org_id, []).append(ipo)
        if ipo.org_id not in known_orgs:
            dangling["ipos.org_id"] += 1
    for acq in store.acquisitions:
        store._acq_by_acquiree.setdefault(acq.acquiree_id, []).append(acq)
        store._acq_by_acquirer.setdefault(acq.acquirer_id, []).append(acq)
        if acq.acquiree_id not in known_orgs:
            dangling["acquisitions.acquiree_id"] += 1
        if acq.acquirer_id not in known_orgs:
            dangling["acquisitions.acquirer_id"] += 1
    for job in store.jobs:
        store._jobs_by_org.setdefault(job.org_id, []).append(job)
        if job.org_id not in known_orgs:
            dangling["jobs.org_id"] += 1

    store.integrity = {
        "dangling": dangling,
        "total_dangling": sum(dangling.values()),
        "row_counts": {
            "organizations": len(store.organizations),
            "funding_rounds": len(store.funding_rounds),
            "investments": len(store.investments),
            "ipos": len(store.ipos),
            "acquisitions": len(store.acquisitions),
            "jobs": len(store.jobs),
        },
    }
    return store


def load_directory(data_dir, mapping=None, strict=False, filenames=None):
    """Load all six tables from ``data_dir`` and build the store.

    Returns ``(store, row_errors_by_kind)``. ``filenames`` overrides the
    default ``<kind>.csv`` naming.
    """
    data_dir = Path(data_dir)
    filenames = filenames or {kind: f"{kind}.csv" for kind in TABLE_KINDS}
    loaded, errors = {}, {}
    for kind in TABLE_KINDS:
        path = data_dir / filenames[kind]
        if not path.exists():
            raise FileNotFoundError(f"missing input table: {path}")
        rows, errs = load_table(path, kind, mapping=mapping, strict=strict)
        loaded[kind] = rows
        errors[kind] = errs
    store = build_store(
        organizations=loaded["organizations"],
        funding_rounds=loaded["funding_rounds"],
        investments=loaded["investments"],
        ipos=loaded["ipos"],
        acquisitions=loaded["acquisitions"],
        jobs=loaded["jobs"],
    )
    return store, errors
