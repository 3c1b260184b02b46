"""Table loading, validation, round-trips and store integrity."""

import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import threading
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventureval import cli
from ventureval.errors import DataError
from ventureval.features import write_jsonl
from ventureval.ingest import (
    ROW_TYPES,
    SCHEMA,
    TABLE_KINDS,
    FundingRoundRow,
    OrganizationRow,
    RowError,
    build_store,
    default_mapping,
    identity_mapping,
    load_mapping_file,
    load_table,
    output_file,
    parse_iso_date,
    parse_kv_text,
    write_csv,
    write_table,
)

ORG_HEADER = "uuid,name,short_description,founded_on,created_at\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_header_only_file_yields_nothing(tmp_path):
    path = write(tmp_path, "organizations.csv", ORG_HEADER)
    rows, errors = load_table(path, "organizations")
    assert rows == [] and errors == []


def test_malformed_date_is_collected_with_line_number(tmp_path):
    path = write(
        tmp_path,
        "organizations.csv",
        ORG_HEADER
        + "c1,Acme,tools,2020-06-11,2020-06-11\n"
        + "c2,Beta,things,not-a-date,\n"
        + "c3,Gamma,stuff,,\n",
    )
    rows, errors = load_table(path, "organizations")
    assert len(rows) == 2
    assert len(errors) == 1
    assert errors[0].line == 3
    assert "not-a-date" in errors[0].reason


def test_organization_row_fields(tmp_path):
    path = write(
        tmp_path,
        "organizations.csv",
        ORG_HEADER + 'c1,Acme,"AI tools",2020-06-11,2020-06-11\n',
    )
    rows, errors = load_table(path, "organizations")
    assert errors == []
    assert rows[0] == OrganizationRow(
        "c1", "Acme", "AI tools", date(2020, 6, 11), date(2020, 6, 11)
    )


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_table(tmp_path / "nope.csv", "organizations")


def test_missing_mapped_column_is_fatal(tmp_path):
    path = write(tmp_path, "organizations.csv", "uuid,name\nc1,Acme\n")
    with pytest.raises(DataError, match="header lacks"):
        load_table(path, "organizations")


def test_oversized_field_is_a_data_error(tmp_path):
    """An unterminated quote runs to the end of the file; past the csv
    module's field limit that is a data error naming file and line."""
    path = write(tmp_path, "organizations.csv", ORG_HEADER + 'c1,"' + "x" * 200_000 + "\n")
    with pytest.raises(DataError, match=f"{path}:2: field larger than field limit"):
        load_table(path, "organizations")


def test_non_utf8_mapping_is_a_data_error(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_bytes(b"organizations.name = \xffname\n")
    with pytest.raises(DataError, match=f"{path}: not UTF-8"):
        load_mapping_file(path)


def test_undecodable_line_is_a_row_error(tmp_path):
    """A byte that is not UTF-8 fails its own line, keeping the line number,
    instead of becoming a replacement character in a key."""
    path = tmp_path / "jobs.csv"
    path.write_bytes(b"org_uuid,person_uuid,title\n"
                     b"org1,p1,CEO\norg\xff00000,p2,CTO\norg2,p3,Caf\xc3\xa9 owner\n")
    rows, errors = load_table(path, "jobs")
    assert [r.person_id for r in rows] == ["p1", "p3"]
    assert rows[1].title == "Caf\u00e9 owner"
    assert errors == [RowError(line=3, reason="not UTF-8: byte 0xff")]
    with pytest.raises(DataError, match=f"^{path}:3: not UTF-8: byte 0xff$"):
        load_table(path, "jobs", strict=True)


def test_strict_mode_promotes_row_errors(tmp_path):
    path = write(
        tmp_path, "organizations.csv", ORG_HEADER + "c1,Acme,x,bad-date,\n"
    )
    with pytest.raises(DataError):
        load_table(path, "organizations", strict=True)


def test_duplicate_org_id_rejected(tmp_path):
    path = write(
        tmp_path,
        "organizations.csv",
        ORG_HEADER + "c1,Acme,,,\n" + "c1,Copy,,,\n",
    )
    rows, errors = load_table(path, "organizations")
    assert len(rows) == 1
    assert len(errors) == 1 and "duplicate" in errors[0].reason


def test_negative_amount_rejected(tmp_path):
    path = write(
        tmp_path,
        "funding_rounds.csv",
        "uuid,org_uuid,announced_on,raised_amount_usd\n"
        "r1,c1,2020-01-01,-5\n"
        "r2,c1,,1000\n",
    )
    rows, errors = load_table(path, "funding_rounds")
    assert [r.round_id for r in rows] == ["r2"]
    assert rows[0].raised_usd == 1000.0 and rows[0].announced_on is None
    assert len(errors) == 1


@pytest.mark.parametrize("amount", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_amount_is_a_row_error(tmp_path, amount):
    path = write(
        tmp_path,
        "funding_rounds.csv",
        f"uuid,org_uuid,announced_on,raised_amount_usd\nr1,c1,,{amount}\nr2,c1,,7\n",
    )
    rows, errors = load_table(path, "funding_rounds")
    assert [r.round_id for r in rows] == ["r2"]
    assert [(e.line, e.reason) for e in errors] == [(2, f"negative or invalid amount: {amount!r}")]


def test_acquiree_equal_acquirer_rejected(tmp_path):
    path = write(
        tmp_path,
        "acquisitions.csv",
        "acquiree_uuid,acquirer_uuid,announced_on\nc1,c1,\nc1,c2,2020-01-01\n",
    )
    rows, errors = load_table(path, "acquisitions")
    assert len(rows) == 1 and len(errors) == 1


def test_timestamps_truncate_to_dates():
    assert parse_iso_date("2020-06-11 12:34:56") == date(2020, 6, 11)
    assert parse_iso_date("2020-06-11T12:34:56") == date(2020, 6, 11)
    assert parse_iso_date("  ") is None
    with pytest.raises(ValueError):
        parse_iso_date("11/06/2020")


# Each string with the date it reads as, or None for a row error. The table
# holds on every supported Python: Python 3.11 reads the week form, the basic
# form and more timestamps than 3.10 does, and those are row errors here.
@pytest.mark.parametrize("text, expected", [
    ("2020-06-11", date(2020, 6, 11)),
    (" 2020-06-11\t", date(2020, 6, 11)),
    ("0001-01-01", date(1, 1, 1)),
    ("2020-06-11T12", date(2020, 6, 11)),
    ("2020-06-11 12:34", date(2020, 6, 11)),
    ("2020-06-11T23:59:59", date(2020, 6, 11)),
    ("2020-06-11T12:34:56.123", date(2020, 6, 11)),
    ("2020-06-11T12:34:56.123456", date(2020, 6, 11)),
    ("2020-06-11T12:34+05:30", date(2020, 6, 11)),
    ("2020-06-11T12:34:56-23:59:59.999999", date(2020, 6, 11)),
    ("2020-01-01T00:00:00Z", date(2020, 1, 1)),
    ("2020-W01-1", None),
    ("2020W011", None),
    ("20200101", None),
    ("2020-1-01", None),
    ("2020-02-30", None),
    ("2020-13-01", None),
    ("２０２０-01-01", None),
    ("2020-01-0\u0661", None),
    ("2020-06-11T", None),
    ("2020-06-11x12:34", None),
    ("2020-06-11T24:00", None),
    ("2020-06-11T12:60", None),
    ("2020-06-11T12:34:60", None),
    ("2020-06-11T12:34:56.1234", None),
    ("2020-06-11T12:34:56,123", None),
    ("2020-06-11T1234", None),
    ("2020-06-11T12:34+0530", None),
    ("2020-06-11T12:34+24:00", None),
    ("2020-06-11T12:34+05:30Z", None),
    ("2020-06-11T12:34z", None),
    ("2020-06-11T1\u0662:34", None),
])
def test_accepted_date_forms_are_one_set(text, expected):
    if expected is None:
        with pytest.raises(ValueError, match="not an ISO-8601 date"):
            parse_iso_date(text)
    else:
        assert parse_iso_date(text) == expected


def test_row_conservation(tmp_path):
    rng = random.Random(5)
    lines = []
    good = bad = 0
    for i in range(200):
        if rng.random() < 0.25:
            lines.append(f"r{i},c{rng.randrange(20)},garbage-date,100\n")
            bad += 1
        else:
            lines.append(f"r{i},c{rng.randrange(20)},2020-01-01,{rng.randrange(10**6)}\n")
            good += 1
    path = write(
        tmp_path,
        "funding_rounds.csv",
        "uuid,org_uuid,announced_on,raised_amount_usd\n" + "".join(lines),
    )
    rows, errors = load_table(path, "funding_rounds")
    assert len(rows) == good and len(errors) == bad
    assert len(rows) + len(errors) == 200


def test_write_load_round_trip(tmp_path):
    rows = [
        OrganizationRow("c1", "Acme, Inc.", 'tools with "quotes"', date(2020, 1, 2), None),
        OrganizationRow("c2", "Liäm & Co", "multi\nline\ndescription", None, date(2019, 3, 4)),
        OrganizationRow("c3", "Plain", "", None, None),
    ]
    path = tmp_path / "orgs.csv"
    write_table(rows, path, "organizations")
    reloaded, errors = load_table(path, "organizations", mapping=identity_mapping())
    assert errors == []
    assert reloaded == rows


def test_round_trip_preserves_amounts(tmp_path):
    rows = [
        FundingRoundRow("r1", "c1", None, 1000000.0),
        FundingRoundRow("r2", "c1", date(2020, 5, 5), 1234567.89),
        FundingRoundRow("r3", "c2", None, None),
    ]
    path = tmp_path / "rounds.csv"
    write_table(rows, path, "funding_rounds")
    reloaded, errors = load_table(path, "funding_rounds", mapping=identity_mapping())
    assert errors == []
    assert reloaded == rows


# Cells a column type must carry through a write/load round trip: text keeps
# commas, quotes, line breaks and outer spaces; keys and ids are stripped.
_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n \t'), st.characters(codec="utf-8")))
_STRIPPED = _TEXT.map(str.strip)
CELLS = {
    "key": _STRIPPED.filter(bool),
    "id": _STRIPPED,
    "text": _TEXT,
    "date": st.none() | st.dates(),
    "amount": st.none() | st.floats(min_value=0, allow_nan=False, allow_infinity=False),
}


def table_rows(kind):
    row = st.tuples(*(CELLS[ctype] for _, ctype in SCHEMA[kind])).map(ROW_TYPES[kind]._make)
    if kind == "acquisitions":
        row = row.filter(lambda r: r.acquiree_id != r.acquirer_id)
    unique_by = (lambda r: r[0]) if kind in ("organizations", "funding_rounds") else None
    return st.lists(row, max_size=8, unique_by=unique_by)


@pytest.mark.parametrize("mapping", [identity_mapping(), default_mapping()],
                         ids=["identity", "default"])
@pytest.mark.parametrize("kind", TABLE_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_write_then_load_gives_back_the_rows(kind, mapping, data):
    rows = data.draw(table_rows(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        write_table(rows, path, kind, mapping=mapping)
        reloaded, errors = load_table(path, kind, mapping=mapping)
    assert errors == []
    assert reloaded == rows


def test_empty_store_counts_nothing():
    store = build_store([])
    assert store.integrity["total_dangling"] == 0
    assert set(store.integrity["row_counts"].values()) == {0}


def test_dangling_round_reported():
    orgs = [OrganizationRow("c1", "Acme", "", None, None)]
    rounds = [FundingRoundRow("r1", "ghost", None, 5.0)]
    store = build_store(orgs, rounds)
    assert store.integrity["dangling"]["funding_rounds.org_id"] == 1
    # dangling rows are retained, not dropped
    assert store.funding_rounds == rounds


def test_mapping_file_overrides(tmp_path):
    mapping_path = write(
        tmp_path,
        "mapping.txt",
        "\n".join(
            f"{kind}.{logical} = {logical}"
            for kind, cols in (
                ("organizations", ("org_id", "name", "description", "founded_on", "created_at")),
            )
            for logical in cols
        )
        + "\norganizations.org_id = company_key\n",
    )
    mapping = load_mapping_file(mapping_path)
    assert mapping["organizations"]["org_id"] == "company_key"
    data = write(
        tmp_path,
        "organizations.csv",
        "company_key,name,description,founded_on,created_at\nc9,Acme,,,\n",
    )
    rows, _ = load_table(data, "organizations", mapping=mapping)
    assert rows[0].org_id == "c9"


def test_mapping_rejects_unknown_keys(tmp_path):
    mapping_path = write(tmp_path, "mapping.txt", "organizations.bogus = x\n")
    with pytest.raises(DataError, match="unknown column"):
        load_mapping_file(mapping_path)


def test_default_mapping_covers_all_tables():
    mapping = default_mapping()
    from ventureval.ingest import LOGICAL_COLUMNS

    for kind, columns in LOGICAL_COLUMNS.items():
        for logical in columns:
            assert logical in mapping[kind]


def test_default_mapping_reads_like_a_mapping_file(tmp_path):
    from importlib import resources

    shipped = resources.files("ventureval").joinpath("data/default_mapping.txt")
    copy = write(tmp_path, "mapping.txt", shipped.read_text(encoding="utf-8"))
    assert default_mapping() == load_mapping_file(copy)


def test_kv_text_without_equals_names_source_and_line():
    assert parse_kv_text("# note\n a = 1 \n\nb=x=y\n", "cfg") == {"a": "1", "b": "x=y"}
    with pytest.raises(DataError, match=r"^cfg:2: expected 'key = value'"):
        parse_kv_text("a = 1\nbroken\n", "cfg")


# ------------------------------------------------------------ output files


class Boom(Exception):
    pass


def rows_raising_at(n, at):
    for i in range(n):
        if i == at:
            raise Boom(f"row {i}")
        yield {"i": i, "text": "x" * 300}


class Unserializable:
    pass


# Each writer gets n rows whose row ``at`` raises partway through the file.
RAISING_WRITERS = {
    "write_jsonl": lambda path, n, at: write_jsonl(rows_raising_at(n, at), path),
    "write_csv": lambda path, n, at: write_csv(
        path, ["i", "text"], ([r["i"], r["text"]] for r in rows_raising_at(n, at))
    ),
    # json.dump writes the chunks before the object it cannot encode.
    "_write_json": lambda path, n, at: cli._write_json(
        path, [Unserializable() if i == at else {"i": i, "text": "x" * 300} for i in range(n)]
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    writer=st.sampled_from(sorted(RAISING_WRITERS)),
    previous=st.one_of(st.none(), st.binary(max_size=200)),
    n=st.integers(1, 60),
    data=st.data(),
)
def test_a_writer_that_raises_leaves_the_old_file_and_no_temporary(writer, previous, n, data):
    at = data.draw(st.integers(0, n - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out" / "target"
        if previous is not None:
            path.parent.mkdir()
            path.write_bytes(previous)
        with pytest.raises((Boom, TypeError)):
            RAISING_WRITERS[writer](path, n, at)
        if previous is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == previous
        assert [p.name for p in path.parent.iterdir()] == ([] if previous is None else ["target"])


KILLED_WRITER = """
import sys
from ventureval.features import write_jsonl

def rows():
    for i in range(5000):  # about 300 KB, well past the write buffer
        yield {"i": i, "text": "x" * 50}
    print("blocked", flush=True)
    sys.stdin.readline()  # killed here, mid-stream

write_jsonl(rows(), sys.argv[1])
"""


def test_a_killed_writer_leaves_the_old_file(tmp_path):
    path = tmp_path / "profiles.jsonl"
    write_jsonl([{"old": True}], path)
    old = path.read_bytes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [sys.executable, "-c", KILLED_WRITER, str(path)],
        env={**os.environ, "PYTHONPATH": src},
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline() == "blocked\n"
        child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=30) == -signal.SIGKILL
    finally:
        child.kill()
        child.wait(timeout=30)
        child.stdin.close()
        child.stdout.close()
    assert path.read_bytes() == old
    # The stale temporary file holds the rows written before the kill.
    (stale,) = tmp_path.glob(".profiles.jsonl.*.tmp")
    assert stale.stat().st_size > 100_000


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "rows.jsonl"
    os.mkfifo(fifo)
    received = []
    # A daemon: if the FIFO were replaced, nothing would ever open it to write.
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        write_jsonl([{"i": 1}, {"i": 2}], fifo)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b'{"i": 1}\n{"i": 2}\n']
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_a_symlink_target_is_written_through_the_link(tmp_path):
    real = tmp_path / "real.csv"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_csv(link, ["a", "b"], [[1, 2]])
    assert link.is_symlink()
    assert real.read_bytes() == b"a,b\r\n1,2\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_a_new_output_has_the_mode_of_a_plain_open(tmp_path):
    # 022 lets group and others read, so a writer that made its files 0600
    # (as tempfile.mkstemp does) would differ from a plain open.
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        with output_file(tmp_path / "new") as fh:
            fh.write("x")
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert mode == 0o644
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == mode
