"""Feature derivation, imputation, stats, balancing and splits."""

import csv
import json
import math
import random
import sys
import tempfile
from collections import Counter
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_PROFILE
from ventureval.errors import DataError
from ventureval.features import (
    AGE_SENTINEL,
    FEATURE_COLUMNS,
    FLAG_PROFILE_FIELDS,
    PROFILE_FIELDS,
    TEXT_PROFILE_FIELDS,
    CompanyProfile,
    SplitSpec,
    check_text,
    _largest_remainder,
    balance_dataset,
    compute_age,
    corpus_stats,
    derive_profiles,
    feature_vector,
    read_jsonl,
    read_profiles_jsonl,
    split_dataset,
    write_jsonl,
    write_profiles_csv,
    write_profiles_jsonl,
)
from ventureval.ingest import (
    AcquisitionRow,
    FundingRoundRow,
    IpoRow,
    JobRow,
    OrganizationRow,
    build_store,
)

REF = date(2025, 6, 11)


def profiles_by_id(store, reference_date=REF):
    profiles, anomalies = derive_profiles(store, reference_date)
    assert not anomalies
    return {p.org_id: p for p in profiles}


def only_profile(store):
    (profile,) = profiles_by_id(store).values()
    return profile


def org(org_id="c1", founded=None, created=None, name="Org", description=""):
    return OrganizationRow(org_id, name, description, founded, created)


def test_age_five_years():
    assert abs(compute_age(date(2020, 6, 11), REF) - 5.0) < 0.01


def test_age_sentinel_when_absent():
    assert compute_age(None, REF) == AGE_SENTINEL


def test_age_zero_interval():
    assert compute_age(REF, REF) == 0.0


def test_future_founding_is_anomaly():
    with pytest.raises(DataError):
        compute_age(date(2030, 1, 1), REF)


def test_profile_all_defaults():
    p = only_profile(build_store([org()]))
    assert p.total_raised_usd == 0.0
    assert p.num_funding_rounds == 0
    assert p.num_investors == 0
    assert p.num_acquisitions_made == 0
    assert p.num_executives == 0
    assert p.success == 0
    assert p.age_years == AGE_SENTINEL and p.age_imputed == 1


def test_profile_funding_and_distinct_investors(small_store):
    p = profiles_by_id(small_store)["c1"]
    assert p.total_raised_usd == 3_500_000.0
    assert p.num_funding_rounds == 2
    assert p.num_investors == 2  # invA appears in both rounds
    assert p.num_executives == 2  # CEO + VP; the engineer does not match
    assert p.had_ipo == 1 and p.success == 1


def test_acquirer_role_does_not_mark_success(small_store):
    p = profiles_by_id(small_store)["c2"]
    assert p.num_acquisitions_made == 2
    assert p.was_acquired == 0
    assert p.success == 0


def test_labels(small_store):
    profiles = profiles_by_id(small_store)
    assert profiles["c1"].success == 1  # IPO row
    assert profiles["c3"].success == 0  # no events
    assert profiles["c2"].success == 0  # acquirer only
    acquired = build_store([org("c1"), org("c2")], acquisitions=[AcquisitionRow("c1", "c2", None)])
    assert profiles_by_id(acquired)["c1"].success == 1  # acquiree


def test_age_falls_back_to_created_at():
    p = only_profile(build_store([org(founded=None, created=date(2023, 6, 11))]))
    assert abs(p.age_years - 2.0) < 0.01
    assert p.age_imputed == 0


def test_executive_title_matching():
    titles_expected = [
        ("Chief Executive Officer", True),
        ("VP of Engineering", True),
        ("Vice President, Sales", True),
        ("Founder & CEO", True),
        ("President", True),
        ("Software Engineer", False),
        ("SVP of Operations", False),  # no word-boundary 'vp'
        ("Sales Associate", False),
    ]
    jobs = [JobRow("c1", f"p{i}", t) for i, (t, _) in enumerate(titles_expected)]
    p = only_profile(build_store([org()], jobs=jobs))
    assert p.num_executives == sum(1 for _, m in titles_expected if m)


def test_derive_profiles_collects_anomalies():
    store = build_store([org("c1", founded=date(2030, 1, 1)), org("c2")])
    profiles, anomalies = derive_profiles(store, REF)
    assert [p.org_id for p in profiles] == ["c2"]
    assert anomalies[0][0] == "c1"


def test_totality_under_fuzzed_missingness():
    rng = random.Random(31)
    orgs, rounds, ipos, acqs, jobs = [], [], [], [], []
    for i in range(300):
        founded = date(2015 + rng.randrange(9), 1 + rng.randrange(12), 1 + rng.randrange(28))
        orgs.append(
            org(
                f"c{i}",
                founded=founded if rng.random() < 0.7 else None,
                created=founded if rng.random() < 0.5 else None,
            )
        )
        for k in range(rng.randrange(4)):
            rounds.append(
                FundingRoundRow(
                    f"r{i}_{k}",
                    f"c{i}",
                    None,
                    float(rng.randrange(10**7)) if rng.random() < 0.8 else None,
                )
            )
        if rng.random() < 0.2:
            ipos.append(IpoRow(f"c{i}", None))
        if rng.random() < 0.1 and i > 0:
            acqs.append(AcquisitionRow(f"c{i}", f"c{i - 1}", None))
    store = build_store(orgs, rounds, (), ipos, acqs, jobs)
    profiles, anomalies = derive_profiles(store, REF)
    assert not anomalies
    for p in profiles:
        for name in FEATURE_COLUMNS:
            value = getattr(p, name)
            assert value is not None and not math.isnan(float(value))
        assert p.success == (1 if (p.had_ipo or p.was_acquired) else 0)


def test_adding_rounds_never_decreases_funding_features():
    rng = random.Random(41)
    rounds = []
    previous = None
    for k in range(25):
        rounds.append(
            FundingRoundRow(
                f"r{k}", "c1", None,
                float(rng.randrange(10**6)) if rng.random() < 0.7 else None,
            )
        )
        p = only_profile(build_store([org("c1")], list(rounds)))
        if previous is not None:
            assert p.total_raised_usd >= previous.total_raised_usd
            assert p.num_funding_rounds == previous.num_funding_rounds + 1
        previous = p


def test_feature_vector_excludes_event_flags(golden_profile):
    vec = feature_vector(golden_profile)
    assert len(vec) == 6
    assert "had_ipo" not in FEATURE_COLUMNS and "was_acquired" not in FEATURE_COLUMNS


def make_profile(i, success, description="", raised=0.0):
    base = only_profile(build_store([org(f"c{i}", name=f"Org {i}", description=description)]))
    return base.__class__(
        **{
            **{f: getattr(base, f) for f in base._fields},
            "org_id": f"c{i}",
            "success": success,
            "total_raised_usd": raised,
        }
    )


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats.n_total == 0 and stats.positive_ratio == 0.0
    assert sum(stats.desc_token_histogram.values()) == 0


def test_corpus_stats_buckets_and_ratio():
    short_desc = "one two three"
    long_desc = " ".join(f"word{i}" for i in range(300))
    profiles = [make_profile(0, 1, short_desc), make_profile(1, 0, long_desc)]
    stats = corpus_stats(profiles)
    occupied = [k for k, v in stats.desc_token_histogram.items() if v]
    assert len(occupied) == 2
    assert sum(stats.desc_token_histogram.values()) == 2

    profiles = [make_profile(i, 1) for i in range(300)] + [
        make_profile(300 + i, 0) for i in range(700)
    ]
    stats = corpus_stats(profiles)
    assert stats.positive_ratio == pytest.approx(0.3)
    assert sum(stats.desc_token_histogram.values()) == 1000


def test_balance_undersamples_majority():
    profiles = [make_profile(i, 1) for i in range(300)] + [
        make_profile(300 + i, 0) for i in range(700)
    ]
    balanced = balance_dataset(profiles, seed=3)
    counts = Counter(p.success for p in balanced)
    assert counts[0] == counts[1] == 300


def test_balance_identity_when_already_balanced():
    profiles = [make_profile(i, i % 2) for i in range(10)]
    assert balance_dataset(profiles, seed=1) == profiles


def test_balance_seed_determinism():
    profiles = [make_profile(i, 1) for i in range(50)] + [
        make_profile(50 + i, 0) for i in range(500)
    ]
    first = balance_dataset(profiles, seed=8)
    second = balance_dataset(profiles, seed=8)
    other = balance_dataset(profiles, seed=9)
    assert first == second
    assert first != other


def test_balance_requires_both_classes():
    with pytest.raises(DataError):
        balance_dataset([make_profile(0, 1)], seed=0)


def test_split_sizes_largest_remainder():
    profiles = [make_profile(i, i % 2) for i in range(10)]
    train, val, test = split_dataset(profiles, SplitSpec(seed=1, stratified=False))
    assert (len(train), len(val), len(test)) == (8, 1, 1)


def test_split_stratified_preserves_ratio():
    profiles = [make_profile(i, 1) for i in range(50)] + [
        make_profile(50 + i, 0) for i in range(50)
    ]
    train, val, test = split_dataset(profiles, SplitSpec(seed=4, stratified=True))
    counts = Counter(p.success for p in train)
    assert counts[0] == counts[1] == 40
    assert len(val) == len(test) == 10


def test_split_is_partition():
    profiles = [make_profile(i, i % 3 == 0) for i in range(97)]
    train, val, test = split_dataset(profiles, SplitSpec(seed=12))
    ids = [p.org_id for p in train + val + test]
    assert sorted(ids) == sorted(p.org_id for p in profiles)
    assert len(set(ids)) == len(ids)


def test_split_deterministic_by_seed():
    profiles = [make_profile(i, i % 2) for i in range(40)]
    a = split_dataset(profiles, SplitSpec(seed=5))
    b = split_dataset(profiles, SplitSpec(seed=5))
    assert a == b


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.sampled_from([0, 1]), min_size=3, max_size=60),
    weights=st.tuples(*[st.integers(1, 100)] * 3),
    seed=st.integers(0, 2**31 - 1),
    stratified=st.booleans(),
)
def test_split_partitions_with_largest_remainder_sizes(labels, weights, seed, stratified):
    profiles = [GOLDEN_PROFILE._replace(org_id=f"c{i}", success=label)
                for i, label in enumerate(labels)]
    spec = SplitSpec(ratios=tuple(w / sum(weights) for w in weights), seed=seed,
                     stratified=stratified)
    parts = split_dataset(profiles, spec)
    ids = [p.org_id for part in parts for p in part]
    assert sorted(ids) == sorted(p.org_id for p in profiles)
    assert len(set(ids)) == len(ids)
    classes = (1, 0) if stratified else (None,)
    for cls in classes:
        n = sum(1 for label in labels if cls in (None, label))
        sizes = [sum(1 for p in part if cls in (None, p.success)) for part in parts]
        assert sizes == _largest_remainder(n, spec.ratios)
        assert all(abs(size - n * r) < 1 for size, r in zip(sizes, spec.ratios))
    assert split_dataset(profiles, spec) == parts


def test_split_rejects_tiny_corpus():
    with pytest.raises(DataError):
        split_dataset([make_profile(0, 1), make_profile(1, 0)], SplitSpec())


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(ratios=(0.5, 0.5, 0.5)).validate()


def test_write_jsonl_writes_one_line_per_object(tmp_path):
    objs = [
        {"name": "Zoë 東京", "n": 1, "x": 0.1, "none": None},
        {"text": "one\ntwo\r\u2028three", "nested": {"list": [1, "é"]}},
        {},
    ]
    path = tmp_path / "out.jsonl"
    assert write_jsonl(iter(objs), path) == 3
    text = path.read_text(encoding="utf-8")
    assert "Zoë 東京" in text and "\\u" not in text  # non-ASCII text is not escaped
    lines = text.split("\n")
    assert lines.pop() == ""  # every line ends with a newline
    assert [json.loads(line) for line in lines] == objs

    empty = tmp_path / "empty.jsonl"
    assert write_jsonl([], empty) == 0
    assert empty.read_bytes() == b""


def test_profiles_jsonl_round_trip(tmp_path, golden_profile):
    path = tmp_path / "profiles.jsonl"
    n = write_profiles_jsonl([golden_profile], path)
    assert n == 1
    assert read_profiles_jsonl(path) == [golden_profile]


def test_profiles_csv_has_the_field_header_and_one_row_per_profile(tmp_path, golden_profile):
    profiles = [
        golden_profile,
        golden_profile._replace(org_id="c2", name='Acme, "Inc"', description="one\ntwo, é 東京"),
        golden_profile._replace(org_id="c3", name="Zoë\r\nCo", description='"quoted", ünïcode'),
    ]
    path = tmp_path / "profiles.csv"
    write_profiles_csv(profiles, path)
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == PROFILE_FIELDS
    assert [(org_id, name, description) for org_id, name, description, *_ in rows] == \
        [(p.org_id, p.name, p.description) for p in profiles]
    assert rows == [[str(value) for value in p] for p in profiles]


def field_by_field_profile(obj: dict) -> CompanyProfile:
    """The profile reader's check before its one-pass fast path: the
    reference that _profile_from_dict must agree with."""
    values = {name: obj[name] for name in PROFILE_FIELDS}
    # type(), not isinstance: a JSON true or false is neither a number nor a flag.
    for name in TEXT_PROFILE_FIELDS:
        check_text(name, values[name])
    for name in FEATURE_COLUMNS:
        value = values[name]
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} is not a finite number: {value!r}")
    for name in FLAG_PROFILE_FIELDS:
        value = values[name]
        if type(value) is not int or value not in (0, 1):
            raise ValueError(f"{name} is not 0 or 1: {value!r}")
    return CompanyProfile(**values)


_any_json_value = st.sampled_from(
    [None, True, False, 0, 1, 2, -1, 1.5, -0.0, 10**400, -(10**400), 1e308, math.inf, -math.inf,
     math.nan, "", "x", "é", "\ud800", "a\udcffb", [], {}, [1]]
)
_profile_value = {
    **{name: st.one_of(st.text(max_size=4), _any_json_value) for name in TEXT_PROFILE_FIELDS},
    **{name: st.one_of(st.integers(-5, 10**6), st.floats(), _any_json_value)
       for name in FEATURE_COLUMNS},
    **{name: st.one_of(st.sampled_from([0, 1]), _any_json_value) for name in FLAG_PROFILE_FIELDS},
}


@st.composite
def profile_lines(draw):
    """One JSONL line: a written profile with some fields given other values
    (any JSON type, non-finite, lone surrogates), dropped, or joined by other keys."""
    obj = GOLDEN_PROFILE._asdict()
    for name in draw(st.lists(st.sampled_from(PROFILE_FIELDS), max_size=4)):
        obj[name] = draw(_profile_value[name])
    for name in draw(st.lists(st.sampled_from(PROFILE_FIELDS), max_size=1)):
        del obj[name]
    if draw(st.booleans()):
        obj[draw(st.sampled_from(["extra", "org_id"]))] = draw(_any_json_value)
    keys = draw(st.permutations(sorted(obj)))
    return json.dumps({key: obj[key] for key in keys}) + "\n"


@settings(max_examples=500, deadline=None)
@given(profile_lines())
def test_profile_reader_agrees_with_the_field_by_field_check(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.jsonl"
        path.write_text(line, encoding="utf-8")
        outcomes = []
        for read in (lambda: read_jsonl(path, field_by_field_profile),
                     lambda: read_profiles_jsonl(path)):
            try:
                outcomes.append(read())
            except DataError as exc:
                outcomes.append(str(exc))
    expected, got = outcomes
    assert got == expected
    if isinstance(got, list):
        (profile,) = got
        assert profile._asdict() == expected[0]._asdict()
        assert [type(v) for v in profile] == [type(v) for v in expected[0]]
        assert profile._replace() == profile == CompanyProfile(**profile._asdict())
        assert hash(profile) == hash(expected[0])
        with pytest.raises(AttributeError):
            profile.name = "other"

