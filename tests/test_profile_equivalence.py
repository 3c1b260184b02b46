"""One pass per table against the indexed store it replaced.

The references below are the previous store and derivation, kept verbatim
apart from names: ``build_store`` indexed every relation by its foreign key
into dict-of-lists lookups, and each profile was derived by looking its
organization up in them. The current ``derive_profiles`` must give equal
profiles and anomalies, and the current ``build_store`` the same
``integrity``, on stores with dangling keys, duplicate organization rows,
round ids shared by two organizations, missing amounts and dates, and
future founding dates.
"""

import json
import re
from dataclasses import dataclass, field
from datetime import date

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ventureval.errors import DataError
from ventureval.features import EXECUTIVE_TITLE_KEYWORDS, CompanyProfile, compute_age, derive_profiles
from ventureval.ingest import (
    TABLE_KINDS,
    AcquisitionRow,
    FundingRoundRow,
    InvestmentRow,
    IpoRow,
    JobRow,
    OrganizationRow,
    build_store,
)

REF = date(2025, 6, 11)


@dataclass
class ReferenceStore:
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


def reference_build_store(organizations, funding_rounds=(), investments=(), ipos=(),
                          acquisitions=(), jobs=()):
    store = ReferenceStore(
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
        "row_counts": {kind: len(getattr(store, kind)) for kind in TABLE_KINDS},
    }
    return store


def reference_executive_pattern(keywords):
    alternatives = "|".join(re.escape(k) for k in keywords)
    return re.compile(rf"\b(?:{alternatives})\b", re.IGNORECASE)


def reference_derive_profile(org, store, reference_date):
    date_source = org.founded_on if org.founded_on is not None else org.created_at
    age = compute_age(date_source, reference_date)

    rounds = store.rounds_by_org(org.org_id)
    amounts = [r.raised_usd for r in rounds if r.raised_usd is not None]
    total_raised = float(sum(amounts))

    investor_ids = set()
    for r in rounds:
        for inv in store.investments_by_round(r.round_id):
            investor_ids.add(inv.investor_id)

    pattern = reference_executive_pattern(EXECUTIVE_TITLE_KEYWORDS)
    num_execs = sum(1 for job in store.jobs_by_org(org.org_id) if pattern.search(job.title))

    had_ipo = 1 if store.ipos_by_org(org.org_id) else 0
    was_acquired = 1 if store.acquisitions_of(org.org_id) else 0

    return CompanyProfile(
        org_id=org.org_id,
        name=org.name,
        description=org.description,
        age_years=age,
        total_raised_usd=total_raised,
        num_funding_rounds=len(rounds),
        num_investors=len(investor_ids),
        num_acquisitions_made=len(store.acquisitions_made_by(org.org_id)),
        num_executives=num_execs,
        had_ipo=had_ipo,
        was_acquired=was_acquired,
        success=1 if (had_ipo or was_acquired) else 0,
        age_imputed=1 if date_source is None else 0,
        raised_imputed=1 if (rounds and not amounts) else 0,
    )


def reference_derive_profiles(store, reference_date):
    profiles, anomalies = [], []
    for org in store.organizations:
        try:
            profiles.append(reference_derive_profile(org, store, reference_date))
        except DataError as exc:
            anomalies.append((org.org_id, str(exc)))
    return profiles, anomalies


# Few ids, so keys collide: duplicate organization rows, round ids shared by
# two organizations, and references that dangle.
ORG_IDS = st.sampled_from([f"c{i}" for i in range(6)])
ROUND_IDS = st.sampled_from([f"r{i}" for i in range(8)])
PEOPLE = st.sampled_from([f"p{i}" for i in range(5)])
# Around REF, so some founding dates lie in its future.
DATES = st.none() | st.dates(date(2015, 1, 1), date(2030, 12, 31))
# Amounts whose float sum depends on the order they are added in.
AMOUNTS = st.none() | st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 3.3, 1e16, 123456.789]) | st.floats(
    min_value=0, max_value=1e12, allow_nan=False
)
TITLES = st.sampled_from(
    ["CEO", "svp", "SVP of Operations", "Vice President", "vice president, sales", "Senior VP",
     "Co-Founder", "Software Engineer", "Chief of Staff", "presidential aide", ""]
) | st.text(max_size=12)

STORES = st.fixed_dictionaries(
    {
        "organizations": st.lists(
            st.builds(OrganizationRow, ORG_IDS, st.text(max_size=4), st.text(max_size=4), DATES, DATES),
            max_size=8,
        ),
        "funding_rounds": st.lists(st.builds(FundingRoundRow, ROUND_IDS, ORG_IDS, DATES, AMOUNTS),
                                   max_size=12),
        "investments": st.lists(st.builds(InvestmentRow, ROUND_IDS, PEOPLE), max_size=16),
        "ipos": st.lists(st.builds(IpoRow, ORG_IDS, DATES), max_size=4),
        "acquisitions": st.lists(st.builds(AcquisitionRow, ORG_IDS, ORG_IDS, DATES), max_size=6),
        "jobs": st.lists(st.builds(JobRow, ORG_IDS, PEOPLE, TITLES), max_size=12),
    }
)


def org(org_id):
    return OrganizationRow(org_id, org_id, "", None, None)


# Summed in row order, 1e16 absorbs each 1.0; in any other order it does not.
ORDER_SENSITIVE = {
    "organizations": [org("c1")],
    "funding_rounds": [FundingRoundRow(f"r{i}", "c1", None, a) for i, a in enumerate([1e16, 1.0, 1.0])],
    "investments": [], "ipos": [], "acquisitions": [], "jobs": [],
}


@settings(max_examples=400, deadline=None)
@given(tables=STORES)
@example(tables=ORDER_SENSITIVE)
def test_one_pass_derivation_matches_the_indexed_store(tables):
    reference = reference_build_store(**tables)
    store = build_store(**tables)
    assert store.integrity == reference.integrity
    assert json.dumps(store.integrity) == json.dumps(reference.integrity)

    expected = reference_derive_profiles(reference, REF)
    got = derive_profiles(store, REF)
    assert got == expected
    # Equal floats can still differ in sign or repr; compare the bytes written.
    assert [json.dumps(p._asdict()) for p in got[0]] == [json.dumps(p._asdict()) for p in expected[0]]


def test_shared_round_id_counts_investors_for_both_orgs():
    orgs = [org("c1"), org("c2")]
    rounds = [FundingRoundRow("r1", "c1", None, 0.1), FundingRoundRow("r1", "c2", None, None)]
    investments = [InvestmentRow("r1", "i1"), InvestmentRow("r1", "i2"), InvestmentRow("r9", "i3")]
    profiles, _ = derive_profiles(build_store(orgs, rounds, investments), REF)
    assert [p.num_investors for p in profiles] == [2, 2]
    assert [p.raised_imputed for p in profiles] == [0, 1]
