"""Shared fixtures: the pinned golden profile and small store builders."""

from datetime import date
from pathlib import Path

import pytest

from ventureval.features import CompanyProfile
from ventureval.ingest import (
    AcquisitionRow,
    FundingRoundRow,
    InvestmentRow,
    IpoRow,
    JobRow,
    OrganizationRow,
    build_store,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG_DIR = Path(__file__).parent.parent / "configs"

# JSON nested deeper than the decoder's recursion limit on any supported
# Python; too deep for json.dumps too, so tests splice it in as text.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# Pinned fixture behind the prompt golden files. Do not edit casually:
# changing any field invalidates tests/golden/*.
GOLDEN_PROFILE = CompanyProfile(
    org_id="org_fixture",
    name="Acme Analytics",
    description=(
        "Acme Analytics builds cloud-based accounting automation for small "
        "firms. The team recently completed an acquisition of a smaller rival."
    ),
    age_years=5.0031,
    total_raised_usd=3500000.0,
    num_funding_rounds=2,
    num_investors=2,
    num_acquisitions_made=1,
    num_executives=3,
    had_ipo=1,
    was_acquired=0,
    success=1,
    age_imputed=0,
    raised_imputed=0,
)


@pytest.fixture
def golden_profile():
    return GOLDEN_PROFILE


@pytest.fixture
def small_store():
    """One funded org, one acquirer, one untouched org."""
    orgs = [
        OrganizationRow("c1", "Acme", "AI tools", date(2020, 6, 11), date(2020, 6, 11)),
        OrganizationRow("c2", "Buyer Corp", "", date(2015, 1, 1), None),
        OrganizationRow("c3", "Quiet Co", "", None, None),
    ]
    rounds = [
        FundingRoundRow("r1", "c1", date(2021, 1, 1), 1_000_000.0),
        FundingRoundRow("r2", "c1", date(2022, 1, 1), 2_500_000.0),
    ]
    investments = [
        InvestmentRow("r1", "invA"),
        InvestmentRow("r2", "invA"),
        InvestmentRow("r2", "invB"),
    ]
    ipos = [IpoRow("c1", date(2024, 5, 1))]
    acquisitions = [
        AcquisitionRow("x-external", "c2", date(2023, 1, 1)),
        AcquisitionRow("y-external", "c2", date(2023, 6, 1)),
    ]
    jobs = [
        JobRow("c1", "p1", "CEO"),
        JobRow("c1", "p2", "VP of Engineering"),
        JobRow("c1", "p3", "Software Engineer"),
    ]
    return build_store(orgs, rounds, investments, ipos, acquisitions, jobs)
