from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from sphertet import cyclotomic, families, trigpoly
from sphertet.families import builtin_families, verify_domain
from sphertet.search import SearchConfig, run_sporadic_search

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def sporadic_report():
    """The full default search, shared across the suite (it is the
    expensive fixture; everything downstream reuses it)."""
    return run_sporadic_search(SearchConfig())


@pytest.fixture(scope="session")
def domain_certificates():
    """Domain certificates for all 42 families, keyed by family id."""
    return {fam.family_id: verify_domain(fam) for fam in builtin_families()}


@pytest.fixture
def narrow_slots(monkeypatch):
    """Reduction tables rebuilt with 8-bit digits where their entries
    allow it and with no headroom (_SLOT_TERMS = 1), so that a sum of
    more than a row or two fails the packed bound and is summed unpacked
    in Python ints.  The tables are rebuilt again afterwards."""
    monkeypatch.setattr(cyclotomic, "_SLOT_WIDTHS", (8, 16, 32, 64))
    monkeypatch.setattr(cyclotomic, "_SLOT_TERMS", 1)
    cyclotomic._order_data.cache_clear()
    yield
    cyclotomic._order_data.cache_clear()


def clear_proof_memos() -> None:
    """Forget every positivity and product witness and every residual
    zero test proved so far."""
    trigpoly._proved_positive.cache_clear()
    families._proved_product.cache_clear()
    families._residual_vanishes.cache_clear()


@pytest.fixture
def cold_proofs():
    """The proof memos of verify_domain and verify_identity emptied
    before and after the test, so that it runs every proof itself (not
    reusing the witnesses of domain_certificates) and leaves none proved
    under its patches.  It yields the function that empties them, for
    use mid-test."""
    clear_proof_memos()
    yield clear_proof_memos
    clear_proof_memos()
