"""Unit tests for the claims-as-code verification battery."""

import pytest

from repro.experiments.claims import (
    Claim,
    PAPER_CLAIMS,
    verify_claims,
)


def test_every_paper_claim_reproduces():
    """The headline assertion of the whole repository."""
    report = verify_claims(repetitions=6, seed=42, quality_samples=500)
    failed = [claim.id for claim, ok in report.outcomes if not ok]
    assert report.all_pass, f"claims failed: {failed}"
    assert report.passed == len(PAPER_CLAIMS)


@pytest.mark.parametrize("seed", (7, 99, 2026))
def test_claims_hold_across_seeds(seed):
    """The narrative must not depend on a lucky seed."""
    report = verify_claims(repetitions=4, seed=seed, quality_samples=300)
    failed = [claim.id for claim, ok in report.outcomes if not ok]
    assert report.all_pass, f"seed {seed}: {failed}"


def test_claim_battery_covers_the_narrative():
    ids = {claim.id for claim in PAPER_CLAIMS}
    assert len(ids) == len(PAPER_CLAIMS) >= 8  # unique, comprehensive
    for claim in PAPER_CLAIMS:
        assert claim.text


def test_report_table_renders_verdicts():
    report = verify_claims(
        repetitions=2,
        seed=1,
        quality_samples=100,
        claims=PAPER_CLAIMS[:2],
    )
    text = report.table().render()
    assert "PASS" in text or "FAIL" in text
    assert PAPER_CLAIMS[0].id in text


def test_failing_claim_reported():
    impossible = Claim("never", "water flows uphill", lambda evidence: False)
    report = verify_claims(
        repetitions=2, seed=1, quality_samples=100, claims=(impossible,)
    )
    assert not report.all_pass
    assert report.passed == 0
    assert "FAIL" in report.table().render()


def test_evidence_is_cached_across_claims():
    """Claims sharing a panel must not re-run it (keeps the battery fast)."""
    calls = []

    def probe(evidence):
        result = evidence.result("line", 1e6)
        calls.append(id(result))
        return True

    claims = (Claim("a", "a", probe), Claim("b", "b", probe))
    verify_claims(repetitions=2, seed=1, quality_samples=100, claims=claims)
    assert len(set(calls)) == 1


def test_cli_claims_command(capsys):
    from repro.cli import main

    code = main(["claims", "--repetitions", "4", "--seed", "42"])
    out = capsys.readouterr().out
    assert "reproduction verdicts" in out
    assert code == 0
