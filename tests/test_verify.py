"""Tests for the randomized property audit."""

from lostchance import verify
from lostchance.verify import run_verification

EXPECTED_PROPERTIES = {
    "coupling-marginals",
    "comonotone-transport-optimal",
    "comonotone-monotone-support",
    "independence-zero-covariance",
    "clamped-gap-risk-optimal",
    "fair-mean-constrained-optimal",
    "clamped-dominates-fair-mean",
    "payout-curve-shape",
    "two-block-fair-mean-closed-form",
    "block-gap-aggregation",
    "choice-result-independence",
    "presumption-behavior",
    "mitigation-clamp",
}


class TestRunVerification:
    def test_all_properties_pass(self):
        report = run_verification(seed=0, instances=80)
        assert report.passed
        assert {r.name for r in report.results} == EXPECTED_PROPERTIES
        for r in report.results:
            assert r.checked > 0
            assert r.failed == 0

    def test_other_seed_passes_too(self):
        assert run_verification(seed=7, instances=40).passed

    def test_injected_fault_is_caught(self):
        report = run_verification(seed=0, instances=40, lambda_offset=0.1)
        assert not report.passed
        bad = {r.name for r in report.results if not r.passed}
        # The offset corrupts only the harness's own fair-mean root.
        assert bad == {"fair-mean-constrained-optimal"}

    def test_render_is_deterministic(self):
        a = run_verification(seed=3, instances=30)
        b = run_verification(seed=3, instances=30)
        assert a.render() == b.render()
        text = a.render()
        assert text.startswith("verification report (seed=3, instances=30)")
        assert text.rstrip().endswith("overall: PASS (13 properties)")
        assert text.count("  PASS ") == 13

    def test_render_mentions_injection(self):
        report = run_verification(seed=0, instances=20, lambda_offset=0.05)
        assert "lambda_offset=0.05" in report.render()
        assert "overall: FAIL" in report.render()

    def test_a_suite_that_skipped_every_instance_draws_on(self):
        # Seed 4's three instances give the two-block closed form nothing
        # to check; it draws more from its own stream until it has.
        report = run_verification(seed=4, instances=3)
        closed_form = {r.name: r for r in report.results}[
            "two-block-fair-mean-closed-form"
        ]
        assert closed_form.checked > 0 and closed_form.failed == 0
        assert report.passed
        assert report.render().startswith("verification report (seed=4, instances=3)")

    def test_an_unexercised_fair_mean_suite_fails(self, monkeypatch):
        # With no draws past the requested one, seed 0 never meets a
        # positive mean gap, and an unexercised property is not a PASS.
        monkeypatch.setattr(verify, "MAX_EXTRA_INSTANCES", 0)
        report = run_verification(seed=0, instances=1)
        fair_mean = {r.name: r for r in report.results}[
            "fair-mean-constrained-optimal"
        ]
        assert fair_mean.failures == ["no instance produced a positive mean gap"]
        assert not report.passed
