"""Tests for the randomized property audit."""

import multiprocessing
import os
import time

import pytest

from lostchance import verify
from lostchance.cli import main
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

    def test_the_schedule_suites_audit_what_evaluate_prints(self, monkeypatch):
        # Shift the payouts only where the policy grid reads them: the
        # harness keeps its own bindings, so only the schedules
        # `evaluate_grid` returns move.
        import lostchance.valuation as valuation

        for name in ("cc_indemnity", "fm_indemnity"):
            original = getattr(valuation, name)
            monkeypatch.setattr(valuation, name, lambda *a, _f=original: _f(*a) + 0.5)
        report = run_verification(seed=0, instances=20)
        bad = {r.name for r in report.results if not r.passed}
        assert bad == {"clamped-gap-risk-optimal", "fair-mean-constrained-optimal"}
        fair_mean = {r.name: r for r in report.results}["fair-mean-constrained-optimal"]
        assert "differs from the evaluated fm-i schedule" in fair_mean.failures[0]

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


@pytest.mark.parametrize(
    "name", ["clamped-gap-risk-optimal", "fair-mean-constrained-optimal"]
)
def test_a_schedule_suite_instance_makes_one_pass_of_each_stage(monkeypatch, name):
    # The suite prices the same build whose tables it audits, so one
    # instance takes one groups pass and one gap pass.  Seed 1's first
    # instance exercises both suites, so neither draws on.
    import lostchance.valuation as valuation

    passes = []
    for stage in (valuation.SelectiveGroups, valuation.GapStack):
        init = stage.__init__

        def counted(obj, *args, _init=init, _stage=stage.__name__):
            passes.append(_stage)
            _init(obj, *args)

        monkeypatch.setattr(stage, "__init__", counted)
    (suite,) = [s for s in verify._suites(1, 0.0) if s[1] == name]
    res = verify._run_suite(1, *suite)
    assert res.passed
    assert sorted(passes) == ["GapStack", "SelectiveGroups"]


def _in_a_worker(monkeypatch, name, act):
    """Run the audit on two workers, with `act()` run first wherever a
    worker runs suite `name`."""
    parent = os.getpid()
    run_suite = verify._run_suite

    def run(seed, stream, suite, *rest):
        if os.getpid() != parent and suite == name:
            act()
        return run_suite(seed, stream, suite, *rest)

    monkeypatch.setattr(verify, "_run_suite", run)
    monkeypatch.setattr(verify, "_worker_count", lambda: 2)


def _append_line(path, text):
    """Append one line to `path` in one write, so lines from several
    processes do not interleave."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{text}\n".encode())
    finally:
        os.close(fd)


# The suite handed out last, so the worker reaches it.
LAST_SUITE = "comonotone-monotone-support"


class TestParallelRunner:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 0, "instances": 20},
            {"seed": 4, "instances": 3},
            {"seed": 107, "instances": 25},
            {"seed": 0, "instances": 30, "lambda_offset": 0.1},
        ],
        ids=["seed0", "seed4-draws-on", "seed107", "injected"],
    )
    def test_one_worker_and_several_render_the_same_bytes(self, monkeypatch, kwargs):
        renders = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(verify, "_worker_count", lambda: workers)
            renders[workers] = run_verification(**kwargs).render()
        assert renders[2] == renders[1]
        assert renders[3] == renders[1]
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cpus_run_each_suite_once(self, monkeypatch, tmp_path):
        # A lost update of the shared counter would run a suite twice, or
        # leave it to this process after the workers are done.
        ran = tmp_path / "ran"
        run_suite = verify._run_suite

        def run(seed, stream, *rest):
            _append_line(ran, str(stream))
            return run_suite(seed, stream, *rest)

        monkeypatch.setattr(verify, "_run_suite", run)
        monkeypatch.setattr(verify, "_worker_count", lambda: 6)
        for seed in range(3):
            ran.unlink(missing_ok=True)
            assert run_verification(seed=seed, instances=2).passed
            assert sorted(map(int, ran.read_text().split())) == list(range(13))
        assert multiprocessing.active_children() == []

    def test_workers_see_patched_module_globals(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_EXTRA_INSTANCES", 0)
        monkeypatch.setattr(verify, "_worker_count", lambda: 3)
        report = run_verification(seed=0, instances=1)
        fair_mean = {r.name: r for r in report.results}[
            "fair-mean-constrained-optimal"
        ]
        assert fair_mean.failures == ["no instance produced a positive mean gap"]

    def test_a_suite_raising_in_a_worker_raises_here(self, monkeypatch):
        def fail():
            raise ValueError(f"suite failed in process {os.getpid()}")

        _in_a_worker(monkeypatch, LAST_SUITE, fail)
        with pytest.raises(ValueError, match="suite failed in process") as exc:
            run_verification(seed=0, instances=5)
        assert str(os.getpid()) not in str(exc.value)
        assert multiprocessing.active_children() == []

    def test_cli_lists_a_worker_error_and_leaves_no_child(self, monkeypatch, capsys):
        def fail():
            raise ValueError("suite failed")

        _in_a_worker(monkeypatch, LAST_SUITE, fail)
        assert main(["verify", "--seed", "0", "--instances", "5"]) == 2
        assert capsys.readouterr().err == "error: suite failed\n"
        assert multiprocessing.active_children() == []

    def test_a_suite_raising_first_cancels_later_suites(self, monkeypatch, tmp_path):
        # The heaviest suite raises at once; each other one takes long
        # enough that the suites still queued are cancelled first.
        ran = tmp_path / "ran"
        first = verify._suites(5, 0.0)[0][1]
        run_suite = verify._run_suite

        def run(seed, stream, name, *rest):
            _append_line(ran, name)
            if name == first:
                raise ValueError("the first suite failed")
            time.sleep(0.05)
            return run_suite(seed, stream, name, *rest)

        monkeypatch.setattr(verify, "_run_suite", run)
        monkeypatch.setattr(verify, "_worker_count", lambda: 2)
        with pytest.raises(ValueError, match="the first suite failed"):
            run_verification(seed=0, instances=5)
        assert first in ran.read_text().split()
        assert len(ran.read_text().split()) < 13
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_suite_runs_in_this_process(self, monkeypatch, tmp_path, workers):
        ran = tmp_path / "ran"
        run_suite = verify._run_suite

        def run(*args):
            _append_line(ran, str(os.getpid()))
            return run_suite(*args)

        monkeypatch.setattr(verify, "_run_suite", run)
        monkeypatch.setattr(verify, "_worker_count", lambda: workers)
        assert run_verification(seed=0, instances=2).passed
        pids = ran.read_text().split()
        assert len(pids) == 13
        assert str(os.getpid()) not in pids
        assert multiprocessing.active_children() == []

    def test_suites_of_a_worker_that_dies_run_here(self, monkeypatch):
        monkeypatch.setattr(verify, "_worker_count", lambda: 1)
        serial = run_verification(seed=0, instances=5).render()
        _in_a_worker(monkeypatch, LAST_SUITE, lambda: os._exit(3))
        assert run_verification(seed=0, instances=5).render() == serial
        assert multiprocessing.active_children() == []
