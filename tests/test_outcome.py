import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from lostchance.outcome import (
    CaseModel,
    CaseValidationError,
    CurveMoneyMap,
    DiscreteDistribution,
    IdentityMoneyMap,
    OutcomeSpace,
    TabulatedMoneyMap,
    UtilityCurve,
    award_from_compensation,
    validate_case,
)


def make_case(**overrides):
    base = dict(
        space=OutcomeSpace(("bad", "good"), (0.0, 1.0)),
        counterfactual=DiscreteDistribution((0.05, 0.95)),
        factual=DiscreteDistribution((0.10, 0.90)),
        money=IdentityMoneyMap(),
        factual_observed=0,
    )
    base.update(overrides)
    return CaseModel(**base)


class TestUtilityCurve:
    def test_risk_neutral_is_money_minus_one(self):
        curve = UtilityCurve(0.0)
        assert curve.value(100.0) == 99.0
        assert curve.money(99.0) == 100.0

    def test_log_branch_at_theta_one(self):
        curve = UtilityCurve(1.0)
        assert curve.value(math.e) == pytest.approx(1.0, rel=1e-12)
        assert curve.money(1.0) == pytest.approx(math.e, rel=1e-12)
        assert curve.value(1.0) == 0.0

    def test_interior_theta_half(self):
        # (1 - 10000^0.5) / (0.5 - 1) = 198
        curve = UtilityCurve(0.5)
        assert curve.value(10_000.0) == pytest.approx(198.0, rel=1e-12)
        assert curve.money(198.0) == pytest.approx(10_000.0, rel=1e-12)

    def test_a_refused_numpy_scalar_is_named_as_a_float(self):
        with pytest.raises(ValueError, match=r"^value must be finite, got inf$"):
            UtilityCurve(0.5).money(np.float64("inf"))

    def test_value_at_one_is_zero_for_every_theta(self):
        for theta in np.linspace(0.0, 1.0, 21):
            assert UtilityCurve(float(theta)).value(1.0) == 0.0

    def test_monotone_in_money(self):
        monies = np.logspace(0.0, 7.0, 29)
        for theta in np.linspace(0.0, 1.0, 21):
            curve = UtilityCurve(float(theta))
            vals = [curve.value(float(m)) for m in monies]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_round_trip_across_theta_grid(self):
        monies = np.logspace(0.0, 7.0, 29)
        for theta in np.linspace(0.0, 1.0, 21):
            curve = UtilityCurve(float(theta))
            for m in monies:
                back = curve.money(curve.value(float(m)))
                assert back == pytest.approx(float(m), rel=1e-10)

    def test_near_one_theta_approaches_log(self):
        # With theta = 1 - eps the value is log(m) + eps*log(m)^2/2 to
        # leading order.  The raw gap stays under 1e-4 for money up to
        # 1e6; beyond that only the quadratic estimate is honest, so the
        # tail is checked against it instead of a flat constant.
        eps = 1e-6
        curve = UtilityCurve(1.0 - eps)
        for m in np.logspace(0.0, 6.0, 25):
            assert abs(curve.value(float(m)) - math.log(m)) < 1e-4
        for m in np.logspace(0.0, 7.0, 29):
            gap = curve.value(float(m)) - math.log(m)
            quad = 0.5 * eps * math.log(m) ** 2
            assert 0.0 <= gap <= 1.02 * quad + 1e-12

    def test_theta_outside_unit_interval_rejected(self):
        for bad in (-0.1, 1.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                UtilityCurve(bad)

    def test_rejected_theta_is_named_as_a_float(self):
        with pytest.raises(ValueError, match=r"got 2\.0$"):
            UtilityCurve(np.float64(2.0))

    def test_nonpositive_money_rejected(self):
        curve = UtilityCurve(0.5)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                curve.value(bad)

    def test_inverse_domain_errors(self):
        with pytest.raises(ValueError):
            UtilityCurve(0.5).money(-2.5)  # 1 + v*eps <= 0
        with pytest.raises(ValueError):
            UtilityCurve(0.0).money(-1.0)
        # the log branch accepts any finite value
        assert UtilityCurve(1.0).money(-50.0) > 0.0

    @given(
        theta=st.floats(0.0, 1.0),
        money=st.floats(1e-3, 1e9),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, theta, money):
        curve = UtilityCurve(theta)
        assert curve.money(curve.value(money)) == pytest.approx(money, rel=1e-9)


class TestMoneyMaps:
    def test_identity(self):
        m = IdentityMoneyMap()
        assert m.to_money(12.5) == 12.5
        assert m.spec() == {"kind": "identity"}

    def test_curve_map_inverts_curve(self):
        m = CurveMoneyMap(UtilityCurve(1.0))
        assert m.to_money(0.0) == pytest.approx(1.0)
        assert m.spec() == {"kind": "crra", "theta": 1.0}

    def test_tabulated_interpolates(self):
        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0), (2.0, 40.0)))
        assert m.to_money(0.5) == pytest.approx(5.0)
        assert m.to_money(1.5) == pytest.approx(25.0)
        assert m.to_money(2.0) == 40.0

    def test_tabulated_rejects_outside_domain(self):
        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0)))
        with pytest.raises(ValueError):
            m.to_money(-0.1)
        with pytest.raises(ValueError):
            m.to_money(1.1)

    def test_tabulated_needs_increasing_knots(self):
        with pytest.raises(ValueError):
            TabulatedMoneyMap(((0.0, 0.0),))
        with pytest.raises(ValueError):
            TabulatedMoneyMap(((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            TabulatedMoneyMap(((1.0, 0.0), (0.0, 1.0)))


class TestAwardFromCompensation:
    def test_identity_award_is_compensation(self):
        assert award_from_compensation(IdentityMoneyMap(), 7.0, 3.0) == 3.0

    def test_zero_compensation_zero_award(self):
        m = CurveMoneyMap(UtilityCurve(0.7))
        assert award_from_compensation(m, 2.0, 0.0) == 0.0

    def test_negative_or_nonfinite_compensation_rejected(self):
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                award_from_compensation(IdentityMoneyMap(), 0.0, bad)

    def test_risk_averse_award_exceeds_value_gap(self):
        # Concave value curve means the money needed to buy a fixed value
        # lift grows with the starting position.
        curve = UtilityCurve(1.0)
        m = CurveMoneyMap(curve)
        low = award_from_compensation(m, curve.value(10.0), 1.0)
        high = award_from_compensation(m, curve.value(1000.0), 1.0)
        assert high > low

    def test_table_extrapolates_past_last_point(self):
        # The end segment runs from (1, 10) to (2, 40): 30 money per value.
        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0), (2.0, 40.0)))
        assert award_from_compensation(m, 1.5, 1.5) == pytest.approx(70.0 - 25.0)
        assert award_from_compensation(m, 2.0, 0.5) == pytest.approx(15.0)
        # The map itself stays strict.
        with pytest.raises(ValueError):
            m.to_money(3.0)

    def test_table_awards_inside_unchanged(self):
        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0), (2.0, 40.0)))
        for v1, x in ((0.0, 2.0), (0.3, 1.1), (1.5, 0.5), (2.0, 0.0)):
            want = m.to_money(v1 + x) - m.to_money(v1)
            assert award_from_compensation(m, v1, x) == want

    def test_table_start_below_domain_still_rejected(self):
        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0)))
        with pytest.raises(ValueError):
            award_from_compensation(m, -0.5, 2.0)


class TestAwardsBeyondFloatRange:
    """A non-finite award is refused, never returned."""

    def test_table_spanning_more_than_a_float_rejected(self):
        with pytest.raises(ValueError, match="slope beyond a float's range"):
            TabulatedMoneyMap(((0.0, -1e308), (10.0, 1e308)))
        with pytest.raises(ValueError, match="slope beyond a float's range"):
            TabulatedMoneyMap(((0.0, 0.0), (1e-300, 1e10)))
        with pytest.raises(ValueError, match="spans more than a float holds"):
            TabulatedMoneyMap(((0.0, -1e308), (1.0, 0.0), (2.0, 1e308)))
        with pytest.raises(ValueError, match="spans more than a float holds"):
            TabulatedMoneyMap(((-1e308, 0.0), (0.0, 1.0), (1e308, 2.0)))

    def test_curve_money_past_float_range_is_a_value_error(self):
        for theta, value in ((0.99, 1e6), (1.0, 710.0)):
            with pytest.raises(ValueError, match="more money than a float holds"):
                UtilityCurve(theta).money(value)
            with pytest.raises(ValueError, match="more money than a float holds"):
                award_from_compensation(CurveMoneyMap(UtilityCurve(theta)), 0.0, value)

    def test_overflowing_award_is_refused(self):
        m = IdentityMoneyMap()
        with pytest.raises(ValueError, match="not a finite amount of money"):
            award_from_compensation(m, 1e308, 1e308)
        # The table's end segment extrapolates past a float's range.
        table = TabulatedMoneyMap(((0.0, 0.0), (1.0, 1e300)))
        with pytest.raises(ValueError, match="not a finite amount of money"):
            award_from_compensation(table, 1.0, 1e10)
        for size in (2, 40):
            v1, x = np.full(size, 0.5), np.full(size, 0.1)
            x[1] = 1e10
            with pytest.raises(ValueError, match="not a finite amount of money"):
                award_from_compensation(table, v1, x)


class TestAwardArrays:
    """One call over a schedule's arrays, bit for bit as the calls per outcome."""

    MAPS = [
        IdentityMoneyMap(),
        CurveMoneyMap(UtilityCurve(0.0)),
        CurveMoneyMap(UtilityCurve(0.37)),
        CurveMoneyMap(UtilityCurve(1.0)),
        TabulatedMoneyMap(((-1.0, 2.0), (3.0, 7.5), (6.0, 8.0))),
    ]

    @pytest.mark.parametrize(
        "money", MAPS, ids=["identity", "theta0", "theta0.37", "theta1", "table"]
    )
    def test_matches_the_calls_per_outcome(self, money):
        rng = np.random.default_rng(3)
        for size in (2000, *range(1, 32)):
            v1 = rng.uniform(-1.0, 6.0, size=size)
            x = np.where(rng.random(size) < 0.2, 0.0, rng.uniform(0.0, 4.0, size=size))
            got = award_from_compensation(money, v1, x)
            want = [ref.award(money, a, b) for a, b in zip(v1.tolist(), x.tolist())]
            assert got.tolist() == want, size

    @pytest.mark.parametrize("size", [3, 31, 40])
    def test_raises_the_first_failing_outcomes_error(self, size):
        def arrays(*head):
            # The failing outcomes first, then good ones up to `size`.
            return np.concatenate((head, np.full(size - len(head), 0.5)))

        m = TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0)))
        v1 = arrays(0.5, -0.5, -0.7)
        # The lifted value is priced before the factual one.
        with pytest.raises(ValueError, match=r"value -0\.4 outside"):
            award_from_compensation(m, v1, arrays(0.0, 0.1, 0.0))
        with pytest.raises(ValueError, match="got -1.0"):
            award_from_compensation(m, v1, arrays(0.0, -1.0, 0.0))
        with pytest.raises(ValueError, match="got nan"):
            award_from_compensation(IdentityMoneyMap(), v1, arrays(0.0, np.nan))
        curve = CurveMoneyMap(UtilityCurve(0.5))
        with pytest.raises(ValueError, match=r"value -2\.5 lies outside"):
            award_from_compensation(curve, arrays(1.0, -3.0), arrays(0.0, 0.5))
        with pytest.raises(ValueError, match="more money than a float holds"):
            award_from_compensation(curve, arrays(1.0, 1e160), arrays(0.0, 0.0))

    @pytest.mark.parametrize("bad_at", [0, 1, 1500, 2998, 2999])
    def test_a_long_failing_array_replays_one_outcome(self, monkeypatch, bad_at):
        import lostchance.outcome as outcome

        calls = []
        awards = outcome._awards

        def counted(money, v1, x):
            calls.append((float(v1[0]), v1.size))
            return awards(money, v1, x)

        monkeypatch.setattr(outcome, "_awards", counted)
        curve = CurveMoneyMap(UtilityCurve(0.5))
        # Every outcome from `bad_at` on is refused; the first names the error.
        v1 = np.full(3000, 1.0)
        v1[bad_at:] = -3.0 - np.arange(3000 - bad_at)
        with pytest.raises(ValueError, match=r"value -2\.5 lies outside"):
            award_from_compensation(curve, v1, np.full(3000, 0.5))
        # The whole array, then a bisect over prefixes of distinct lengths,
        # then the first refused outcome alone, once.
        *prefixes, last = calls
        assert prefixes[0] == (v1[0], 3000)
        assert {first for first, _ in prefixes} == {v1[0]}
        assert len({size for _, size in prefixes}) == len(prefixes) <= 13
        assert last == (-3.0, 1)


# Refused outcomes (v1, x) of each money kind, each with a fragment of the
# message it gets: compensation, then the lifted value, then the factual
# value, then the award.
NAN, INF = math.nan, math.inf
BAD_COMPENSATION = [
    (0.0, -1.0, "got -1.0"),
    (0.0, NAN, "got nan"),
    (0.0, INF, "got inf"),
]
REFUSALS = {
    "identity": (
        IdentityMoneyMap(),
        [
            (1e308, 1e308, "lifting value 1e+308 by 1e+308 is not a finite"),
            (INF, 0.0, "lifting value inf by 0.0 is not a finite"),
            (NAN, 0.0, "lifting value nan by 0.0 is not a finite"),
        ],
    ),
    "theta0": (
        CurveMoneyMap(UtilityCurve(0.0)),
        [
            (-3.0, 0.5, "value -2.5 lies outside"),
            (-1.5, 1.0, "value -1.5 lies outside"),
            (1e308, 1e308, "value must be finite, got inf"),
            (NAN, 0.0, "value must be finite, got nan"),
        ],
    ),
    "theta0.37": (
        CurveMoneyMap(UtilityCurve(0.37)),
        [
            (-3.0, 0.5, "value -2.5 lies outside"),
            (-2.0, 1.0, "value -2.0 lies outside"),
            (1.0, 1e200, "value 1e+200 needs more money than a float"),
            (1e308, 1e308, "value must be finite, got inf"),
        ],
    ),
    "theta1": (
        CurveMoneyMap(UtilityCurve(1.0)),
        [
            (0.0, 710.0, "value 710.0 needs more money than a float"),
            (1e308, 1e308, "value must be finite, got inf"),
            (NAN, 0.0, "value must be finite, got nan"),
        ],
    ),
    # The end segment is steep enough to extrapolate past a float's range.
    "table": (
        TabulatedMoneyMap(((-1.0, 2.0), (3.0, 7.5), (6.0, 1e300))),
        [
            (-3.0, 1.0, "value -2.0 outside tabulated domain"),
            (-1.5, 1.0, "value -1.5 outside tabulated domain"),
            (7.0, 1.0, "value 7.0 outside tabulated domain"),
            (1e308, 1e308, "value 1e+308 outside tabulated domain"),
            (1.0, 1e10, "lifting value 1.0 by 10000000000.0 is not"),
            (NAN, 0.0, "lifting value nan by 0.0 is not a finite"),
        ],
    ),
}


class TestAwardRefusals:
    """A refused outcome gets the per-outcome reference's message, alone
    or anywhere in an array, whatever a later outcome fails."""

    NEGATIVE = r"^compensation must be finite and >= 0, got -1\.0$"

    @pytest.mark.parametrize("kind", REFUSALS)
    def test_every_check_names_the_refused_outcome(self, kind):
        money, refusals = REFUSALS[kind]
        for a, b, fragment in BAD_COMPENSATION + refusals:
            with pytest.raises(ValueError) as want:
                ref.award(money, a, b)
            assert fragment in str(want.value)
            with pytest.raises(ValueError) as got:
                award_from_compensation(money, a, b)
            assert str(got.value) == str(want.value)
            for size in (1, 2, 31, 3000):
                for at in sorted({0, size // 2, size - 1}):
                    v1, x = np.full(size, 0.5), np.full(size, 0.25)
                    v1[at], x[at] = a, b
                    if at < size - 1:
                        x[-1] = -7.0  # refused too, by the first check
                    with pytest.raises(ValueError) as got:
                        award_from_compensation(money, v1, x)
                    assert str(got.value) == str(want.value), (a, b, size, at)

    def test_a_float_stands_for_every_outcome(self):
        m = IdentityMoneyMap()
        with pytest.raises(ValueError, match=self.NEGATIVE):
            award_from_compensation(m, 1.0, np.array([0.0, -1.0]))
        got = award_from_compensation(m, 1.0, np.array([0.0, 2.0]))
        assert got.tolist() == [0.0, 2.0]
        got = award_from_compensation(m, np.array([1.0, 2.0]), 0.5)
        assert got.tolist() == [0.5, 0.5]

    def test_arrays_of_two_lengths_are_refused_by_numpy(self):
        v1, x = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            award_from_compensation(IdentityMoneyMap(), v1, x)

    def test_a_refused_compensation_is_named_as_a_float(self):
        for bad in (np.float64(-1.0), -1, -1.0):
            with pytest.raises(ValueError, match=self.NEGATIVE):
                award_from_compensation(IdentityMoneyMap(), 1.0, bad)

    def test_a_float_pair_gives_a_float(self):
        got = award_from_compensation(CurveMoneyMap(UtilityCurve(0.5)), 1.0, 0.5)
        assert type(got) is float


class TestMoneyOnArrays:
    """`to_money` of an array is the float call of each element, and the
    formula of each map written out here with math's functions."""

    CASES = [
        (IdentityMoneyMap(), lambda v: v, (-50.0, 50.0)),
        (CurveMoneyMap(UtilityCurve(0.0)), lambda v: v + 1.0, (-0.99, 50.0)),
        (
            CurveMoneyMap(UtilityCurve(0.5)),
            lambda v: math.exp(math.log1p(v * 0.5) / 0.5),
            (-1.99, 50.0),
        ),
        (CurveMoneyMap(UtilityCurve(1.0)), math.exp, (-50.0, 50.0)),
    ]

    @pytest.mark.parametrize(
        "money,formula,span", CASES, ids=["identity", "theta0", "theta0.5", "theta1"]
    )
    def test_matches_the_float_calls_and_the_formula(self, money, formula, span):
        values = np.random.default_rng(11).uniform(*span, size=3000)
        self._check(money, formula, values)

    def test_table_matches_the_float_calls_and_the_formula(self):
        # Slope 2 up to value 1, then 1/2, on values a 1/8 apart: every
        # step of the interpolation is exact, in any order of operations.
        table = TabulatedMoneyMap(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))
        values = np.arange(25) / 8.0
        self._check(table, lambda v: 2.0 * v if v <= 1.0 else 2.0 + (v - 1.0) / 2.0, values)

    @staticmethod
    def _check(money, formula, values):
        got = money.to_money(values)
        assert isinstance(got, np.ndarray) and got.shape == values.shape
        floats = [money.to_money(v) for v in values.tolist()]
        assert all(type(m) is float for m in floats)
        assert got.tolist() == floats == [formula(v) for v in values.tolist()]

    @pytest.mark.parametrize(
        "money,values,message",
        [
            (CurveMoneyMap(UtilityCurve(0.5)), [1.0, -3.0, -4.0], "value -3.0 lies outside"),
            (CurveMoneyMap(UtilityCurve(0.0)), [1.0, -1.0], "value -1.0 lies outside"),
            (CurveMoneyMap(UtilityCurve(0.5)), [1.0, 2.0, np.inf], "got inf"),
            (CurveMoneyMap(UtilityCurve(1.0)), [1.0, 800.0, 900.0], "value 800.0 needs more money"),
            (TabulatedMoneyMap(((0.0, 0.0), (1.0, 10.0))), [0.5, 1.5], "value 1.5 outside"),
        ],
        ids=["range", "theta0-range", "finite", "overflow", "table"],
    )
    def test_a_refused_element_is_named(self, money, values, message):
        with pytest.raises(ValueError, match=message):
            money.to_money(np.array(values))


class TestOutcomeSpace:
    def test_index_lookup(self):
        space = OutcomeSpace(("a", "b"), (1.0, 2.0))
        assert space.index("b") == 1
        with pytest.raises(KeyError):
            space.index("c")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OutcomeSpace(("a",), (1.0, 2.0))
        with pytest.raises(ValueError):
            OutcomeSpace((), ())


class TestDiscreteDistribution:
    def test_support_and_mean(self):
        d = DiscreteDistribution((0.25, 0.0, 0.75))
        assert d.support() == (0, 2)
        assert d.mean((1.0, 5.0, 3.0)) == pytest.approx(2.5)

    def test_sum_tolerance_is_tight(self):
        ok = DiscreteDistribution((0.5, 0.5 + 5e-13))
        assert ok.violations("x", 2) == []
        off = DiscreteDistribution((0.5, 0.49))
        msgs = off.violations("x", 2)
        assert len(msgs) == 1 and "sum to" in msgs[0]


class TestValidateCase:
    def test_valid_case_returned_unchanged(self):
        model = make_case()
        assert validate_case(model) is model

    def test_all_violations_reported_together(self):
        model = make_case(
            space=OutcomeSpace(("dup", "dup", ""), (0.0, 1.0, float("nan"))),
            counterfactual=DiscreteDistribution((0.5, 0.49, 0.0)),
            factual=DiscreteDistribution((-0.1, 1.1, 0.0)),
            factual_observed=2,
        )
        with pytest.raises(CaseValidationError) as exc:
            validate_case(model)
        text = "\n".join(exc.value.violations)
        assert "duplicate outcome label" in text
        assert "empty outcome label" in text
        assert "non-finite value" in text
        assert "sum to" in text
        assert "negative" in text
        assert "zero factual probability" in text
        assert len(exc.value.violations) >= 6

    def test_the_error_survives_pickling(self):
        # A worker process sends its exception back by pickle.
        error = CaseValidationError(["a problem", "another"])
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is CaseValidationError
        assert copy.violations == ("a problem", "another")
        assert str(copy) == "a problem; another"

    def test_observed_index_range_checked(self):
        with pytest.raises(CaseValidationError) as exc:
            validate_case(make_case(factual_observed=5))
        assert any("out of range" in v for v in exc.value.violations)

    def test_marginal_length_mismatch(self):
        with pytest.raises(CaseValidationError) as exc:
            validate_case(make_case(factual=DiscreteDistribution((1.0,))))
        assert any("1 weights for 2 outcomes" in v for v in exc.value.violations)

    def test_expected_gap(self):
        model = make_case()
        # E[V0] - E[V1] = 0.95 - 0.90
        assert model.expected_gap() == pytest.approx(0.05, abs=1e-15)
