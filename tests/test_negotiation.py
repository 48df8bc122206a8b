import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bargainlab import negotiation
from bargainlab.core import PerceptionView, Role
from bargainlab.errors import InvalidConfig
from bargainlab.negotiation import (RATE_MAX, Agreement, Breakdown,
                                    ConcessionRates, NegotiationConfig, NegotiationScenario,
                                    SideSpec, concession_rates_from_imbalance,
                                    fixed_point, run, settle, step)
from negotiation_reference import (CYCLING_STALLS, cycle, dynamics, exact_fixed_point, fields,
                                   first_repeat)
from negotiation_reference import run as reference_run

FIG3_RATES = ConcessionRates(0.05, 0.02, 0.3, 0.2)


def fig3_config(**overrides):
    kwargs = dict(buyer_open=2.5, seller_open=4.5, buyer_reserve_adj=5.0,
                  seller_reserve_adj=2.0, rates=FIG3_RATES,
                  gap_epsilon=0.05, max_steps=200)
    kwargs.update(overrides)
    return NegotiationConfig(**kwargs)


# bounded so that r + r' < 1 holds by construction
def rates_strategy():
    return st.builds(
        lambda r_a, f_a, r_b, f_b: ConcessionRates(r_a, f_a * (0.95 - r_a),
                                                   r_b, f_b * (0.95 - r_b)),
        r_a=st.floats(min_value=0.01, max_value=0.9),
        f_a=st.floats(min_value=0.0, max_value=1.0),
        r_b=st.floats(min_value=0.01, max_value=0.9),
        f_b=st.floats(min_value=0.0, max_value=1.0),
    )


# rates from about 0.5 down to the smallest subnormal, 2^-1074: their
# products and quotients run from normal through subnormal to 0 and past
# the float range (a mantissa of exactly 0.5 would make 2^-1075 round to 0)
small_rate = st.builds(lambda mantissa, exponent: math.ldexp(mantissa, -exponent),
                       st.floats(min_value=0.5, max_value=0.98, exclude_min=True),
                       st.integers(1, 1074))
small_rates = st.builds(ConcessionRates, small_rate, st.one_of(st.just(0.0), small_rate),
                        small_rate, st.one_of(st.just(0.0), small_rate))

# one side's reserve rate subnormal and every other rate normal: that side's
# odds r' / r reach or pass the top of the float range
subnormal_rate = st.builds(lambda mantissa, exponent: math.ldexp(mantissa, -exponent),
                           st.floats(min_value=0.5, max_value=0.98, exclude_min=True),
                           st.integers(1022, 1074))
normal_rate = st.floats(min_value=1e-3, max_value=0.49)
lopsided_rates = st.one_of(
    st.builds(ConcessionRates, subnormal_rate, normal_rate, normal_rate,
              st.one_of(st.just(0.0), normal_rate)),
    st.builds(ConcessionRates, normal_rate, st.one_of(st.just(0.0), normal_rate),
              subnormal_rate, normal_rate))


config_strategy = st.builds(
    lambda low, width, reserve_lo, reserve_hi, rates: NegotiationConfig(
        buyer_open=low, seller_open=low + width,
        buyer_reserve_adj=reserve_hi, seller_reserve_adj=reserve_lo,
        rates=rates, gap_epsilon=0.01, max_steps=100),
    low=st.floats(min_value=0.0, max_value=100.0),
    width=st.floats(min_value=0.0, max_value=100.0),
    reserve_lo=st.floats(min_value=0.0, max_value=100.0),
    reserve_hi=st.floats(min_value=0.0, max_value=100.0),
    rates=rates_strategy(),
)


class TestConcessionRates:
    @pytest.mark.parametrize("kwargs", [
        dict(r_a=0.0, r_a_prime=0.1, r_b=0.1, r_b_prime=0.1),   # r_a must be > 0
        dict(r_a=1.0, r_a_prime=0.0, r_b=0.1, r_b_prime=0.1),   # r_a must be < 1
        dict(r_a=0.1, r_a_prime=-0.1, r_b=0.1, r_b_prime=0.1),  # r' must be >= 0
        dict(r_a=0.6, r_a_prime=0.4, r_b=0.1, r_b_prime=0.1),   # sum must be < 1
        dict(r_a=0.1, r_a_prime=0.1, r_b=0.5, r_b_prime=0.5),
        dict(r_a=float("nan"), r_a_prime=0.1, r_b=0.1, r_b_prime=0.1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfig):
            ConcessionRates(**kwargs)

    def test_zero_cross_rates_are_legal(self):
        ConcessionRates(0.1, 0.0, 0.2, 0.0)


class TestConfigValidation:
    def test_crossed_opens_rejected(self):
        with pytest.raises(InvalidConfig):
            fig3_config(buyer_open=5.0, seller_open=4.0)

    @pytest.mark.parametrize("overrides", [
        dict(gap_epsilon=0.0), dict(gap_epsilon=-1.0),
        dict(max_steps=0), dict(max_steps=2.5),
    ])
    def test_bad_scalars_rejected(self, overrides):
        with pytest.raises(InvalidConfig):
            fig3_config(**overrides)

    @pytest.mark.parametrize("overrides, field", [
        (dict(buyer_open=-1.7e308, seller_open=1.7e308), "buyer_open"),
        (dict(buyer_open=-1e308, buyer_reserve_adj=1.7e308), "buyer_reserve_adj"),
    ])
    def test_anchor_spread_must_be_finite(self, overrides, field):
        with pytest.raises(InvalidConfig) as excinfo:
            fig3_config(**overrides)
        assert excinfo.value.field == field

    def test_rates_must_be_concession_rates(self):
        with pytest.raises(InvalidConfig) as excinfo:
            fig3_config(rates=(0.05, 0.02, 0.3, 0.2))  # FIG3_RATES as a plain tuple
        assert (excinfo.value.field, excinfo.value.rule) == ("rates", "must be a ConcessionRates")


@pytest.mark.parametrize("side, role", [("buyer", "BUYER"), ("seller", "SELLER")])
def test_each_side_view_must_have_its_side_role(side, role):
    """A seller's view in the buyer slot would give the buyer the seller's
    reserve formula: 100 x 0.5 = 50 where the buyer's gives 200."""
    sides = {"buyer": SideSpec(0.0, 100.0), "seller": SideSpec(100.0, 0.0)}
    other = Role.SELLER if role == "BUYER" else Role.BUYER
    sides[side] = replace(sides[side], view=PerceptionView(2.0, 1.0, 1.0, 1.0, other))
    with pytest.raises(InvalidConfig) as excinfo:
        NegotiationScenario(**sides, rates=FIG3_RATES, max_steps=10)
    assert (excinfo.value.field, excinfo.value.rule) == (f"{side}.view", f"must have role {role}")
    sides[side] = replace(sides[side], view=replace(sides[side].view, role=Role[role]))
    assert NegotiationScenario(**sides, rates=FIG3_RATES, max_steps=10).config
    # a view's four magnitudes without the view
    sides[side] = replace(sides[side], view=(2.0, 1.0, 1.0, 1.0))
    with pytest.raises(InvalidConfig) as excinfo:
        NegotiationScenario(**sides, rates=FIG3_RATES, max_steps=10)
    assert (excinfo.value.field, excinfo.value.rule) == (f"{side}.view", "must be a PerceptionView")


def buyer_with_ratio(rho):
    """A buyer view whose imbalance ratio is exactly ``rho``."""
    return PerceptionView(rho, 1.0, 1.0, 1.0, Role.BUYER)


def seller_with_ratio(rho):
    """A seller view whose imbalance ratio is exactly ``rho``."""
    return PerceptionView(1.0, rho, 1.0, 1.0, Role.SELLER)


class TestRateScaling:
    """The ratios come from views, which check them when they are built
    (``test_a_degenerate_ratio_is_rejected_when_its_view_is_built`` and
    test_cli.py's RATIO_RULE cases), so no bad ratio reaches the scaling."""

    def test_identity(self):
        base = ConcessionRates(0.1, 0.05, 0.2, 0.1)
        assert concession_rates_from_imbalance(base, None, None) == base
        assert concession_rates_from_imbalance(
            base, buyer_with_ratio(1.0), seller_with_ratio(1.0)) == base

    def test_views_carry_the_ratio(self):
        assert buyer_with_ratio(2.5).ratio == seller_with_ratio(2.5).ratio == 2.5

    def test_buyer_linear_scaling(self):
        base = ConcessionRates(0.1, 0.05, 0.2, 0.1)
        scaled = concession_rates_from_imbalance(base, buyer_with_ratio(2.0), None)
        assert scaled.r_a == pytest.approx(0.2)
        assert scaled.r_a_prime == pytest.approx(0.10)
        assert (scaled.r_b, scaled.r_b_prime) == (0.2, 0.1)

    def test_seller_reciprocal_scaling(self):
        base = ConcessionRates(0.1, 0.05, 0.2, 0.1)
        scaled = concession_rates_from_imbalance(base, None, seller_with_ratio(2.0))
        assert scaled.r_b == pytest.approx(0.1)
        assert scaled.r_b_prime == pytest.approx(0.05)

    def test_clamp_and_proportional_shrink(self):
        base = ConcessionRates(0.5, 0.4, 0.1, 0.05)
        scaled = concession_rates_from_imbalance(base, buyer_with_ratio(3.0), None)
        # still a valid interpolation after the shrink
        assert 0.0 < scaled.r_a < 1.0
        assert scaled.r_a + scaled.r_a_prime <= RATE_MAX
        # 0.5 clamps to RATE_MAX, 0.4 scales to 1.2 -> clamps to RATE_MAX;
        # the shrink then preserves the clamped 1:1 proportion
        assert scaled.r_a == pytest.approx(scaled.r_a_prime)

    @pytest.mark.parametrize("magnitudes, field, rule", [
        ((0.0, 1.0), "own_motivation", "must be > 0"),
        ((-1.0, 1.0), "own_motivation", "must be > 0"),
        ((math.nan, 1.0), "own_motivation", "must be a finite number"),
        ((1e200, 1e200), None, "imbalance ratio and its reciprocal must be finite and > 0"),
        ((1e-160, 1e-160), None, "imbalance ratio and its reciprocal must be finite and > 0"),
    ])
    def test_a_degenerate_ratio_is_rejected_when_its_view_is_built(self, magnitudes, field,
                                                                  rule):
        own_motivation, other_power = magnitudes
        with pytest.raises(InvalidConfig) as excinfo:
            PerceptionView(own_motivation, 1.0, 1.0, other_power, Role.BUYER)
        assert (excinfo.value.field, excinfo.value.rule) == (field, rule)

    @given(rates=rates_strategy(),
           rho_b=st.floats(min_value=1e-3, max_value=1e3),
           rho_s=st.floats(min_value=1e-3, max_value=1e3))
    def test_always_valid(self, rates, rho_b, rho_s):
        scaled = concession_rates_from_imbalance(rates, buyer_with_ratio(rho_b),
                                                 seller_with_ratio(rho_s))
        assert isinstance(scaled, ConcessionRates)  # construction re-checks invariants


class TestStep:
    def test_first_iteration(self):
        cfg = fig3_config()
        assert step(2.5, 4.5, *dynamics(cfg)) == pytest.approx((2.665, 3.35), abs=1e-12)

    def test_second_iteration(self):
        cfg = fig3_config()
        x_a, x_b = step(2.5, 4.5, *dynamics(cfg))
        assert step(x_a, x_b, *dynamics(cfg)) == pytest.approx((2.79545, 2.808), abs=1e-12)

    def test_rest_when_all_terms_vanish(self):
        cfg = fig3_config(buyer_open=3.0, seller_open=3.0,
                          buyer_reserve_adj=3.0, seller_reserve_adj=3.0)
        assert step(3.0, 3.0, *dynamics(cfg)) == (3.0, 3.0)

    @given(cfg=config_strategy)
    def test_monotone_drift(self, cfg):
        """Open gap + reserves on the right side => buyer up, seller down."""
        x_a, x_b = cfg.buyer_open, cfg.seller_open
        for _ in range(20):
            next_a, next_b = step(x_a, x_b, *dynamics(cfg))
            if x_b > x_a and cfg.buyer_reserve_adj >= x_a and x_b >= cfg.seller_reserve_adj:
                assert next_a >= x_a
                assert next_b <= x_b
            x_a, x_b = next_a, next_b


class TestRun:
    def test_reference_trace(self):
        trace = run(fig3_config())
        assert len(trace.steps) == 3
        assert trace.steps[0] == (2.5, 4.5, 2.0)
        assert isinstance(trace.outcome, Agreement)
        assert trace.outcome.step == 2
        assert trace.outcome.price == pytest.approx(2.801725, abs=1e-9)

    def test_zero_gap_agrees_immediately(self):
        trace = run(fig3_config(buyer_open=3.0, seller_open=3.0))
        assert trace.outcome == Agreement(price=3.0, step=0)
        assert len(trace.steps) == 1

    def test_breakdown_when_nobody_moves(self):
        rates = ConcessionRates(1e-6, 0.0, 1e-6, 0.0)
        trace = run(fig3_config(rates=rates, max_steps=5))
        assert trace.outcome == Breakdown(at_step=5)
        assert len(trace.steps) == 6  # rows 0..max_steps

    def test_deterministic(self):
        assert run(fig3_config()) == run(fig3_config())

    def test_settlement_of_offers_whose_sum_overflows(self):
        huge = 1.7e308
        trace = run(fig3_config(buyer_open=huge, seller_open=huge,
                                buyer_reserve_adj=huge, seller_reserve_adj=huge))
        assert trace.outcome == Agreement(price=huge, step=0)

    @given(cfg=config_strategy)
    def test_settlement_bounded_by_final_offers(self, cfg):
        trace = run(cfg)
        if isinstance(trace.outcome, Agreement):
            offer_buyer, offer_seller, _ = trace.steps[-1]
            low, high = sorted((offer_buyer, offer_seller))
            assert low <= trace.outcome.price <= high

    @given(cfg=config_strategy)
    def test_settlement_within_bracketing_reserves(self, cfg):
        # offers stay in the convex hull of opens and reserves
        if not (cfg.seller_reserve_adj <= cfg.buyer_open
                and cfg.seller_open <= cfg.buyer_reserve_adj):
            return
        trace = run(cfg)
        if isinstance(trace.outcome, Agreement):
            assert cfg.seller_reserve_adj <= trace.outcome.price <= cfg.buyer_reserve_adj

    # Per-step movements must stay small next to the effect under test:
    # the stopping rule quantizes the settlement by one step's movement.
    def test_weaker_seller_settles_lower(self):
        settlements = []
        for scale in (1.0, 2.0, 3.0):
            rates = ConcessionRates(0.01, 0.004, 0.02 * scale, 0.01 * scale)
            trace = run(fig3_config(rates=rates, gap_epsilon=0.005, max_steps=5000))
            settlements.append(trace.outcome.price)
        assert settlements == sorted(settlements, reverse=True)

    def test_faster_buyer_settles_higher(self):
        settlements = []
        for scale in (1.0, 2.0, 3.0):
            rates = ConcessionRates(0.01 * scale, 0.004 * scale, 0.02, 0.01)
            trace = run(fig3_config(rates=rates, gap_epsilon=0.005, max_steps=5000))
            settlements.append(trace.outcome.price)
        assert settlements == sorted(settlements)


#: With reserves of one sign each coordinate of the rest point is a convex
#: combination of them, so its terms cannot cancel.  The odds' relative
#: error of 4u changes each weight by a relative error of at most 4u times
#: the other weight, and the weight's two roundings, its product and the
#: sum add 4u more: within 8u of exact, under 8 ulps.
FIXED_POINT_ULPS = 8

#: ``settle``'s docstring bounds ``fixed_point``'s error by F <= 6uS, with
#: S the larger reserve magnitude but at least 1.
FIXED_POINT_ERROR = 6


def assert_within_fixed_point_error(cfg):
    scale = Fraction(max(1.0, abs(cfg.buyer_reserve_adj), abs(cfg.seller_reserve_adj)))
    for got, exact in zip(fixed_point(*dynamics(cfg)), exact_fixed_point(cfg)):
        assert abs(Fraction(got) - exact) <= FIXED_POINT_ERROR * Fraction(2.0 ** -53) * scale


def assert_near_exact_fixed_point(cfg):
    for got, exact in zip(fixed_point(*dynamics(cfg)), exact_fixed_point(cfg)):
        assert abs(Fraction(got) - exact) <= FIXED_POINT_ULPS * Fraction(math.ulp(float(exact)))


# reserves of either sign, from the smallest subnormal up to 1e300
any_reserve = st.one_of(st.floats(-100.0, 100.0), st.floats(-1e300, 1e300),
                        st.floats(-1e-290, 1e-290))

# reserves down to the smallest subnormal, with rates whose products stay
# normal even against the smaller reserve scaled up
tiny_reserve = st.floats(min_value=0.0, max_value=1e-290)
moderate_rate = st.floats(min_value=1e-6, max_value=0.49)
moderate_rates = st.builds(ConcessionRates, moderate_rate, st.one_of(st.just(0.0), moderate_rate),
                           moderate_rate, st.one_of(st.just(0.0), moderate_rate))


class TestFixedPoint:
    def test_reference_values(self):
        x_a, x_b = fixed_point(*dynamics(fig3_config()))
        assert x_a == pytest.approx(4.4194, abs=1e-3)
        assert x_b == pytest.approx(2.9677, abs=1e-3)

    @given(cfg=config_strategy)
    def test_against_numpy_solver(self, cfg):
        r = cfg.rates
        matrix = np.array([[r.r_a + r.r_a_prime, -r.r_a_prime],
                           [-r.r_b_prime, r.r_b + r.r_b_prime]])
        rhs = np.array([r.r_a * cfg.buyer_reserve_adj, r.r_b * cfg.seller_reserve_adj])
        expected = np.linalg.solve(matrix, rhs)
        assert fixed_point(*dynamics(cfg)) == pytest.approx(tuple(expected), rel=1e-9, abs=1e-9)

    def test_decoupled_rests_at_reserves(self):
        # power-of-two rates and prices make the algebra exact
        cfg = fig3_config(rates=ConcessionRates(0.25, 0.0, 0.5, 0.0),
                          buyer_open=2.0, seller_open=8.0,
                          buyer_reserve_adj=8.0, seller_reserve_adj=2.0)
        assert fixed_point(*dynamics(cfg)) == (8.0, 2.0)

    def test_symmetric_rests_at_common_reserve(self):
        cfg = fig3_config(rates=ConcessionRates(0.1, 0.05, 0.1, 0.05),
                          buyer_open=1.0, seller_open=5.0,
                          buyer_reserve_adj=3.0, seller_reserve_adj=3.0)
        assert fixed_point(*dynamics(cfg)) == pytest.approx((3.0, 3.0), rel=1e-12)

    def test_tiny_rates_keep_the_rest_point(self):
        def cfg(rates):
            return fig3_config(rates=rates, buyer_reserve_adj=8.0, seller_reserve_adj=2.0)

        # tiny rates still pose the system well: without cross-rates each
        # side rests exactly on its own reserve
        for rate in (1e-7, 1e-161, 1e-200, 5e-324):
            assert fixed_point(8.0, 2.0, ConcessionRates(rate, 0.0, rate, 0.0)) == (8.0, 2.0)
        assert fixed_point(8.0, 2.0, ConcessionRates(1e-20, 0.5, 1e-20, 0.5)) == (5.0, 5.0)
        # both reserve rates subnormal: r_a' / r_a overflows, yet the odds are
        # about 1 and the rest point lies between the reserves
        assert fixed_point(8.0, 2.0, ConcessionRates(5e-324, 0.5, 5e-324, 0.5)) == (5.0, 5.0)
        assert_within_fixed_point_error(cfg(ConcessionRates(1.5e-323, 0.7, 2.5e-323, 0.6)))
        # a subnormal r_a beside a normal r_b takes the buyer's odds to inf,
        # which puts the buyer's rest offer on the seller's reserve
        assert fixed_point(8.0, 2.0, ConcessionRates(5e-324, 0.5, 0.3, 0.2)) == (2.0, 2.0)

    @given(rates=st.one_of(rates_strategy(), small_rates))
    def test_reserves_at_the_float_maximum_give_a_finite_rest_point(self, rates):
        # the weights' rounding can sum past 1, which took an offer to inf
        top = sys.float_info.max
        assert fixed_point(top, top, rates) == (top, top)

    @given(rates=st.one_of(small_rates, lopsided_rates), buyer=any_reserve, seller=any_reserve)
    @settings(max_examples=300, deadline=None)
    def test_within_its_error_bound_of_the_exact_rest_point(self, rates, buyer, seller):
        assert_within_fixed_point_error(NegotiationConfig(0.0, 0.0, buyer, seller, rates, 1.0, 10))

    @pytest.mark.parametrize("buyer, seller, rates", [
        (1e-300, 3e-300, ConcessionRates(1e-150, 0.0, 1e-150, 0.0)),  # products give 0
        (1e-308, 3e-308, ConcessionRates(1e-5, 0.0, 1e-5, 0.0)),  # subnormal products
        (1e-308, 3e-308, ConcessionRates(1e-5, 1e-5, 1e-5, 1e-5)),
        (1e-300, 1.0, ConcessionRates(1e-150, 0.0, 1e-150, 0.0)),  # reserves far apart
        (1e-300, 0.5, ConcessionRates(1e-150, 0.0, 1e-150, 0.0)),
        # r_a' = 0 puts the buyer on its reserve, however small r_a
        (0.7449215592231919, 0.249165516456197,
         ConcessionRates(1.21876e-319, 0.0, 0.10903969254508583, 1.8239733227897174e-53)),
        (5.0, 8.0, ConcessionRates(0.5, 0.0, 5e-324, 0.0)),  # a subnormal reserve rate
    ])
    def test_underflowing_products_keep_the_rest_point(self, buyer, seller, rates):
        cfg = NegotiationConfig(0.0, 0.0, buyer, seller, rates, 1.0, 10)
        assert_near_exact_fixed_point(cfg)

    @given(buyer=tiny_reserve, seller=tiny_reserve, rates=moderate_rates)
    def test_tiny_reserves_keep_the_rest_point(self, buyer, seller, rates):
        assert_near_exact_fixed_point(NegotiationConfig(0.0, 0.0, buyer, seller, rates, 1.0, 10))

    def test_fixed_point_is_invariant_under_step(self):
        cfg = fig3_config()
        x_a, x_b = fixed_point(*dynamics(cfg))
        assert step(x_a, x_b, *dynamics(cfg)) == pytest.approx((x_a, x_b), abs=1e-12)


def step_matrix(rates):
    """Linear part of `step`, read off from unit offers with zero reserves."""
    cfg = NegotiationConfig(0.0, 0.0, 0.0, 0.0, rates, 0.05, 1)
    return np.array([step(1.0, 0.0, *dynamics(cfg)), step(0.0, 1.0, *dynamics(cfg))]).T


def spectral_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


class TestStability:
    def test_reference_eigenvalues(self):
        # independent route: quadratic formula on the characteristic polynomial
        m = step_matrix(FIG3_RATES)
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        disc = math.sqrt(tr * tr - 4.0 * det)
        lams = sorted(((tr + disc) / 2.0, (tr - disc) / 2.0))
        assert lams == pytest.approx([0.491, 0.939], abs=1e-3)
        assert spectral_radius(m) == pytest.approx(max(lams), rel=1e-12)
        assert spectral_radius(m) < 1.0

    def test_unit_modulus_is_unstable(self):
        # all-zero rates would make the step the identity: stationary, not
        # contracting, so they are not valid rates
        assert spectral_radius(np.eye(2)) == 1.0
        with pytest.raises(InvalidConfig):
            ConcessionRates(0.0, 0.0, 0.0, 0.0)

    @given(rates=rates_strategy())
    def test_valid_rates_are_always_stable(self, rates):
        # row sums of the step's linear part are 1 - r_a and 1 - r_b, both < 1
        assert spectral_radius(step_matrix(rates)) < 1.0


# anchors across the whole float range, including pairs whose spread overflows
any_anchor = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([sys.float_info.max, -sys.float_info.max, 1.7e308,
                                        -1.7e308, 2.0 ** 1023, -(2.0 ** 1023), 0.0]))


@given(anchors=st.lists(any_anchor, min_size=4, max_size=4), rates=rates_strategy(),
       gap_epsilon=st.floats(5e-324, 1e6), max_steps=st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_accepted_negotiations_stay_finite(anchors, rates, gap_epsilon, max_steps):
    buyer_open, seller_open = sorted(anchors[:2])
    try:
        cfg = NegotiationConfig(buyer_open, seller_open, abs(anchors[2]), abs(anchors[3]),
                                rates, gap_epsilon, max_steps)
    except InvalidConfig:
        assume(False)
    trace = run(cfg)
    assert all(math.isfinite(cell) for row in trace.steps for cell in row)
    assert not trace.agreed or math.isfinite(trace.outcome.price)


@given(cfg=config_strategy)
@settings(max_examples=50, deadline=None)
def test_iteration_converges_to_fixed_point(cfg):
    """The raw dynamics (no stopping rule) land on the closed-form rest point."""
    x_a, x_b = cfg.buyer_open, cfg.seller_open
    fp_a, fp_b = fixed_point(*dynamics(cfg))
    for _ in range(10_000):
        x_a, x_b = step(x_a, x_b, *dynamics(cfg))
        # the update is an infinity-norm contraction, so once inside the
        # target ball the iterate cannot leave it
        if max(abs(x_a - fp_a), abs(x_b - fp_b)) < 1e-9:
            break
    assert max(abs(x_a - fp_a), abs(x_b - fp_b)) < 1e-6


def cycling_stall(period, max_steps=30000):
    """The pinned stall of ``period`` and the step its cycle starts at."""
    start, fields = CYCLING_STALLS[period]
    return start, NegotiationConfig(**{**fields, "rates": ConcessionRates(*fields["rates"])},
                                     max_steps=max_steps)


def assert_same_trace(trace, expected):
    """Equal cell for cell by ``repr``, which tells -0.0 from 0.0, and in
    outcome.  A mismatch names its first row, not a diff of two traces."""
    rows, want = ([tuple(map(repr, row)) for row in t.steps] for t in (trace, expected))
    first = next((n for n, (got, row) in enumerate(zip(rows, want)) if got != row), None)
    assert first is None, f"row {first}: {rows[first]} != {want[first]}"
    assert len(rows) == len(want)
    assert repr(trace.outcome) == repr(expected.outcome)


class TestMatchesReferenceLoop:
    """``run`` stops iterating once the offers repeat; the loop in
    ``negotiation_reference`` iterates every step."""

    cycle_anchor = st.one_of(st.floats(-100.0, 100.0), st.floats(-1e16, 1e16),
                             st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16]))

    @given(anchors=st.lists(cycle_anchor, min_size=4, max_size=4), rates=rates_strategy(),
           gap_epsilon=st.one_of(st.floats(1e-300, 10.0), st.just(5e-324)),
           max_steps=st.integers(1, 3000))
    @settings(max_examples=200, deadline=None)
    def test_any_trace(self, anchors, rates, gap_epsilon, max_steps):
        buyer_open, seller_open = sorted(anchors[:2])
        cfg = NegotiationConfig(buyer_open, seller_open, anchors[2], anchors[3],
                                rates, gap_epsilon, max_steps)
        assert_same_trace(run(cfg), reference_run(cfg))

    @pytest.mark.parametrize("period", CYCLING_STALLS)
    def test_pinned_cycling_stall(self, period):
        start, cfg = cycling_stall(period)
        expected = reference_run(cfg)
        assert cycle(expected.steps) == (start, period)
        trace = run(cfg)
        assert_same_trace(trace, expected)
        assert trace.outcome == Breakdown(at_step=30000)
        assert trace.period == period
        # the saved offers reach the cycle about sqrt(2 * start) steps after
        # it starts; a detector that stops firing iterates all 30 001 rows
        assert len(trace.rows) <= 2 * (start + period) + 1

    @pytest.mark.parametrize("period", CYCLING_STALLS)
    @pytest.mark.parametrize("after", [0, 1, 2, 3, 7])
    def test_cycle_seen_at_the_last_steps(self, period, after):
        """The run sees the repeat at step max_steps - after: at max_steps
        itself it has nothing left to state."""
        seen = len(run(cycling_stall(period)[1]).rows) - 1
        _, cfg = cycling_stall(period, max_steps=seen + after)
        trace = run(cfg)
        assert_same_trace(trace, reference_run(cfg))
        assert (len(trace.rows), trace.period) == (seen + 1, period if after else 0)

    @pytest.mark.parametrize("buyer_open", [0.0, -0.0])
    def test_cycle_through_a_zero_offer_iterates_in_full(self, buyer_open):
        """The buyer's offer rests at 0.0, which ``==`` cannot tell from
        -0.0, so the offers repeat but every row is computed."""
        cfg = NegotiationConfig(buyer_open, 5.0, 0.0, 3.0, ConcessionRates(0.3, 0.0, 0.3, 0.0),
                                0.05, 500)
        expected = reference_run(cfg)
        assert first_repeat(expected.steps) is not None
        trace = run(cfg)
        assert_same_trace(trace, expected)
        assert (trace.period, len(trace.rows)) == (0, 501)

    @pytest.mark.parametrize("period", CYCLING_STALLS)
    def test_cycling_stall_allocates_only_its_distinct_rows(self, period):
        start, cfg = cycling_stall(period)
        tracemalloc.start()
        try:
            trace = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.period == period and len(trace.rows) <= 2 * (start + period) + 1
        # 30 001 row tuples of three floats would take about 4.3 MB
        assert peak < 1_000_000


def ulps_away(value, ulps):
    """``value`` moved ``ulps`` floats up (down if negative)."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


@st.composite
def edge_configs(draw):
    """Configs at the edges of ``settle``'s proof: anchors of either sign up
    to 1e300, rates down to the smallest subnormal, a single step, and
    gap_epsilon a few ulps either side of the rest gap."""
    scale = draw(st.sampled_from([1.0, 100.0, 1e16, 1e300]))
    anchors = [scale * draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    rates = draw(st.one_of(rates_strategy(), small_rates))
    max_steps = draw(st.one_of(st.just(1), st.integers(1, 3000)))
    buyer_open, seller_open = sorted(anchors[:2])
    rest_a, rest_b = fixed_point(anchors[2], anchors[3], rates)
    gap_epsilon = ulps_away(abs(rest_b - rest_a), draw(st.integers(-4, 4)))
    assume(0.0 < gap_epsilon < math.inf)
    return NegotiationConfig(buyer_open, seller_open, anchors[2], anchors[3], rates,
                             gap_epsilon, max_steps)


def settling_configs(seed, count):
    """The configs among ``count`` drawn from ``random.Random(seed)`` whose
    gap stays open, each with gap_epsilon the smallest gap of the rest its
    offers settle on.  Rounding puts that gap a few ulps under the computed
    rest gap about as often as over it, and only ``settle``'s slack then
    stops its bound from calling the gap open before the offers reach it.
    Anchors have either sign and reach 1e300, the reserves are in order, so
    that the gap stays open, and 3 000 steps let the rates settle."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = rng.choice([1.0, 100.0, 1e16, 1e300])
        buyer_open, seller_open = sorted(scale * rng.uniform(-1.0, 1.0) for _ in range(2))
        buyer, seller = sorted(scale * rng.uniform(-1.0, 1.0) for _ in range(2))
        r_a, r_b = rng.uniform(0.01, 0.9), rng.uniform(0.01, 0.9)
        rates = ConcessionRates(r_a, rng.random() * (0.95 - r_a),
                                r_b, rng.random() * (0.95 - r_b))
        trace = run(NegotiationConfig(buyer_open, seller_open, buyer, seller, rates,
                                      5e-324, 3000))
        gap_epsilon = min(gap for *_, gap in trace.rows[-max(trace.period, 1):])
        if not trace.agreed and gap_epsilon > 0.0:
            yield NegotiationConfig(buyer_open, seller_open, buyer, seller, rates,
                                    gap_epsilon, 3000)


def count_steps(monkeypatch):
    """Count the calls ``settle`` and ``run`` make to ``step``."""
    calls = [0]

    def counted(x_a, x_b, *reserves_and_rates):
        calls[0] += 1
        return step(x_a, x_b, *reserves_and_rates)
    monkeypatch.setattr(negotiation, "step", counted)
    return calls


class TestSettle:
    """``settle`` is ``run``'s outcome without its rows, ended once a stall's
    gap provably stays open; ``run`` is its oracle."""

    @given(cfg=config_strategy)
    def test_matches_run(self, cfg):
        assert repr(settle(*fields(cfg))) == repr(run(cfg).outcome)

    @given(cfg=edge_configs())
    @settings(max_examples=300, deadline=None)
    def test_matches_run_at_the_edges(self, cfg):
        assert repr(settle(*fields(cfg))) == repr(run(cfg).outcome)

    def test_matches_run_where_the_offers_settle(self):
        """With no slack, 41 of these 1 630 configs end early; with a slack
        constant c below 0.356, at least one does."""
        configs = list(settling_configs(2025, 2000))
        assert len(configs) == 1630
        for cfg in configs:
            assert repr(settle(*fields(cfg))) == repr(run(cfg).outcome), cfg

    @pytest.mark.parametrize("period", CYCLING_STALLS)
    def test_ends_a_pinned_stall_before_its_cycle(self, period, monkeypatch):
        start, cfg = cycling_stall(period)
        calls = count_steps(monkeypatch)
        outcome = settle(*fields(cfg))
        assert calls[0] < start
        assert outcome == run(cfg).outcome == Breakdown(at_step=30000)

    def test_gap_epsilon_an_ulp_below_the_rest_gap(self):
        """The offers settle a few ulps inside the computed rest gap, so an
        epsilon just below it is still reached: the slack must stop the
        proof from calling this a stall."""
        cfg = NegotiationConfig(52.6, 74.9, 54.7, 58.9, ConcessionRates(0.29, 0.07, 0.07, 0.37),
                                1.0, 1000)
        rest_a, rest_b = fixed_point(*dynamics(cfg))
        cfg = replace(cfg, gap_epsilon=math.nextafter(rest_b - rest_a, 0.0))
        assert run(cfg).outcome == settle(*fields(cfg)) == Agreement(price=55.177056603773586,
                                                                    step=128)

    def test_the_largest_slack_constant_found_needed(self):
        """gap_epsilon 24 ulps under the rest gap, found by an adversarial
        search: ``settle`` matches ``run`` here only with the slack constant
        c >= 0.7258 (it is 32, and its docstring derives c >= 19).  With
        less, the bound calls the gap open early, yet the offers close it
        at step 27."""
        cfg = NegotiationConfig(322496861491131.7, 5246018968636602.0, -7509590550789945.0,
                                -6206192478208771.0,
                                ConcessionRates(0.8494202672229026, 0.06486991266552508,
                                                0.7006497503376824, 0.24935024966231756),
                                910032808586541.0, 100)
        assert run(cfg).outcome == settle(*fields(cfg)) == Agreement(price=-6985075276392272.0,
                                                                    step=27)

    def test_offers_that_cross_the_rest_point(self):
        """Large cross-rates carry each offer past its rest point, so a gap
        can close by nearly twice the offers' distance from it."""
        rates = ConcessionRates(0.05, 0.9, 0.05, 0.9)
        rest_a, rest_b = fixed_point(0.0, 100.0, rates)
        assert rest_b - rest_a == pytest.approx(2.7, abs=0.01)
        # 2 from each rest point: less than the rest gap, more than half of it
        cfg = NegotiationConfig(rest_a - 2.0, rest_b + 2.0, 0.0, 100.0, rates, 0.5, 10)
        assert run(cfg).outcome == settle(*fields(cfg)) == Agreement(price=50.00000000000001,
                                                                    step=1)

    @pytest.mark.parametrize("rates, steps", [
        # the bound cannot pass, but the offers never move
        ((1e-150, 0.0, 1e-150, 0.0), 1),
        # a subnormal seller rate: the bound cannot pass, and the buyer halves
        # its distance to its reserve until its offer stops changing
        ((0.5, 0.0, 5e-324, 0.0), 54),
    ])
    def test_ends_once_the_offers_stop_moving(self, rates, steps, monkeypatch):
        cfg = NegotiationConfig(2.0, 9.0, 5.0, 8.0, ConcessionRates(*rates), 0.05, 5000)
        calls = count_steps(monkeypatch)
        outcome = settle(*fields(cfg))
        assert calls[0] == steps
        assert outcome == run(cfg).outcome == Breakdown(at_step=5000)
