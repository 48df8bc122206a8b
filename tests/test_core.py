import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab.core import (DEFAULT_EPSILON, PerceptionView, Role,
                             adjust_reserve_full, equity_index, imbalance_ratio,
                             motivation, power)
from bargainlab.errors import InvalidConfig

magnitudes = st.floats(min_value=0.01, max_value=100.0,
                       allow_nan=False, allow_infinity=False)
prices = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def buyer_view(m_own, m_other, k_own, k_other):
    return PerceptionView(m_own, m_other, k_own, k_other, Role.BUYER)


def seller_view(m_own, m_other, k_own, k_other):
    return PerceptionView(m_own, m_other, k_own, k_other, Role.SELLER)


views = st.builds(
    PerceptionView,
    own_motivation=magnitudes,
    other_motivation_perceived=magnitudes,
    own_power=magnitudes,
    other_power_perceived=magnitudes,
    role=st.sampled_from([Role.BUYER, Role.SELLER]),
)


class TestMotivationAndPower:
    @pytest.mark.parametrize("gain,loss,expected", [
        (5.0, 2.0, 3.0),
        (2.0, 2.0, 0.0),
        (1.0, 4.0, -3.0),  # negative motivation is a value, not an error
    ])
    def test_motivation(self, gain, loss, expected):
        assert motivation(gain, loss) == pytest.approx(expected)

    @pytest.mark.parametrize("effect,cost,expected", [
        (10.0, 1.0, 9.0),
        (3.0, 3.0, 0.0),
        (0.5, 0.1, 0.4),
    ])
    def test_power(self, effect, cost, expected):
        assert power(effect, cost) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "3", None])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidConfig, match="gain: must be a finite number"):
            motivation(bad, 1.0)
        with pytest.raises(InvalidConfig, match="own_cost: must be a finite number"):
            power(1.0, bad)


class TestPerceptionView:
    def test_requires_strictly_positive(self):
        for field in range(4):
            values = [1.0, 1.0, 1.0, 1.0]
            values[field] = 0.0
            with pytest.raises(InvalidConfig, match="must be > 0"):
                buyer_view(*values)
            values[field] = -1.0
            with pytest.raises(InvalidConfig, match="must be > 0"):
                buyer_view(*values)

    def test_requires_finite(self):
        with pytest.raises(InvalidConfig, match="own_motivation: must be a finite number"):
            buyer_view(float("nan"), 1, 1, 1)

    def test_requires_role(self):
        with pytest.raises(InvalidConfig, match="role: must be a Role"):
            PerceptionView(1, 1, 1, 1, "buyer")


class TestImbalanceRatio:
    def test_buyer(self):
        # (own M / other M) * (other K / own K) = (1/2) * (1/2)
        assert imbalance_ratio(buyer_view(1.0, 2.0, 2.0, 1.0)) == pytest.approx(0.25)

    def test_seller(self):
        # (other M / own M) * (own K / other K) = (4/1) * (2/1)
        assert imbalance_ratio(seller_view(1.0, 4.0, 2.0, 1.0)) == pytest.approx(8.0)

    @given(m=magnitudes, k=magnitudes, role=st.sampled_from([Role.BUYER, Role.SELLER]))
    def test_all_equal_is_exactly_one(self, m, k, role):
        assert imbalance_ratio(PerceptionView(m, m, k, k, role)) == 1.0

    def test_sub_epsilon_divisor_degenerates(self):
        # the view takes its ratio when it is built, so it is never built
        with pytest.raises(InvalidConfig, match="other_motivation_perceived: must be >= the "
                                               "epsilon floor"):
            buyer_view(1.0, 1e-12, 1.0, 1.0)

    @given(view=views, own_power=magnitudes)
    def test_a_view_carries_its_ratio(self, view, own_power):
        assert view.ratio == imbalance_ratio(view)
        changed = replace(view, own_power=own_power)
        assert changed.ratio == imbalance_ratio(changed)

    @given(view=views, scale=st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance(self, view, scale):
        scaled = PerceptionView(view.own_motivation * scale,
                                view.other_motivation_perceived * scale,
                                view.own_power * scale,
                                view.other_power_perceived * scale,
                                view.role)
        assert imbalance_ratio(scaled) == pytest.approx(imbalance_ratio(view), rel=1e-9)


def motivation_ratio(view):
    """The motivation factor of the imbalance ratio: own/other for a buyer,
    other/own for a seller."""
    if view.role is Role.BUYER:
        return view.own_motivation / view.other_motivation_perceived
    return view.other_motivation_perceived / view.own_motivation


class TestReserveAdjustment:
    def test_full_buyer_squeeze(self):
        # motivation factor 0.2, power factor 0.1: 5.0 -> 0.10
        view = buyer_view(1.0, 5.0, 10.0, 1.0)
        assert adjust_reserve_full(5.0, view) == pytest.approx(0.10)

    def test_full_seller_markup(self):
        # both factors 2: 2.0 -> 8.0
        view = seller_view(1.0, 2.0, 2.0, 1.0)
        assert adjust_reserve_full(2.0, view) == pytest.approx(8.0)

    def test_rejects_negative_base(self):
        with pytest.raises(InvalidConfig, match="reserve: must be >= 0"):
            adjust_reserve_full(-1.0, buyer_view(1, 1, 1, 1))

    @given(base=prices, m=magnitudes, k=magnitudes,
           role=st.sampled_from([Role.BUYER, Role.SELLER]))
    def test_identity_at_ratio_one_is_exact(self, base, m, k, role):
        view = PerceptionView(m, m, k, k, role)
        assert adjust_reserve_full(base, view) == base

    @given(base=prices, view=views,
           lam=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    def test_homogeneity(self, base, view, lam):
        direct = adjust_reserve_full(lam * base, view)
        scaled = lam * adjust_reserve_full(base, view)
        assert direct == pytest.approx(scaled, rel=1e-9, abs=1e-12)

    @given(base=st.floats(min_value=0.01, max_value=1e6), view=views)
    def test_buyer_direction(self, base, view):
        """More perceived seller desperation or more own power => lower reserve."""
        view = PerceptionView(view.own_motivation, view.other_motivation_perceived,
                              view.own_power, view.other_power_perceived, Role.BUYER)
        baseline = adjust_reserve_full(base, view)
        more_motivated_seller = PerceptionView(
            view.own_motivation, view.other_motivation_perceived * 1.5,
            view.own_power, view.other_power_perceived, Role.BUYER)
        assert adjust_reserve_full(base, more_motivated_seller) < baseline
        more_own_power = PerceptionView(
            view.own_motivation, view.other_motivation_perceived,
            view.own_power * 1.5, view.other_power_perceived, Role.BUYER)
        assert adjust_reserve_full(base, more_own_power) < baseline

    @given(base=prices, view=views)
    def test_motivation_equals_full_when_power_factor_is_one(self, base, view):
        balanced_power = PerceptionView(view.own_motivation,
                                        view.other_motivation_perceived,
                                        view.own_power, view.own_power, view.role)
        assert (adjust_reserve_full(base, balanced_power)
                == max(0.0, base * motivation_ratio(balanced_power)))

    @given(base=prices, view=views)
    def test_never_negative(self, base, view):
        assert adjust_reserve_full(base, view) >= 0.0


class TestEquityIndex:
    def test_balanced_is_exactly_one(self):
        assert equity_index(2.0, 3.0, 2.0, 3.0) == 1.0

    def test_example(self):
        assert equity_index(1.0, 4.0, 2.0, 1.0) == pytest.approx(0.125)

    @given(m_a=magnitudes, k_a=magnitudes, m_b=magnitudes, k_b=magnitudes)
    def test_doubling_k_b_doubles_index(self, m_a, k_a, m_b, k_b):
        assert equity_index(m_a, k_a, m_b, 2.0 * k_b) == 2.0 * equity_index(m_a, k_a, m_b, k_b)

    @given(m_a=magnitudes, k_a=magnitudes, m_b=magnitudes, k_b=magnitudes)
    def test_monotonicity(self, m_a, k_a, m_b, k_b):
        base = equity_index(m_a, k_a, m_b, k_b)
        assert equity_index(m_a * 1.5, k_a, m_b, k_b) > base
        assert equity_index(m_a, k_a, m_b, k_b * 1.5) > base
        assert equity_index(m_a, k_a * 1.5, m_b, k_b) < base
        assert equity_index(m_a, k_a, m_b * 1.5, k_b) < base

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 1.0, 1.0),
        (1.0, -2.0, 1.0, 1.0),
        (1.0, 1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0, 1e-12),
        (1.0, math.inf, 1.0, 1.0),
        (math.nan, 1.0, 1.0, 1.0),
    ])
    def test_non_positive_magnitudes_degenerate(self, args):
        assert equity_index(*args) is None

    @given(m=magnitudes, k=magnitudes)
    def test_symmetric_pairs(self, m, k):
        assert equity_index(m, k, m, k) == 1.0
