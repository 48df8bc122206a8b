import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bargainlab.errors import InvalidConfig
from bargainlab.nonmarket import (ExchangeProposal, ExternalInfluence, NonmarketScenario,
                                  Verdict, welfare_balance)

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
costs = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def balance(proposal, **context):
    """Balance sheet of a proposal in a context of threats, shields and promises."""
    return welfare_balance(NonmarketScenario(proposal, **context))


def verdict(m_a_eff, m_b_eff):
    """Verdict of an exchange, free of threats, with these effective motivations."""
    return balance(ExchangeProposal(give_cost_a=0.0, gain_for_b=m_b_eff,
                                    give_cost_b=0.0, gain_for_a=m_a_eff)).verdict


class TestValidation:
    def test_negative_costs_rejected(self):
        with pytest.raises(InvalidConfig, match="give_cost_a: must be >= 0"):
            ExchangeProposal(give_cost_a=-1.0, gain_for_b=1.0, give_cost_b=1.0, gain_for_a=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(threat_on_refusal=-1.0), dict(shield=-0.1), dict(shield=1.5),
    ])
    def test_influence_bounds(self, kwargs):
        with pytest.raises(InvalidConfig, match=f"{next(iter(kwargs))}: must "):
            ExternalInfluence(**kwargs)

    def test_promise_prob_bounds(self):
        proposal = ExchangeProposal(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidConfig, match=r"promise_keep_prob: must lie in \[0, 1\]"):
            balance(proposal, promise_keep_prob=1.5)


class TestAcceptanceCases:
    def test_symmetric_exchange_accepted_with_unit_equity(self):
        result = balance(ExchangeProposal(give_cost_a=2.0, gain_for_b=4.0,
                                          give_cost_b=2.0, gain_for_a=4.0))
        assert result.m_a == 2.0
        assert result.m_b_raw == 2.0
        assert result.verdict is Verdict.BOTH_ACCEPT
        assert result.equity == 1.0

    def test_threat_flips_a_negative_balance(self):
        # B loses on the goods alone (-1) but refusing costs 3 more
        proposal = ExchangeProposal(give_cost_a=0.5, gain_for_b=1.0,
                                    give_cost_b=2.0, gain_for_a=4.0)
        result = balance(proposal, influence_b=ExternalInfluence(threat_on_refusal=3.0))
        assert result.m_b_raw == -1.0
        assert result.m_b_effective == 2.0
        assert result.verdict is Verdict.BOTH_ACCEPT

    def test_full_shield_nullifies_the_threat(self):
        proposal = ExchangeProposal(give_cost_a=0.5, gain_for_b=1.0,
                                    give_cost_b=2.0, gain_for_a=4.0)
        result = balance(proposal,
                         influence_b=ExternalInfluence(threat_on_refusal=3.0, shield=1.0))
        assert result.m_b_effective == -1.0
        assert result.verdict is Verdict.B_REFUSES


class TestVerdictRule:
    @pytest.mark.parametrize("m_a,m_b,expected", [
        (1.0, 1.0, Verdict.BOTH_ACCEPT),
        (1.0, 0.0, Verdict.B_REFUSES),   # indifference refuses
        (0.0, 1.0, Verdict.A_REFUSES),
        (-1.0, -1.0, Verdict.BOTH_REFUSE),
        (0.0, 0.0, Verdict.BOTH_REFUSE),
    ])
    def test_strict_positivity(self, m_a, m_b, expected):
        assert verdict(m_a, m_b) is expected

    @given(m_a=finite, m_b=finite,
           scale=st.floats(min_value=0.01, max_value=100.0))
    def test_depends_only_on_signs(self, m_a, m_b, scale):
        # Scale the signs, not the values: m * scale can underflow a
        # subnormal to 0.0 and so change its sign.
        def sign(m):
            return (m > 0) - (m < 0)
        assert verdict(m_a, m_b) is verdict(sign(m_a) * scale, sign(m_b) * scale)


class TestThreats:
    @given(gain_b=finite, cost_b=costs,
           threat_lo=costs, extra=costs,
           shield=st.floats(min_value=0.0, max_value=1.0))
    def test_effective_motivation_monotone_in_threat(self, gain_b, cost_b,
                                                     threat_lo, extra, shield):
        proposal = ExchangeProposal(1.0, gain_b, cost_b, 1.0)
        low = balance(proposal, influence_b=ExternalInfluence(threat_lo, shield))
        high = balance(proposal, influence_b=ExternalInfluence(threat_lo + extra, shield))
        assert high.m_b_effective >= low.m_b_effective

    @given(gain_b=finite, cost_b=costs, threat=costs,
           shield_lo=st.floats(min_value=0.0, max_value=1.0),
           shield_hi=st.floats(min_value=0.0, max_value=1.0))
    def test_effective_motivation_antitone_in_shield(self, gain_b, cost_b, threat,
                                                     shield_lo, shield_hi):
        shield_lo, shield_hi = sorted((shield_lo, shield_hi))
        proposal = ExchangeProposal(1.0, gain_b, cost_b, 1.0)
        weak = balance(proposal, influence_b=ExternalInfluence(threat, shield_hi))
        strong = balance(proposal, influence_b=ExternalInfluence(threat, shield_lo))
        assert strong.m_b_effective >= weak.m_b_effective


class TestPromiseDiscount:
    def test_default_is_no_discount(self):
        proposal = ExchangeProposal(0.5, 10.0, 5.0, 5.5)
        assert balance(proposal) == balance(proposal, promise_keep_prob=1.0)

    def test_discount_scales_gain_and_power(self):
        proposal = ExchangeProposal(give_cost_a=0.5, gain_for_b=10.0,
                                    give_cost_b=5.0, gain_for_a=5.5)
        result = balance(proposal, promise_keep_prob=0.8)
        assert result.m_b_raw == pytest.approx(3.0)   # 8 - 5
        assert result.k_a == pytest.approx(7.5)       # 8 - 0.5
        assert result.m_a == pytest.approx(5.0)       # untouched
        assert result.verdict is Verdict.BOTH_ACCEPT

    def test_broken_promise_can_flip_the_verdict(self):
        proposal = ExchangeProposal(give_cost_a=0.5, gain_for_b=6.0,
                                    give_cost_b=5.0, gain_for_a=5.5)
        assert balance(proposal).verdict is Verdict.BOTH_ACCEPT
        assert balance(proposal, promise_keep_prob=0.5).verdict is Verdict.B_REFUSES


class TestEquity:
    def test_undefined_for_negative_raw_motivation(self):
        # extortion: B's own balance is negative, the index has no meaning
        proposal = ExchangeProposal(give_cost_a=0.2, gain_for_b=1.0,
                                    give_cost_b=4.0, gain_for_a=4.5)
        result = balance(proposal, influence_b=ExternalInfluence(10.0, 0.0))
        assert result.m_b_raw < 0
        assert result.equity is None
        assert result.verdict is Verdict.BOTH_ACCEPT

    def test_protecting_the_weak_raises_equity_toward_one(self):
        # raising what the weak side's good is worth to A raises k_b
        previous = 0.0
        for gain_for_a in (2.2, 2.6, 3.0, 3.4):
            result = balance(ExchangeProposal(give_cost_a=0.5, gain_for_b=6.0,
                                              give_cost_b=2.0, gain_for_a=gain_for_a))
            assert result.equity is not None
            assert previous < result.equity < 1.0
            previous = result.equity
