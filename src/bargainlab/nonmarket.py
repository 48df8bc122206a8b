"""Money-free exchanges: welfare bookkeeping, threats, and shields.

With no price to haggle over, each side simply balances what it would lose
by providing its good or service against what it would gain from the
other's, and accepts when the balance is positive.  Outside the goods
themselves sit the "gray areas": a threat makes refusal costly (so a party
can rationally accept an exchange whose own balance is negative), while a
shield -- laws, institutions, a protective environment -- discounts the
threat away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .core import equity_index, motivation, power, require_finite, require_nonnegative
from .errors import InvalidConfig


def _require_probability(name: str, value: float) -> float:
    value = require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise InvalidConfig("must lie in [0, 1]", field=name)
    return value


@dataclass(frozen=True)
class ExchangeProposal:
    """The four welfare deltas of a bilateral goods/services swap.

    Costs are positive magnitudes of welfare given up; gains are the
    welfare the receiving side attributes to the incoming good.
    """

    give_cost_a: float
    gain_for_b: float
    give_cost_b: float
    gain_for_a: float

    def __post_init__(self):
        for name in ("give_cost_a", "gain_for_b", "give_cost_b", "gain_for_a"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        for name in ("give_cost_a", "give_cost_b"):  # magnitudes of welfare given up
            require_nonnegative(name, getattr(self, name))


@dataclass(frozen=True)
class ExternalInfluence:
    """Context element unrelated to the traded goods.

    ``threat_on_refusal``: potential welfare loss if this side refuses.
    ``shield``: fraction of that threat neutralized by the environment
    (0 = unprotected, 1 = fully shielded).
    """

    threat_on_refusal: float = 0.0
    shield: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "threat_on_refusal",
                           require_nonnegative("threat_on_refusal", self.threat_on_refusal))
        object.__setattr__(self, "shield", _require_probability("shield", self.shield))


NO_INFLUENCE = ExternalInfluence()


@dataclass(frozen=True)
class NonmarketScenario:
    """One proposed exchange with its context: threats, shields, and how
    likely A is to keep a promised good.  Its balance sheet is kept as
    ``sheet``."""

    proposal: ExchangeProposal
    influence_a: ExternalInfluence = NO_INFLUENCE
    influence_b: ExternalInfluence = NO_INFLUENCE
    promise_keep_prob: float = 1.0
    sheet: BalanceSheet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_probability("promise_keep_prob", self.promise_keep_prob)
        sheet = welfare_balance(self)
        if not all(math.isfinite(v) for v in vars(sheet).values() if isinstance(v, float)):
            inputs = [(f"proposal.{name}", value) for name, value in vars(self.proposal).items()]
            inputs += [(f"{side}.threat_on_refusal", getattr(self, side).threat_on_refusal)
                       for side in ("influence_a", "influence_b")]
            raise InvalidConfig("the gains, costs and threats must keep the balance sheet finite",
                                field=max(inputs, key=lambda item: abs(item[1]))[0])
        object.__setattr__(self, "sheet", sheet)

    def run(self) -> BalanceSheet:
        return self.sheet


class Verdict(Enum):
    BOTH_ACCEPT = "both_accept"
    A_REFUSES = "a_refuses"
    B_REFUSES = "b_refuses"
    BOTH_REFUSE = "both_refuse"


@dataclass(frozen=True)
class BalanceSheet:
    """Motivations, powers, equity, and the resulting accept/refuse verdict.

    ``m_b_effective`` (and ``m_a_effective``) fold in the avoided threat:
    accepting dodges the threatened loss, so the un-shielded part of the
    threat counts as extra motivation to accept.
    """

    m_a: float
    m_a_effective: float
    m_b_raw: float
    m_b_effective: float
    k_a: float
    k_b: float
    equity: float | None
    verdict: Verdict


def _verdict(m_a_effective: float, m_b_effective: float) -> Verdict:
    # Strict positivity: indifference (exactly zero) refuses.
    a_accepts = m_a_effective > 0.0
    b_accepts = m_b_effective > 0.0
    if a_accepts and b_accepts:
        return Verdict.BOTH_ACCEPT
    if a_accepts:
        return Verdict.B_REFUSES
    if b_accepts:
        return Verdict.A_REFUSES
    return Verdict.BOTH_REFUSE


def welfare_balance(scenario: NonmarketScenario) -> BalanceSheet:
    """Full bookkeeping for one proposed exchange.

    ``promise_keep_prob`` discounts B's gain when A's good is only a
    promise that might not be kept (a scenario input, never inferred).
    Equity uses the raw motivations -- threats live outside the exchange --
    and is None whenever any magnitude entering the index is non-positive.
    """
    proposal, a, b = scenario.proposal, scenario.influence_a, scenario.influence_b
    gain_for_b = proposal.gain_for_b * scenario.promise_keep_prob
    m_a = motivation(proposal.gain_for_a, proposal.give_cost_a)
    m_b_raw = motivation(gain_for_b, proposal.give_cost_b)
    k_a = power(gain_for_b, proposal.give_cost_a)
    k_b = power(proposal.gain_for_a, proposal.give_cost_b)
    m_a_effective = m_a + a.threat_on_refusal * (1.0 - a.shield)
    m_b_effective = m_b_raw + b.threat_on_refusal * (1.0 - b.shield)
    return BalanceSheet(
        m_a=m_a,
        m_a_effective=m_a_effective,
        m_b_raw=m_b_raw,
        m_b_effective=m_b_effective,
        k_a=k_a,
        k_b=k_b,
        equity=equity_index(m_a, k_a, m_b_raw, k_b),
        verdict=_verdict(m_a_effective, m_b_effective),
    )
