"""Primitive quantities of a two-party exchange.

Everything here is expressed as welfare deltas on an abstract, per-scenario
utility scale:

* motivation  -- net welfare gain a party expects from completing the
  exchange (what it receives minus what it gives up),
* power       -- a party's perceived ability to change the other's welfare
  per unit of own welfare relinquished,
* perceived imbalance -- the product of the motivation ratio and the power
  ratio one side believes holds between the parties.  Each side carries a
  single scalar; imbalance is perceived as a whole, not element by element.

The imbalance scalar rescales reserve prices before a negotiation starts:
a buyer who sees a desperate, powerless seller lowers the maximum it is
willing to pay, and symmetrically for the seller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidConfig

#: Divisors below this floor are rejected instead of used: imbalance_ratio
#: raises InvalidConfig, so no PerceptionView holds one, and equity_index
#: returns None.
DEFAULT_EPSILON = 1e-9


class Role(Enum):
    BUYER = "buyer"
    SELLER = "seller"


def require_finite(name: str, value: float) -> float:
    """``value`` as a float, or InvalidConfig naming ``name`` if it is not a finite number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise InvalidConfig("must be a finite number", field=name)
    return float(value)


def require_positive(name: str, value: float) -> float:
    """``value`` as a float, or InvalidConfig naming ``name`` unless it is finite and > 0."""
    value = require_finite(name, value)
    if value <= 0.0:
        raise InvalidConfig("must be > 0", field=name)
    return value


def require_nonnegative(name: str, value: float) -> float:
    """``value`` as a float, or InvalidConfig naming ``name`` unless it is finite and >= 0."""
    value = require_finite(name, value)
    if value < 0.0:
        raise InvalidConfig("must be >= 0", field=name)
    return value


def require_count(name: str, value: int, least: int) -> int:
    """``value``, or InvalidConfig naming ``name`` unless it is an integer >= ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidConfig("must be an integer", field=name)
    if value < least:
        raise InvalidConfig(f"must be >= {least}", field=name)
    return value


def _require_divisor(name: str, value: float) -> float:
    if value < DEFAULT_EPSILON:
        raise InvalidConfig(f"must be >= the epsilon floor {DEFAULT_EPSILON!r}, got {value!r}",
                            field=name)
    return value


@dataclass(frozen=True)
class PerceptionView:
    """One side's private estimates of the four exchange magnitudes.

    For a buyer: its own motivation and power, plus the motivation and power
    it attributes to the seller.  For a seller, the mirror image.  All four
    magnitudes must be strictly positive; they appear as divisors in the
    ratio formulas below.

    ``ratio`` is the view's ``imbalance_ratio``, taken once when the view is
    built, so a view whose divisor is below the epsilon floor, or whose
    ratio or its reciprocal leaves the float range, is never built.
    """

    own_motivation: float
    other_motivation_perceived: float
    own_power: float
    other_power_perceived: float
    role: Role
    ratio: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("own_motivation", "other_motivation_perceived",
                     "own_power", "other_power_perceived"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))
        if not isinstance(self.role, Role):
            raise InvalidConfig("must be a Role", field="role")
        object.__setattr__(self, "ratio", imbalance_ratio(self))


def require_role(name: str, view: PerceptionView, role: Role) -> PerceptionView:
    """``view``, or InvalidConfig naming ``name`` unless it is ``role``'s view."""
    if not isinstance(view, PerceptionView):
        raise InvalidConfig("must be a PerceptionView", field=name)
    if view.role is not role:
        raise InvalidConfig(f"must have role {role.name}", field=name)
    return view


def motivation(gain: float, loss: float) -> float:
    """Net motivation to exchange: welfare gained minus welfare given up.

    ``loss`` is the positive magnitude of what is relinquished.  The result
    may be negative; negative motivations are legal values but are rejected
    wherever they would become divisors (see PerceptionView).
    """
    return require_finite("gain", gain) - require_finite("loss", loss)


def power(effect_on_other: float, own_cost: float) -> float:
    """Exchange power: welfare change inflicted on the other party, net of
    the welfare the holder must spend to produce it."""
    return require_finite("effect_on_other", effect_on_other) - require_finite("own_cost", own_cost)


def require_ratio(rho: float, name: str | None = None) -> float:
    """An imbalance ratio whose reciprocal is finite and > 0 too (a seller's
    rates are divided by it), or InvalidConfig naming ``name``."""
    if not 0.0 < rho < math.inf or math.isinf(1.0 / rho):
        raise InvalidConfig("imbalance ratio and its reciprocal must be finite and > 0",
                            field=name)
    return rho


def imbalance_ratio(view: PerceptionView) -> float:
    """Scalar imbalance one side perceives between the parties.

    Buyer:  (own motivation / seller's perceived motivation)
          * (seller's perceived power / own power)
    Seller: (buyer's perceived motivation / own motivation)
          * (own power / buyer's perceived power)

    A value below 1 means the side holds the advantage (it will push its
    reserve price in its own favor); above 1 means it is the weak side.
    Raises InvalidConfig if a divisor is below DEFAULT_EPSILON, or if the
    ratio or its reciprocal leaves the float range.
    """
    if view.role is Role.BUYER:
        _require_divisor("other_motivation_perceived", view.other_motivation_perceived)
        _require_divisor("own_power", view.own_power)
        return require_ratio((view.own_motivation / view.other_motivation_perceived) * (
            view.other_power_perceived / view.own_power))
    _require_divisor("own_motivation", view.own_motivation)
    _require_divisor("other_power_perceived", view.other_power_perceived)
    return require_ratio((view.other_motivation_perceived / view.own_motivation) * (
        view.own_power / view.other_power_perceived))


def adjust_reserve_full(base: float, view: PerceptionView) -> float:
    """Reserve price adjusted by the full motivation-and-power imbalance.

    Equals ``base * view.ratio`` clamped at zero.  With extreme
    perceived advantages this can drive a buyer's maximum offer to a small
    fraction of the going rate, which is exactly the squeeze the model is
    built to expose.

    ``base`` must be finite and >= 0, and is not checked again here: each
    caller's was checked where it lives (``SideSpec.reserve``,
    ``ChainStage.base_seller_reserve``) or is a chain link's incoming
    price, which ``chain.propagate`` shows to be finite and >= 0.
    """
    return max(0.0, base * view.ratio)


def equity_index(m_a: float, k_a: float, m_b: float, k_b: float) -> float | None:
    """Cross-ratio fairness indicator (m_a * k_b) / (m_b * k_a).

    Equals 1 when motivations and powers are balanced; falls below 1 as
    side A gains power or side B gains desperation.  Defined only when all
    four magnitudes are finite and at least DEFAULT_EPSILON; None otherwise,
    as for a non-positive motivation.
    """
    if not all(DEFAULT_EPSILON <= value < math.inf for value in (m_a, k_a, m_b, k_b)):
        return None
    return (m_a * k_b) / (m_b * k_a)
