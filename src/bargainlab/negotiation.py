"""Iterative offer dance between one buyer and one seller.

Each step both parties move their standing offer: partly toward their own
(already imbalance-adjusted) reserve price, partly toward the opponent's
current offer:

    buyer_next  = buyer  + r_a * (buyer_reserve - buyer) + r_a' * (seller - buyer)
    seller_next = seller - r_b * (seller - seller_reserve) - r_b' * (seller - buyer)

The four concession rates encode strategy: r is the propensity to yield
toward one's reserve, r' the eagerness to close the remaining gap.  Rates
are constant within a run.  Because each update is a convex combination of
(own offer, own reserve, opponent offer), offers stay inside the convex
hull of the four anchor prices and the iteration matrix is a strict
contraction, so the coupled system has a unique rest point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .core import (PerceptionView, adjust_reserve_full, require_finite, require_ratio,
                   require_reserve)
from .errors import InvalidConfig

#: Clamp bounds used when imbalance scaling pushes a rate out of range.
RATE_MIN = 1e-9
RATE_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class ConcessionRates:
    """Per-step concession fractions for both sides.

    ``r_a``/``r_b`` pull each side toward its own reserve and must be in
    (0, 1); ``r_a_prime``/``r_b_prime`` pull toward the opponent's offer
    and may be zero.  Each side's pair must sum below 1 so a step stays a
    bounded interpolation.
    """

    r_a: float
    r_a_prime: float
    r_b: float
    r_b_prime: float

    def __post_init__(self):
        for name in ("r_a", "r_a_prime", "r_b", "r_b_prime"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        for name in ("r_a", "r_b"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise InvalidConfig("must lie in (0, 1)", field=name)
        for name in ("r_a_prime", "r_b_prime"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InvalidConfig("must lie in [0, 1)", field=name)
        if self.r_a + self.r_a_prime >= 1.0:
            raise InvalidConfig("r_a + r_a_prime must be < 1")
        if self.r_b + self.r_b_prime >= 1.0:
            raise InvalidConfig("r_b + r_b_prime must be < 1")


@dataclass(frozen=True)
class NegotiationConfig:
    buyer_open: float
    seller_open: float
    buyer_reserve_adj: float
    seller_reserve_adj: float
    rates: ConcessionRates
    gap_epsilon: float
    max_steps: int

    def __post_init__(self):
        for name in ("buyer_open", "seller_open", "buyer_reserve_adj",
                     "seller_reserve_adj", "gap_epsilon"):
            object.__setattr__(self, name, require_finite(name, getattr(self, name)))
        if self.seller_open < self.buyer_open:
            raise InvalidConfig("must be >= buyer_open", field="seller_open")
        # offers stay in the anchors' hull, so a finite spread keeps every
        # offer and gap finite
        anchors = {name: getattr(self, name) for name in
                   ("buyer_open", "seller_open", "buyer_reserve_adj", "seller_reserve_adj")}
        if not math.isfinite(max(anchors.values()) - min(anchors.values())):
            raise InvalidConfig("the opens and reserves must span a finite range",
                                field=max(anchors, key=lambda name: abs(anchors[name])))
        check_stopping_rule(self.gap_epsilon, self.max_steps)
        if not isinstance(self.rates, ConcessionRates):
            raise InvalidConfig("must be a ConcessionRates", field="rates")


def check_stopping_rule(gap_epsilon: float | None, max_steps: int) -> None:
    """A run stops when the gap is at most a finite gap_epsilon > 0 (None:
    the caller's default) or after max_steps >= 1 updates."""
    if gap_epsilon is not None and not require_finite("gap_epsilon", gap_epsilon) > 0.0:
        raise InvalidConfig("must be > 0", field="gap_epsilon")
    if not isinstance(max_steps, int) or isinstance(max_steps, bool):
        raise InvalidConfig("must be an integer", field="max_steps")
    if max_steps < 1:
        raise InvalidConfig("must be >= 1", field="max_steps")


@dataclass(frozen=True)
class SideSpec:
    """One negotiator: opening offer, reserve price, optional perceptions.

    With a view attached the reserve is a base price that gets the full
    imbalance adjustment before the run; without one it is used as the
    already-adjusted reserve.
    """

    open: float
    reserve: float
    view: PerceptionView | None = None

    def __post_init__(self):
        require_reserve(self.reserve)

    def reserve_adj(self) -> float:
        return adjust_reserve_full(self.reserve, self.view) if self.view else self.reserve


#: NegotiationConfig fields that NegotiationScenario derives from other
#: fields of its own, by the path of the field each comes from.
_CONFIG_SOURCES = {"buyer_open": "buyer.open", "seller_open": "seller.open",
                   "buyer_reserve_adj": "buyer.reserve", "seller_reserve_adj": "seller.reserve"}


@dataclass(frozen=True)
class NegotiationScenario:
    """A negotiation as a scenario states it: each side's perceptions rather
    than already-adjusted reserves, resolved once into ``config``.  An
    invariant of the config is reported at the field it comes from."""

    buyer: SideSpec
    seller: SideSpec
    rates: ConcessionRates
    max_steps: int
    gap_epsilon: float = 0.05
    scale_rates_by_imbalance: bool = False
    config: NegotiationConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rates = self.rates
        if self.scale_rates_by_imbalance:
            rho_buyer = self.buyer.view.ratio if self.buyer.view else 1.0
            rho_seller = self.seller.view.ratio if self.seller.view else 1.0
            rates = concession_rates_from_imbalance(rates, rho_buyer, rho_seller)
        try:
            config = NegotiationConfig(
                buyer_open=self.buyer.open,
                seller_open=self.seller.open,
                buyer_reserve_adj=self.buyer.reserve_adj(),
                seller_reserve_adj=self.seller.reserve_adj(),
                rates=rates,
                gap_epsilon=self.gap_epsilon,
                max_steps=self.max_steps,
            )
        except InvalidConfig as exc:
            raise InvalidConfig(exc.rule, field=_CONFIG_SOURCES.get(exc.field, exc.field)) from None
        object.__setattr__(self, "config", config)

    def to_config(self) -> NegotiationConfig:
        """The runnable NegotiationConfig the perceptions resolve to."""
        return self.config

    def run(self) -> NegotiationTrace:
        """The offer trace of the resolved config (the module's ``run``)."""
        return run(self.config)


@dataclass(frozen=True)
class Agreement:
    price: float
    step: int


@dataclass(frozen=True)
class Breakdown:
    at_step: int


Outcome = Agreement | Breakdown


@dataclass(frozen=True)
class NegotiationTrace:
    """A run's offers and outcome.

    ``rows`` holds one ``(offer_buyer, offer_seller, gap)`` row per step the
    run iterated; a row's index is its step number.  A stall may state the
    cycle its offers settled on instead of iterating it: with ``period`` > 0
    the last ``period`` rows repeat, in order, up to the breakdown step.
    ``steps`` holds every step's row.
    """

    rows: tuple[tuple[float, float, float], ...]
    outcome: Outcome
    period: int = 0

    @property
    def agreed(self) -> bool:
        return isinstance(self.outcome, Agreement)

    @cached_property
    def steps(self) -> tuple[tuple[float, float, float], ...]:
        return self.expand(self.rows)

    def expand(self, items):
        """``items``, one per row of ``rows``, extended to one per step: item
        k past the end is item ``len(items) - period + (k - len(items)) mod
        period``.  A list gives a list and a tuple a tuple."""
        if not self.period:
            return items
        cycle = items[len(items) - self.period:]
        laps, rest = divmod(self.outcome.at_step + 1 - len(items), self.period)
        return items + cycle * laps + cycle[:rest]


def concession_rates_from_imbalance(base: ConcessionRates, rho_buyer: float,
                                    rho_seller: float) -> ConcessionRates:
    """Scale base rates by each side's perceived imbalance.

    A disadvantaged buyer (rho_buyer > 1) concedes faster, so its rates are
    multiplied by rho_buyer; an advantaged seller (rho_seller > 1) concedes
    slower, so its rates are divided by rho_seller.  Results are clamped
    into range and, if a side's pair would sum to 1 or more, shrunk
    proportionally so the interpolation invariant survives.  A ratio of
    exactly 1 leaves that side's rates untouched.
    """
    require_ratio(rho_buyer, "rho_buyer")
    require_ratio(rho_seller, "rho_seller")

    def scale_pair(r: float, r_prime: float, factor: float) -> tuple[float, float]:
        if factor == 1.0:
            return r, r_prime
        r = min(max(r * factor, RATE_MIN), RATE_MAX)
        r_prime = min(r_prime * factor, RATE_MAX)
        total = r + r_prime
        if total > RATE_MAX:
            shrink = RATE_MAX / total
            r *= shrink
            r_prime *= shrink
        return r, r_prime

    r_a, r_a_prime = scale_pair(base.r_a, base.r_a_prime, rho_buyer)
    r_b, r_b_prime = scale_pair(base.r_b, base.r_b_prime, 1.0 / rho_seller)
    return ConcessionRates(r_a, r_a_prime, r_b, r_b_prime)


def step(x_a: float, x_b: float, buyer_reserve: float, seller_reserve: float,
         rates: ConcessionRates) -> tuple[float, float]:
    """One simultaneous update of both offers, toward the (adjusted)
    reserves and each other at ``rates``."""
    next_a = x_a + rates.r_a * (buyer_reserve - x_a) + rates.r_a_prime * (x_b - x_a)
    next_b = x_b - rates.r_b * (x_b - seller_reserve) - rates.r_b_prime * (x_b - x_a)
    return next_a, next_b


def _agreement(x_a: float, x_b: float, n: int) -> Agreement:
    """Agreement at step n, settled at the midpoint of the two offers."""
    # halve first only if the sum overflows: halving is exact there
    total = x_a + x_b
    return Agreement(price=total / 2.0 if math.isfinite(total) else x_a / 2.0 + x_b / 2.0,
                     step=n)


def run(cfg: NegotiationConfig) -> NegotiationTrace:
    """Iterate the dance until the offers meet or max_steps is exhausted.

    Agreement is declared at the first step whose gap (seller minus buyer
    offer) is at most gap_epsilon, which also covers crossed offers; the
    settlement is the midpoint of the two terminal offers.  If the gap is
    still open after max_steps updates the negotiation breaks down.

    The update is a fixed function of the two offers.  So once the offers
    at step n equal those at an earlier step n - p, the rows after n repeat
    the last p rows, none can close the gap, and the run breaks down: the
    trace states that cycle as its ``period`` instead of iterating it.

    Each step's offers are compared with one saved pair, as in Brent's
    cycle detection.  The k-th pair saved is that of step s = k(k + 1) / 2,
    kept for k + 1 steps, so once s is past the step m where the cycle
    starts, a period p <= k + 1 is found at step s + p: about sqrt(2m) + p
    steps after m for a short cycle.  Saving at powers of two, as Brent
    does, can take m steps more, and a slowly settling stall has m in the
    thousands.  The test needs equal bits, and ``==`` equates 0.0 and
    -0.0, so offers of zero never take it.
    """
    x_a, x_b = cfg.buyer_open, cfg.seller_open
    buyer, seller, rates = cfg.buyer_reserve_adj, cfg.seller_reserve_adj, cfg.rates
    gap_epsilon, max_steps = cfg.gap_epsilon, cfg.max_steps
    saved_a, saved_b, saved_n, span = math.nan, math.nan, 0, 0
    rows: list[tuple[float, float, float]] = []
    for n in range(max_steps + 1):
        gap = x_b - x_a
        rows.append((x_a, x_b, gap))
        if gap <= gap_epsilon:
            return NegotiationTrace(tuple(rows), _agreement(x_a, x_b, n))
        if n == max_steps:
            break
        if x_a == saved_a and x_b == saved_b and x_a and x_b:
            return NegotiationTrace(tuple(rows), Breakdown(at_step=max_steps), n - saved_n)
        if n == saved_n + span:
            saved_a, saved_b, saved_n, span = x_a, x_b, n, span + 1
        x_a, x_b = step(x_a, x_b, buyer, seller, rates)
    return NegotiationTrace(tuple(rows), Breakdown(at_step=max_steps))


def settle(buyer_open: float, seller_open: float, buyer_reserve: float, seller_reserve: float,
           rates: ConcessionRates, gap_epsilon: float, max_steps: int) -> Outcome:
    """``run(cfg).outcome``, for cfg the NegotiationConfig whose fields are
    the arguments in order, without the rows, ending a stall as soon as
    its gap provably stays open.  The arguments must meet that config's
    invariants, which ``settle`` does not check.

    The iteration, agreement test and price are ``run``'s.  The proof: the
    update is x' = M x + k with M = [[1 - r_a - r_a', r_a'], [r_b', 1 - r_b
    - r_b']].  M is non-negative and its row sums are 1 - r_a and 1 - r_b,
    so it contracts the max norm by 1 - m, m = min(r_a, r_b), toward the
    rest point x* = ``fixed_point``.  Every later offer therefore stays
    within e = max(|x_a - x*_a|, |x_b - x*_b|) of x*, and every later gap
    is at least (x*_b - x*_a) - 2e.  The factor 2 is needed: a large r_a'
    can carry the buyer past x*_a while a large r_b' carries the seller
    past x*_b.  Once that bound, less twice ``slack``, exceeds gap_epsilon,
    no later step can agree and the outcome is the breakdown at max_steps.

    ``slack`` = c u S (1 + 1/m), with u = 2^-53, S the largest anchor
    magnitude but at least 1, and c = 32.  Offers and rest point lie in
    [-S, S] to first order, and a floating-point operation errs by at most
    u times its result, plus u 2^-1022 for a product that underflows, which
    S >= 1 absorbs.  Per coordinate, to first order in u:
    - a step errs by at most 4u(r + r')S + 2uS + 2uS <= 8uS (two
      differences, two products, two sums), and the contraction keeps the
      errors of all later steps together below A = 8uS/m;
    - ``fixed_point`` errs by F <= 6uS.  A side's odds t carry a relative
      error of at most 4u (a sum, two quotients and a product).  That
      moves its two weights, whose exact sum is 1, by at most 4u t/(1 +
      t)^2 <= u in opposite directions, against reserves at most 2S apart:
      2uS.  Each weight's own two roundings add 2uS, the two products uS
      and their sum uS.  A quotient that leaves the float range, or a
      product that underflows, errs by far less than uS;
    - e (counted twice), the test's three operations and a later step's
      ``gap <= gap_epsilon`` err by 2uS, 6uS and 4uS.
    So the gap stays open if 2 slack >= 4F + 2A + 14uS, that is if slack
    >= 19uS + 8uS/m, which c (1 + 1/m) meets for every m < 1 once c >= 19.
    c = 32 also covers the higher-order terms, among them the offers' hull
    growing by a factor 1 + 8u per step.  Measured, much less suffices: an
    adversarial search over 4.8 million configs with gap_epsilon a few ulps
    under the rest gap found none that needs c above 0.7258, and the tests'
    edge-config fuzz none above 0.  A test pins the config that needs 0.7258.
    Only c >= 19 is proved, so c stays 32.

    A stall the bound cannot end, because its rates are too small for the
    bound to pass, may still reach a step that leaves both offers as they
    were.  Every later step would do the same, so the stall ends there, as
    ``run``'s repeat test would end it.  The step has no division, so
    offers of equal value evolve alike and, unlike ``run``, this test need
    not tell 0.0 from -0.0.
    """
    x_a, x_b = buyer_open, seller_open
    rest_a, rest_b = fixed_point(buyer_reserve, seller_reserve, rates)
    scale = max(1.0, abs(buyer_open), abs(seller_open), abs(buyer_reserve), abs(seller_reserve))
    slack = 32.0 * 2.0 ** -53 * scale * (1.0 + 1.0 / min(rates.r_a, rates.r_b))
    open_gap = (rest_b - rest_a) - 2.0 * slack
    for n in range(max_steps + 1):
        if x_b - x_a <= gap_epsilon:
            return _agreement(x_a, x_b, n)
        if n == max_steps or (
                open_gap - 2.0 * max(abs(x_a - rest_a), abs(x_b - rest_b)) > gap_epsilon):
            break
        offers = step(x_a, x_b, buyer_reserve, seller_reserve, rates)
        if offers == (x_a, x_b):
            break
        x_a, x_b = offers
    return Breakdown(at_step=max_steps)


def fixed_point(buyer_reserve: float, seller_reserve: float,
                rates: ConcessionRates) -> tuple[float, float]:
    """Rest point of the coupled update, in closed form.

    At rest each offer is a convex combination of the two reserves:

        x_a = w_a * buyer_reserve + v_a * seller_reserve
        x_b = v_b * buyer_reserve + w_b * seller_reserve

    with (w, v) = (1 / (1 + t), t / (1 + t)) for each side's odds t, the
    weight it puts on the opponent's reserve over the weight on its own:

        t_a = (r_a' / r_a) * (r_b / (r_b + r_b'))
        t_b = (r_b' / r_b) * (r_a / (r_a + r_a'))

    Cramer's rule on the 2x2 system that zeroes both increments, divided
    through by r_a (r_b + r_b'), gives x_a = (buyer_reserve + t_a *
    seller_reserve) / (1 + t_a), and x_b likewise.  Since r_a, r_b > 0
    every divisor is positive, so there is always a rest point.  t lies in
    [0, inf]; t = inf gives (0, 1), so no inf / inf can occur.  A zero
    cross-rate gives t = 0, which puts that side's offer exactly on its
    own reserve.

    Only a tiny r_a or r_b can take a quotient out of the float range.
    When both lie below 2^-512, t_a is formed as (r_a' / (r_b + r_b')) *
    (r_b / r_a), whose second quotient then lies within a factor 2^562 of
    1, and t_b likewise.  Either way a quotient that overflows or
    underflows implies odds, or their reciprocal, below 2^-460, which
    moves a weight by less than that.  ``settle``'s docstring bounds the
    rounding error.

    With nonzero cross-rates this rest point differs from the pair of
    reserves: each side is pulled off its reserve by its eagerness to
    close the gap.

    Each offer is clamped into the reserves' range, where the exact one
    lies.  That never moves it away from the exact offer, and it keeps an
    offer finite when rounding would take a combination of reserves near
    the float maximum past it.
    """
    w_a, v_a = _rest_weights(rates.r_a, rates.r_a_prime, rates.r_b, rates.r_b_prime)
    w_b, v_b = _rest_weights(rates.r_b, rates.r_b_prime, rates.r_a, rates.r_a_prime)
    buyer, seller = buyer_reserve, seller_reserve
    x_a, x_b = w_a * buyer + v_a * seller, v_b * buyer + w_b * seller
    # comparisons, not min and max, which would double this function's cost
    low, high = (buyer, seller) if buyer < seller else (seller, buyer)
    return (low if x_a < low else high if x_a > high else x_a,
            low if x_b < low else high if x_b > high else x_b)


def _rest_weights(r: float, r_prime: float, other: float,
                  other_prime: float) -> tuple[float, float]:
    """One side's rest weights (w, v) on its own and the opponent's reserve,
    from its rates ``r``, ``r_prime`` and the opponent's."""
    total = other + other_prime
    if max(r, other) < 2.0 ** -512:
        odds = r_prime / total * (other / r)
    else:
        odds = r_prime / r * (other / total)
    if odds == math.inf:
        return 0.0, 1.0
    return 1.0 / (1.0 + odds), odds / (1.0 + odds)
