"""Multi-stage supply chains settled link by link, market end first.

Stage 0 is the market-facing link (the party that actually sells to
consumers buying from its supplier); the last stage is the raw-material or
labor link.  Price pressure propagates backward: each stage's buyer will
pay at most what it collects downstream minus the margin it insists on
keeping, further shrunk by whatever perception advantage it holds.  A link
that fails to settle starves every deeper link.

A link needs only its outcome, so it settles through ``negotiation.settle``,
not ``negotiation.run``: the same steps without the rows, and a stalled link
ends as soon as a contraction bound, less a rounding slack, proves its gap
stays open.  ``run`` remains the path of negotiation documents and the
oracle ``settle`` is tested against.

``settle`` takes a link's numbers rather than a ``NegotiationConfig`` and
checks none of them.  Each value is checked once, by the object that holds
it: a perception view's imbalance ratio when the view is built, a stage's
own values when its ``ChainStage`` is built, and the stopping rule by
``negotiation.check_stopping_rule``, which a ``ChainScenario`` and each
``propagate`` call run.  ``propagate``'s docstring shows that every other
invariant of a config then holds for every link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import negotiation
from .core import PerceptionView, Role, adjust_reserve_full, require_finite
from .errors import InvalidConfig
from .negotiation import Agreement, ConcessionRates, check_stopping_rule


@dataclass(frozen=True)
class ChainStage:
    """One bilateral link: the stage's buyer purchases from its seller.

    ``base_seller_reserve`` is the seller's unadjusted minimum price.  The
    buyer's unadjusted maximum is the price it receives from downstream,
    so it is not a field here; ``margin_floor`` is the absolute margin the
    buyer refuses to go below.  What a link's negotiation needs that does
    not depend on that price is built once: the seller's adjusted reserve
    and the imbalance-scaled rates.  The buyer's imbalance ratio is its
    view's ``ratio``.
    """

    name: str
    seller_view: PerceptionView
    buyer_view: PerceptionView
    base_seller_reserve: float
    rates: ConcessionRates
    margin_floor: float = 0.0
    seller_reserve_adj: float = field(init=False, repr=False, compare=False)
    scaled_rates: ConcessionRates = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.buyer_view.role is not Role.BUYER:
            raise InvalidConfig("must have role BUYER", field="buyer_view")
        if self.seller_view.role is not Role.SELLER:
            raise InvalidConfig("must have role SELLER", field="seller_view")
        if require_finite("base_seller_reserve", self.base_seller_reserve) < 0.0:
            raise InvalidConfig("must be >= 0", field="base_seller_reserve")
        # the buyer's adjusted reserve is capped by its incoming price; the seller's is not
        object.__setattr__(self, "seller_reserve_adj",
                           adjust_reserve_full(self.base_seller_reserve, self.seller_view))
        if not math.isfinite(self.seller_reserve_adj):
            raise InvalidConfig("must stay finite when adjusted by the seller's view",
                                field="base_seller_reserve")
        if require_finite("margin_floor", self.margin_floor) < 0.0:
            raise InvalidConfig("must be >= 0", field="margin_floor")
        object.__setattr__(self, "scaled_rates", negotiation.concession_rates_from_imbalance(
            self.rates, self.buyer_view.ratio, self.seller_view.ratio))


@dataclass(frozen=True)
class ChainSpec:
    stages: tuple[ChainStage, ...]
    anchor_price: float

    def __post_init__(self):
        if len(self.stages) < 1:
            raise InvalidConfig("must have at least one stage", field="stages")
        if require_finite("anchor_price", self.anchor_price) <= 0.0:
            raise InvalidConfig("must be > 0", field="anchor_price")
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class ChainScenario:
    """A chain with the stopping rule every link negotiates under.  The
    stages and anchor price are kept as the ``spec`` the engine runs on."""

    stages: tuple[ChainStage, ...]
    anchor_price: float
    gap_epsilon: float | None = None  # None: propagate's anchor-scaled default
    max_steps: int = 5000
    spec: ChainSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", ChainSpec(self.stages, self.anchor_price))
        check_stopping_rule(self.gap_epsilon, self.max_steps)

    def run(self) -> tuple[list[StageResult], SqueezeReport]:
        """Every link's result, and how the anchor price was shared out."""
        results = propagate(self.spec, self.gap_epsilon, self.max_steps)
        return results, squeeze_report(results)


@dataclass(frozen=True)
class StageResult:
    """Settled (or failed) state of one link.

    ``settlement`` and ``margin`` are None on breakdown; stages deeper
    than a broken link never negotiate, so their reserve is None as well.
    margin = incoming price - settlement.
    """

    name: str
    buyer_reserve_effective: float | None
    settlement: float | None
    margin: float | None

    @property
    def settled(self) -> bool:
        return self.settlement is not None


def _settle_stage(stage: ChainStage, incoming: float,
                  gap_epsilon: float, max_steps: int) -> tuple[float | None, float]:
    """Negotiate one link given the price its buyer collects downstream."""
    # adjust_reserve_full(incoming, stage.buyer_view), without its check of the incoming price
    buyer = min(max(0.0, incoming * stage.buyer_view.ratio),
                max(0.0, incoming - stage.margin_floor))
    seller = stage.seller_reserve_adj
    # Each side opens at the other's adjusted reserve (its best plausible
    # deal); min/max keeps the opening order valid when reserves invert.
    outcome = negotiation.settle(min(buyer, seller), max(buyer, seller), buyer, seller,
                                 stage.scaled_rates, gap_epsilon, max_steps)
    return (outcome.price if isinstance(outcome, Agreement) else None), buyer


def propagate(spec: ChainSpec, gap_epsilon: float | None,
              max_steps: int) -> list[StageResult]:
    """Settle every link from the market end toward the raw-material end.

    Stage k's buyer reserve is min(full imbalance adjustment of the
    incoming price, incoming price - margin floor); the incoming price is
    the anchor for stage 0 and the previous settlement after that.  The
    pass is single and sequential: a breakdown never reopens links that
    already settled.

    Each link settles from the fields of a NegotiationConfig without
    building one, so this is where every invariant of that config is met.
    The stopping rule is checked here, once, by ``check_stopping_rule``.
    The rest holds for every link by construction, given that the incoming
    price p is finite: the anchor is, and a settlement is the midpoint of
    two finite offers.
    - The stage was checked when it was built: its seller reserve is
      finite and >= 0, and its margin floor f is finite and >= 0.  Its
      buyer view's ratio rho was checked, finite and > 0, when the view
      was built.
    - The buyer reserve min(max(0, p rho), max(0, p - f)) is finite and
      >= 0, because its second term is: f >= 0 gives p - f <= p, and
      max(0, .) puts p - f, even at -inf, into [0, max(0, p)].
    - The opens are the reserves' min and max, so they are finite and in
      order.
    - All four anchors lie in [0, the float maximum], so their spread is
      finite.
    - The rates are the stage's ConcessionRates, checked when it was built.
    """
    if gap_epsilon is None:
        gap_epsilon = max(1e-9, 1e-6 * spec.anchor_price)
    check_stopping_rule(gap_epsilon, max_steps)
    results: list[StageResult] = []
    incoming: float | None = spec.anchor_price
    for stage in spec.stages:
        if incoming is None:
            results.append(StageResult(stage.name, None, None, None))
            continue
        settlement, buyer_reserve = _settle_stage(stage, incoming, gap_epsilon, max_steps)
        if settlement is None:
            results.append(StageResult(stage.name, buyer_reserve, None, None))
            incoming = None
        else:
            results.append(StageResult(stage.name, buyer_reserve, settlement,
                                       incoming - settlement))
            incoming = settlement
    return results


@dataclass(frozen=True)
class SqueezeReport:
    """Margin shares of the anchor price, plus the terminal residual.

    When every link settled, margin shares and the final settlement share
    sum to 1: the consumer price is fully accounted for by who kept what.
    """

    anchor_price: float | None
    margin_shares: tuple[tuple[str, float], ...]
    final_settlement_share: float | None
    complete: bool


def squeeze_report(results: list[StageResult]) -> SqueezeReport:
    """Distribution of the anchor price across stage margins.  ``results``
    is ``propagate``'s, one per stage of a spec, so it is never empty."""
    first = results[0]
    complete = all(r.settled for r in results)
    if not first.settled:
        return SqueezeReport(None, tuple((r.name, 0.0) for r in results), None, False)
    anchor = first.margin + first.settlement  # incoming price of stage 0
    shares = []
    for r in results:
        shares.append((r.name, (r.margin / anchor) if r.settled else 0.0))
    final_share = results[-1].settlement / anchor if complete else None
    return SqueezeReport(anchor, tuple(shares), final_share, complete)
