"""The negotiation loop as it ran before it stopped iterating a stall.

This loop computes every step up to ``max_steps``, even after the offers
have settled on a rest point or a 2-cycle, and stores a new row tuple for
each.  ``bargainlab.negotiation.run`` must return the same trace, cell for
cell and outcome for outcome, so this is its test oracle.
"""

from __future__ import annotations

import math

from bargainlab.negotiation import (Agreement, Breakdown, NegotiationConfig,
                                    NegotiationTrace, step)


def run(cfg: NegotiationConfig) -> NegotiationTrace:
    x_a, x_b = cfg.buyer_open, cfg.seller_open
    steps: list[tuple[float, float, float]] = []
    for n in range(cfg.max_steps + 1):
        gap = x_b - x_a
        steps.append((x_a, x_b, gap))
        if gap <= cfg.gap_epsilon:
            # halve first only if the sum overflows: halving is exact there
            total = x_a + x_b
            price = total / 2.0 if math.isfinite(total) else x_a / 2.0 + x_b / 2.0
            return NegotiationTrace(tuple(steps), Agreement(price=price, step=n))
        if n == cfg.max_steps:
            break
        x_a, x_b = step(x_a, x_b, cfg)
    return NegotiationTrace(tuple(steps), Breakdown(at_step=cfg.max_steps))


def first_repeat(steps) -> tuple[int, int] | None:
    """``(n, period)`` for the first step n >= 2 whose offers have the same
    bits as those at step n - 2, with period 1 if they also repeat step
    n - 1's; None if no such step is in the trace.  ``repr`` tells -0.0
    from 0.0."""
    for n in range(2, len(steps)):
        if repr(steps[n][:2]) == repr(steps[n - 2][:2]):
            return n, 1 if repr(steps[n][:2]) == repr(steps[n - 1][:2]) else 2
    return None


#: Stalls whose offers settle on a rest point (period 1) or a 2-cycle
#: (period 2), with the step ``first_repeat`` finds in their traces.  They
#: were found by a search over short decimal anchors and rates in a
#: fig3-like range, with the buyer's reserve below the seller's.
CYCLING_STALLS = {
    1: (90, dict(buyer_open=5.6, seller_open=14.3, buyer_reserve_adj=8.0,
                 seller_reserve_adj=11.0, rates=(0.3, 0.02, 0.3, 0.03), gap_epsilon=0.05)),
    2: (103, dict(buyer_open=4.2, seller_open=10.4, buyer_reserve_adj=6.0,
                  seller_reserve_adj=8.0, rates=(0.3, 0.02, 0.25, 0.05), gap_epsilon=0.05)),
}
