"""The negotiation loop as it ran before it stopped iterating a stall.

This loop computes every step up to ``max_steps``, even after the offers
have settled on a rest point or a cycle, and stores a new row tuple for
each.  ``bargainlab.negotiation.run`` must return the same trace, cell for
cell and outcome for outcome, so this is its test oracle.  The exact rest
point, in rationals, is likewise the oracle of ``fixed_point``.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from bargainlab.negotiation import (Agreement, Breakdown, NegotiationConfig,
                                    NegotiationTrace, step)


def dynamics(cfg: NegotiationConfig) -> tuple:
    """The reserves and rates of ``cfg``: the arguments ``fixed_point``
    takes, and ``step`` takes after the two offers."""
    return cfg.buyer_reserve_adj, cfg.seller_reserve_adj, cfg.rates


def fields(cfg: NegotiationConfig) -> tuple:
    """The fields of ``cfg`` in order: the arguments ``settle`` takes."""
    return tuple(getattr(cfg, field.name) for field in dataclasses.fields(cfg))


def exact_fixed_point(cfg: NegotiationConfig) -> tuple[Fraction, Fraction]:
    """The rest point by Cramer's rule on the 2x2 system, in rationals."""
    r = cfg.rates
    r_a, r_a_prime, r_b, r_b_prime = map(Fraction, (r.r_a, r.r_a_prime, r.r_b, r.r_b_prime))
    buyer, seller = Fraction(cfg.buyer_reserve_adj), Fraction(cfg.seller_reserve_adj)
    # (r_a + r_a') x_a - r_a' x_b = r_a buyer, -r_b' x_a + (r_b + r_b') x_b = r_b seller
    det = (r_a + r_a_prime) * (r_b + r_b_prime) - r_a_prime * r_b_prime
    x_a = (r_a * buyer * (r_b + r_b_prime) + r_a_prime * r_b * seller) / det
    x_b = ((r_a + r_a_prime) * r_b * seller + r_b_prime * r_a * buyer) / det
    return x_a, x_b


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
        x_a, x_b = step(x_a, x_b, *dynamics(cfg))
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


def cycle(steps) -> tuple[int, int] | None:
    """``(start, period)`` of the cycle the offers settle on: the first
    step whose offers have the same bits as those of an earlier step
    ``start``, ``period`` steps back; None if no offers in the trace repeat.
    ``repr`` tells -0.0 from 0.0."""
    seen: dict[str, int] = {}
    for n, row in enumerate(steps):
        start = seen.setdefault(repr(row[:2]), n)
        if start != n:
            return start, n - start
    return None


#: Stalls whose offers settle on a cycle, by its period, with the step
#: ``cycle`` finds it starts at.  Each was found by a seeded search over
#: short decimal anchors and rates, with the buyer's reserve below the
#: seller's: periods 1 and 2 in a fig3-like range, 3, 4 and 6 with
#: anchors up to 1 000, where about 3 stalls in 1 000 settle on a period above 2.
CYCLING_STALLS = {
    1: (88, dict(buyer_open=5.6, seller_open=14.3, buyer_reserve_adj=8.0,
                 seller_reserve_adj=11.0, rates=(0.3, 0.02, 0.3, 0.03), gap_epsilon=0.05)),
    2: (101, dict(buyer_open=4.2, seller_open=10.4, buyer_reserve_adj=6.0,
                  seller_reserve_adj=8.0, rates=(0.3, 0.02, 0.25, 0.05), gap_epsilon=0.05)),
    3: (54, dict(buyer_open=40.9, seller_open=907.6, buyer_reserve_adj=34.6,
                 seller_reserve_adj=892.8, rates=(0.72, 0.2, 0.3, 0.39), gap_epsilon=0.05)),
    4: (92, dict(buyer_open=184.8, seller_open=429.0, buyer_reserve_adj=31.1,
                 seller_reserve_adj=937.6, rates=(0.27, 0.55, 0.38, 0.48), gap_epsilon=0.05)),
    6: (191, dict(buyer_open=209.3, seller_open=332.6, buyer_reserve_adj=764.0,
                  seller_reserve_adj=942.2, rates=(0.03, 0.79, 0.32, 0.67), gap_epsilon=0.05)),
}
