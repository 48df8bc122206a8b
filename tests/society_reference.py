"""The society model as a scalar loop over the pairs of each round.

This is the round loop that `bargainlab.society` ran before it updated a
whole round as one array operation.  It takes pairs one at a time in the
order of the round's shuffle, so it is the oracle that the vectorized
kernel must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from bargainlab.society import (Authoritarian, Constant, SocietyConfig, Uniform,
                                gini)


def _sample_initial(dist, n: int, rng: np.random.Generator) -> list[float]:
    if isinstance(dist, Constant):
        drawn = np.full(n, dist.value, dtype=float)
    elif isinstance(dist, Uniform):
        drawn = rng.uniform(dist.lo, dist.hi, size=n)
    else:
        drawn = rng.lognormal(dist.mu, dist.sigma, size=n)
    return [float(w) for w in drawn]


def _power_ratio(wealth_ratio: float, regime) -> float:
    if isinstance(regime, Authoritarian):
        try:
            return wealth_ratio ** regime.power_exponent
        except OverflowError:  # float ** raises where the rich side's power is unbounded
            return math.inf
    return min(wealth_ratio, regime.cap)


def reference_run(cfg: SocietyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(final_wealth, gini_series, totals) of one run, pair by pair."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_agents
    wealth = _sample_initial(cfg.initial_wealth, n, rng)
    gini_series, totals = [gini(wealth)], [sum(wealth)]
    surplus = cfg.unit_surplus
    for _ in range(cfg.epochs):
        for _ in range(cfg.pairings_per_epoch):
            order = rng.permutation(n).tolist()
            for k in range(n // 2):
                i, j = order[2 * k], order[2 * k + 1]
                wi, wj = wealth[i], wealth[j]
                if wi >= wj:
                    rich, poor, ratio = i, j, wi / wj
                else:
                    rich, poor, ratio = j, i, wj / wi
                rho = _power_ratio(ratio, cfg.regime)
                share_rich = 1.0 if math.isinf(rho) else rho / (1.0 + rho)
                wealth[rich] = wealth[rich] + surplus * share_rich
                wealth[poor] = wealth[poor] + surplus * (1.0 - share_rich)
        gini_series.append(gini(wealth))
        totals.append(sum(wealth))
    return np.asarray(wealth), np.asarray(gini_series), np.asarray(totals)
