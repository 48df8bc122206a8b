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


def conservation_bound(cfg: SocietyConfig, totals: np.ndarray) -> np.ndarray:
    """How far each epoch's increment ``np.diff(totals)`` may miss
    ``injected_per_epoch`` I, given the run's totals T_0, T_1, ...:
    (n + P) u (T_e-1 + T_e) + 4 u I for epoch e, with n agents, P
    pairings per epoch and u = 2^-53 the unit roundoff.

    Let S_e be the exact sum of the wealth after epoch e.  A pair's gains
    are the surplus times shares s and 1 - s that sum to exactly 1, so the
    two rounded products miss the surplus by at most u times it, and
    all m = n // 2 pairs of a round by u m surplus.  Each new wealth
    w + gain is one rounded addition, off by at most u/(1 - u) times the
    new wealth; no wealth decreases, so a round's new wealths sum to at most
    S_e.  Over P rounds, S_e - S_e-1 misses I by at most u I + P u S_e / (1 - u).
    A total is a left-to-right sum of n non-negative terms, within
    gamma_n-1 = (n - 1) u / (1 - (n - 1) u) of its exact value (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2),
    so the two totals add (n - 1) u (S_e-1 + S_e) to first order.  The
    float I and the subtraction of the totals round once each, adding at
    most 2 u I plus a second-order term.  With the n - 1 rounded up to n,
    the spare u (T_e-1 + T_e) covers every second-order term while
    n (n + P) u stays below 1/2, far above any population here.  With no
    subnormal wealth each rounding is relative.
    """
    u = 2.0 ** -53
    injected = cfg.pairings_per_epoch * (cfg.n_agents // 2) * cfg.unit_surplus
    return (cfg.n_agents + cfg.pairings_per_epoch) * u * (totals[:-1] + totals[1:]) \
        + 4 * u * injected
