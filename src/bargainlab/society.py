"""Society-scale wealth dynamics under two power regimes.

Agents meet in random pairings (uniform perfect matchings of the
population, so everyone trades once per round) and each pair splits a
fixed joint surplus.  How the split tilts depends on the regime:

* authoritarian -- the richer agent's bargaining ratio is the wealth ratio
  raised to ``power_exponent``: wealth converts freely into power, and the
  conversion feeds back into more wealth;
* institutional -- the ratio is capped at ``cap``: laws, unions, and
  contracts bound how much advantage wealth can buy.

The stronger side takes share rho / (1 + rho) of the surplus.  Surplus is
injected (both sides gain), so the books must balance as
new total = old total + rounds * (n // 2) * unit_surplus each epoch;
inequality is tracked with the Gini coefficient.

A round's pairs are disjoint, so the kernel applies a whole round as one
array update, which gives the same floats as taking its pairs one at a
time.  A round's index row is laid out ``[first | second]``: its pairs'
first sides, then their second sides in the same order, so the round
gathers its wealth once and scatters it once.  The first sides' share is
``s`` = the richer side's share where the first is richer, else one minus
it, and the second sides' is ``1 - s``.  Every power ratio is at least 1,
so the richer side's share lies in [1/2, 1], where ``1 - share`` is exact
(Sterbenz's lemma) and ``1 - (1 - share)`` is ``share`` again: the one
gain buffer ``[s | 1 - s]`` times the surplus is bitwise the pair-by-pair
gains.  One kernel, ``_epochs``, runs one config under a tuple of regimes
from a tuple of seeds as the rows of one wealth array and yields that
array after each epoch; its callers measure what they read.
``run_society`` is its one-row case and takes the Ginis of a block of
epochs in one pass.  ``compare_regimes`` runs both regimes over a block of
seeds at a time and measures only the first and the last epoch.  The
regime never touches the generator, so the rows of one seed share their
draws: its initial wealth and pairings are drawn once for both regimes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .core import require_finite
from .errors import InvalidConfig


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if require_finite("value", self.value) <= 0.0:
            raise InvalidConfig("must be > 0", field="value")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if require_finite("lo", self.lo) <= 0.0:
            raise InvalidConfig("must be > 0", field="lo")
        if require_finite("hi", self.hi) <= self.lo:
            raise InvalidConfig("must be > lo", field="hi")


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def __post_init__(self):
        require_finite("mu", self.mu)
        if require_finite("sigma", self.sigma) < 0.0:
            raise InvalidConfig("must be >= 0", field="sigma")


WealthDistribution = Constant | Uniform | Lognormal


@dataclass(frozen=True)
class Authoritarian:
    power_exponent: float  # 0 disables the wealth-to-power coupling

    def __post_init__(self):
        if require_finite("power_exponent", self.power_exponent) < 0.0:
            raise InvalidConfig("must be >= 0", field="power_exponent")


@dataclass(frozen=True)
class Institutional:
    cap: float  # 1 forces exact parity

    def __post_init__(self):
        if require_finite("cap", self.cap) < 1.0:
            raise InvalidConfig("must be >= 1", field="cap")


RegimeRule = Authoritarian | Institutional


@dataclass(frozen=True)
class SocietyConfig:
    n_agents: int
    initial_wealth: WealthDistribution
    regime: RegimeRule
    epochs: int
    pairings_per_epoch: int
    seed: int
    unit_surplus: float = 1.0

    def __post_init__(self):
        for name, least in (("n_agents", 2), ("epochs", 1), ("pairings_per_epoch", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidConfig("must be an integer", field=name)
            if value < least:
                raise InvalidConfig(f"must be >= {least}", field=name)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not (
                0 <= self.seed < 2 ** 64):
            raise InvalidConfig("must be a 64-bit unsigned integer", field="seed")
        if require_finite("unit_surplus", self.unit_surplus) <= 0.0:
            raise InvalidConfig("must be > 0", field="unit_surplus")
        if not isinstance(self.initial_wealth, (Constant, Uniform, Lognormal)):
            raise InvalidConfig("initial_wealth must be a distribution spec")
        if not isinstance(self.regime, (Authoritarian, Institutional)):
            raise InvalidConfig("regime must be Authoritarian or Institutional")

    def run(self) -> WealthTrace:
        return run_society(self)


@dataclass(frozen=True)
class WealthTrace:
    """Per-epoch inequality and accounting series for one run.

    Index 0 of each series is the initial state; index e is the state
    after epoch e.  ``injected_per_epoch`` is the surplus added each epoch
    (pairings_per_epoch * (n_agents // 2) * unit_surplus), the quantity
    conservation is checked against.
    """

    gini_series: np.ndarray
    totals: np.ndarray
    injected_per_epoch: float
    final_wealth: np.ndarray

    @property
    def final_gini(self) -> float:
        return float(self.gini_series[-1])


def gini(wealths) -> float:
    """Gini coefficient of a 1-D sequence: mean absolute pairwise difference
    over twice the mean.  Ranges from 0 (perfect equality) to 1 - 1/n (one
    agent holds everything).

    Computed via the sorted-index identity, which is O(n log n) and equal
    to the n^2-pair definition: with x(1) <= ... <= x(n) the sorted values,
    G = 2 * sum_i i * x(i) / (n * total) - (n + 1) / n.  The rank-weighted
    sum is taken as sum_i i * x(i) = sum_k S_k, where S_k = x(k) + ... + x(n)
    are the suffix sums (x(i) sits in S_1 ... S_i).  Both sums are
    ``np.add.accumulate`` passes, which add in sequence and call no BLAS, so
    the result does not depend on the BLAS build or its thread count.  Every
    term is non-negative, so nothing cancels: each sum is within n rounding
    errors of its exact value.
    """
    arr = np.asarray(wealths, dtype=float)
    if arr.ndim != 1:
        raise InvalidConfig("gini takes a 1-D sequence of values")
    if arr.size == 0:
        raise InvalidConfig("gini needs at least one value")
    return _gini_rows(np.sort(arr)[None, :])[0]


_TOO_LARGE = "gini values are too large: 2n times their sum overflows"


def _gini_rows(ranked: np.ndarray) -> list[float]:
    """``gini`` of each row of ``ranked``, a (rows, n) array sorted along its
    rows.  Each row is summed on its own, so its result does not depend on
    the other rows."""
    n = ranked.shape[1]
    lo, hi = ranked[:, 0].tolist(), ranked[:, -1].tolist()
    # NaN sorts last and -inf first, so a row's ends check all of it
    if not all(map(math.isfinite, lo + hi)):
        raise InvalidConfig("gini values must be finite")
    if min(lo) < 0.0:
        raise InvalidConfig("gini values must be non-negative")
    # the rank-weighted sum is at most n * total: 2n * total bounds every step.
    # A total is at least its row's largest value, so checking that first
    # means no partial sum overflows
    bound = 2.0 * n
    if not math.isfinite(bound * max(hi)):
        raise InvalidConfig(_TOO_LARGE)
    suffix = np.add.accumulate(ranked[:, ::-1], axis=1)  # S_n, ..., S_1
    totals = suffix[:, -1].tolist()
    if not math.isfinite(bound * max(totals)):
        raise InvalidConfig(_TOO_LARGE)
    if min(totals) == 0.0:
        raise InvalidConfig("gini is undefined when every value is zero")
    weighted = np.add.accumulate(suffix, axis=1)[:, -1].tolist()
    return [2.0 * w / (n * t) - (n + 1) / n for w, t in zip(weighted, totals)]


def _sample_initial(dist: WealthDistribution, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, Constant):
        return np.full(n, dist.value, dtype=float)
    if isinstance(dist, Uniform):
        return rng.uniform(dist.lo, dist.hi, size=n)
    return rng.lognormal(dist.mu, dist.sigma, size=n)


def _power_ratio(ratio: np.ndarray, regime: RegimeRule) -> None:
    """Turn wealth ratios into the regime's power ratios, in place."""
    if isinstance(regime, Institutional):
        np.minimum(ratio, regime.cap, out=ratio)
    else:
        # float_power has no SIMD loop: it calls the C library's pow once per
        # ratio, as Python's float ** does, where np.power rounds some results
        # differently.  It overflows to inf where ** raises; the kernel clamps
        # that to the float maximum, whose share is 1
        np.float_power(ratio, regime.power_exponent, out=ratio)


def run_society(cfg: SocietyConfig) -> WealthTrace:
    """Simulate one society; deterministic given the config (incl. seed).

    Each epoch draws ``pairings_per_epoch`` uniform pairings (perfect
    matchings via a shuffle; with an odd population one agent sits a round
    out).  A round's exchanges see the wealth left by earlier rounds; within
    a round every agent trades at most once, so its pairs are disjoint and
    the round is one array update.  The richer side of a pair (the first of
    the pair on a tie) gets surplus share rho / (1 + rho) with rho from the
    regime rule.  Because every agent trades exactly once per round, exact
    power parity preserves a flat wealth distribution exactly.
    """
    n = cfg.n_agents
    gini_series = np.empty(cfg.epochs + 1)
    totals = np.empty(cfg.epochs + 1)
    # each epoch's wealth is held here and a block of epochs is measured in
    # one pass, so a small population does not pay numpy's per-call cost
    # every epoch
    held = np.empty((min(cfg.epochs, max(1, _GINI_VALUES // n)), n))

    def record(first: int, snapshots: np.ndarray, field: str) -> None:
        """Record the Ginis and totals of epochs first, first + 1, ... from
        their (epochs, n) wealth snapshots."""
        span = slice(first, first + len(snapshots))
        gini_series[span] = _ginis(snapshots, field)
        # a running sum adds left to right like Python's sum(), where numpy's
        # sum() adds pairwise and rounds differently
        totals[span] = np.add.accumulate(snapshots, axis=1)[:, -1]

    with np.errstate(over="ignore", invalid="ignore"):  # see _epochs
        epochs = _epochs(cfg, (cfg.regime,), (cfg.seed,))
        wealth = next(epochs)[0]
        record(0, wealth[None], "initial_wealth")
        for epoch, _ in enumerate(epochs, start=1):
            slot = (epoch - 1) % len(held)
            held[slot] = wealth
            if slot + 1 == len(held) or epoch == cfg.epochs:
                record(epoch - slot, held[:slot + 1], "unit_surplus")
    return WealthTrace(gini_series=gini_series, totals=totals, final_wealth=wealth,
                       injected_per_epoch=cfg.pairings_per_epoch * (n // 2) * cfg.unit_surplus)


#: Where an authoritarian power ratio is clamped: its share of the surplus
#: rounds to exactly 1, as an unbounded power's does.
_MAX_RATIO = np.finfo(float).max
#: Permutation indices held at a time across the kernel's rows; rounds are
#: drawn in chunks of this size, so memory does not grow with the number of
#: rounds.
_PERM_INDICES = 1 << 16
#: Wealth values measured in one Gini pass: a block of epochs' snapshots,
#: small enough that the pass works in cache.
_GINI_VALUES = 1 << 14
#: Wealth values a regime comparison holds at a time: it runs its seeds in
#: blocks of whole seeds (both regimes of each), so its memory does not
#: grow with the number of seeds.
_BLOCK_VALUES = 1 << 18
#: What a seed of a block holds besides its wealth, counted in wealth
#: values: its generator and its sampled initial wealth take about 1.3 KB
#: whatever the population.
_SEED_VALUES = 160


def _ginis(wealth: np.ndarray, field: str) -> list[float]:
    """``gini`` of each row of a (rows, n) wealth array.  Positive wealth is
    rejected only when it leaves the float range; that is reported at the
    config field that drove it there."""
    try:
        return _gini_rows(np.sort(wealth, axis=1))
    except InvalidConfig:
        raise InvalidConfig("total wealth overflows the float range", field=field) from None


def _epochs(cfg: SocietyConfig, regimes: tuple[RegimeRule, ...],
            seeds: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Run ``cfg`` under each regime from each seed as the rows of one
    (rows, n) wealth array, one update per round over every row's pairs.
    Rows are regime-major: row r * len(seeds) + s runs ``regimes[r]`` from
    ``seeds[s]``; ``cfg``'s own regime and seed are not read.  The array is
    yielded at epoch 0 and after each epoch, and updated in place between
    yields.

    The regime never touches the generator, so the rows of one seed share
    one: its initial wealth and per-round permutations are drawn once, in
    the order a lone run draws them, and used by each of its rows.  Each
    pair's power ratio follows its own row's regime, so every row is
    bitwise the lone run of its regime and seed.

    Its callers set numpy's error state, once per call, to ignore overflow
    and invalid results: inf and nan wealth are reported by their Ginis, so
    numpy need not warn first.
    """
    n, n_pairs, pairings = cfg.n_agents, cfg.n_agents // 2, cfg.pairings_per_epoch
    rngs = [np.random.default_rng(seed) for seed in seeds]
    wealth = np.tile(np.stack([_sample_initial(cfg.initial_wealth, n, rng) for rng in rngs]),
                     (len(regimes), 1))
    if np.any(wealth == 0.0):  # an exchange divides by the poorer side's wealth
        raise InvalidConfig("sampled wealth underflows to 0", field="initial_wealth")
    yield wealth

    rows, per_regime = len(wealth), len(seeds) * n_pairs
    half = rows * n_pairs
    surplus = cfg.unit_surplus
    flat = wealth.reshape(-1)  # a view: pairs index agents across all rows
    rounds = cfg.epochs * pairings
    chunk = min(rounds, max(1, _PERM_INDICES // (rows * n)))
    orders = np.empty((len(rngs), chunk, n), dtype=np.intp)
    # (chunk, 2 * half): each round's first sides as indices into flat, row
    # after row, then its second sides in the same order
    sides = np.empty((chunk, 2 * half), dtype=np.intp)
    row_offsets = (np.arange(rows) * n).reshape(len(regimes), len(seeds), 1)
    gain = np.empty(2 * half)  # [first sides' | second sides'] share of the surplus
    gain_first, gain_second = gain[:half], gain[half:]
    for epoch in range(cfg.epochs):
        for t in range(epoch * pairings, (epoch + 1) * pairings):
            if t % chunk == 0:
                block = orders[:, :min(chunk, rounds - t)]
                block[...] = np.arange(n)
                for rng, perms in zip(rngs, block):  # the stream of per-round rng.permutation(n)
                    rng.permuted(perms, axis=1, out=perms)
                pairs = block.swapaxes(0, 1)[:, None]  # (rounds, 1, seeds, n)
                both = sides[:len(pairs)].reshape(len(pairs), 2, len(regimes), len(seeds), n_pairs)
                np.add(pairs[..., 0:2 * n_pairs:2], row_offsets, out=both[:, 0])
                np.add(pairs[..., 1:2 * n_pairs:2], row_offsets, out=both[:, 1])
            side = sides[t % chunk]
            w = flat[side]
            w_first, w_second = w[:half], w[half:]
            rho = np.maximum(w_first, w_second)
            rho /= np.minimum(w_first, w_second)
            for r, regime in enumerate(regimes):  # regime r owns its rows' pairs
                ratios = rho[r * per_regime:(r + 1) * per_regime]
                _power_ratio(ratios, regime)
                if isinstance(regime, Authoritarian):
                    # a cap bounds institutional ratios; these are infinite
                    # where ratio ** exponent overflows.  Clamped to the float
                    # maximum they get share MAX / (1 + MAX), exactly 1; NaN
                    # stays NaN
                    np.minimum(ratios, _MAX_RATIO, out=ratios)
            share = rho / (1.0 + rho)
            # rho >= 1 puts share in [1/2, 1], so 1 - share is exact and
            # 1 - (1 - share) is share again: the second sides' gains are
            # bitwise the shares the first sides did not take
            gain_first[...] = np.where(w_first >= w_second, share, 1.0 - share)
            np.subtract(1.0, gain_first, out=gain_second)
            gain *= surplus
            w += gain
            flat[side] = w
        yield wealth


@dataclass(frozen=True)
class RegimeComparison:
    """Paired final-Gini outcomes for two regimes over a shared seed set."""

    seeds: tuple[int, ...]
    final_gini_a: tuple[float, ...]
    final_gini_b: tuple[float, ...]
    mean_a: float
    mean_b: float
    mean_diff: float  # mean_a - mean_b

    @property
    def n_positive(self) -> int:
        """Seeds where regime A ended more unequal than regime B."""
        return sum(1 for a, b in zip(self.final_gini_a, self.final_gini_b) if a > b)


def compare_regimes(cfg_a: SocietyConfig, cfg_b: SocietyConfig,
                    n_seeds: int) -> RegimeComparison:
    """Run both configs across the same seed set and compare final Ginis.

    The configs must be identical except (possibly) for the regime; seeds
    are cfg.seed, cfg.seed + 1, ... so replicate sweeps stay reproducible.
    The seeds run in blocks of whole seeds, each holding at most
    ``_BLOCK_VALUES`` wealth values (or one seed), a seed counting as its
    2n values plus ``_SEED_VALUES``, so memory does not grow with
    ``n_seeds``.  Within a block both regimes run as the rows of one
    array, which draws each seed's stream once for both.  Blocks run in
    seed order, so the error raised is the one of the first block that has
    a row a lone run rejects.

    Only epoch 0 and the last epoch are measured, yet every row a lone run
    rejects is rejected with the same error: every share is >= 0 and the
    surplus > 0, so no wealth ever decreases.  A row's sorted values, and so
    its largest value and its total, are then monotone over the epochs, and
    an inf or NaN wealth never becomes finite again, so a row that leaves
    the float range at some epoch is still out of it at the last.
    """
    if not isinstance(n_seeds, int) or isinstance(n_seeds, bool) or n_seeds < 1:
        raise InvalidConfig("must be a positive integer", field="n_seeds")
    if replace(cfg_a, regime=cfg_b.regime) != cfg_b:
        raise InvalidConfig("configs may differ only in their regime rule")
    seeds = tuple(cfg_a.seed + i for i in range(n_seeds))
    replace(cfg_a, seed=seeds[-1])  # the largest seed must be one a lone run takes
    final_a, final_b = [], []
    per_block = max(1, _BLOCK_VALUES // (2 * cfg_a.n_agents + _SEED_VALUES))
    with np.errstate(over="ignore", invalid="ignore"):  # see _epochs
        for first in range(0, n_seeds, per_block):
            block = seeds[first:first + per_block]
            epochs = _epochs(cfg_a, (cfg_a.regime, cfg_b.regime), block)
            _ginis(next(epochs), "initial_wealth")
            for wealth in epochs:  # to the last epoch; the array is updated in place
                pass
            finals = _ginis(wealth, "unit_surplus")
            final_a += finals[:len(block)]
            final_b += finals[len(block):]
    mean_a = sum(final_a) / n_seeds
    mean_b = sum(final_b) / n_seeds
    return RegimeComparison(
        seeds=seeds,
        final_gini_a=tuple(final_a),
        final_gini_b=tuple(final_b),
        mean_a=mean_a,
        mean_b=mean_b,
        mean_diff=mean_a - mean_b,
    )
