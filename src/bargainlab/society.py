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
time.  ``compare_regimes`` runs both regimes over all its seeds as the rows
of one wealth array.  The regime never touches the generator, so the rows
of one seed share their draws: its initial wealth and pairings are drawn
once for both regimes.  A comparison measures only the first and the last
epoch, the ones it reads; a full run takes the Ginis of a block of epochs
in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import require_finite
from .errors import AllZero, ConfigMismatch, EmptyInput, InvalidConfig, InvalidInput


@dataclass(frozen=True)
class Constant:
    value: float

    def __post_init__(self):
        if require_finite("value", self.value, InvalidConfig) <= 0.0:
            raise InvalidConfig("must be > 0", field="value")


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if require_finite("lo", self.lo, InvalidConfig) <= 0.0:
            raise InvalidConfig("must be > 0", field="lo")
        if require_finite("hi", self.hi, InvalidConfig) <= self.lo:
            raise InvalidConfig("must be > lo", field="hi")


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def __post_init__(self):
        require_finite("mu", self.mu, InvalidConfig)
        if require_finite("sigma", self.sigma, InvalidConfig) < 0.0:
            raise InvalidConfig("must be >= 0", field="sigma")


WealthDistribution = Constant | Uniform | Lognormal


@dataclass(frozen=True)
class Authoritarian:
    power_exponent: float  # 0 disables the wealth-to-power coupling

    def __post_init__(self):
        if require_finite("power_exponent", self.power_exponent, InvalidConfig) < 0.0:
            raise InvalidConfig("must be >= 0", field="power_exponent")


@dataclass(frozen=True)
class Institutional:
    cap: float  # 1 forces exact parity

    def __post_init__(self):
        if require_finite("cap", self.cap, InvalidConfig) < 1.0:
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
            if not isinstance(value, int):
                raise InvalidConfig("must be an integer", field=name)
            if value < least:
                raise InvalidConfig(f"must be >= {least}", field=name)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise InvalidConfig("must be a 64-bit unsigned integer", field="seed")
        if require_finite("unit_surplus", self.unit_surplus, InvalidConfig) <= 0.0:
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
        raise InvalidInput("gini takes a 1-D sequence of values")
    if arr.size == 0:
        raise EmptyInput("gini needs at least one value")
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
        raise InvalidInput("gini values must be finite")
    if min(lo) < 0.0:
        raise InvalidInput("gini values must be non-negative")
    # the rank-weighted sum is at most n * total: 2n * total bounds every step.
    # A total is at least its row's largest value, so checking that first
    # means no partial sum overflows
    bound = 2.0 * n
    if not math.isfinite(bound * max(hi)):
        raise InvalidInput(_TOO_LARGE)
    suffix = np.add.accumulate(ranked[:, ::-1], axis=1)  # S_n, ..., S_1
    totals = suffix[:, -1].tolist()
    if not math.isfinite(bound * max(totals)):
        raise InvalidInput(_TOO_LARGE)
    if min(totals) == 0.0:
        raise AllZero("gini is undefined when every value is zero")
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
        # differently.  It overflows to inf where ** raises; the kernel gives
        # an infinite ratio share 1
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
    return _run_batch([cfg])[0]


#: Permutation indices held at a time across a batch's rows; rounds are
#: drawn in chunks of this size, so memory does not grow with the number of
#: rounds.
_PERM_INDICES = 1 << 16
#: Wealth values measured in one Gini pass: a block of epochs' snapshots,
#: small enough that the pass works in cache.
_GINI_VALUES = 1 << 14


def _run_batch(cfgs: list[SocietyConfig],
               series: bool = True) -> list[WealthTrace] | list[float]:
    """Run configs that differ only in their seed and regime as the rows of
    one (rows, n) wealth array, one update per round over every row's pairs.

    The regime never touches the generator, so rows that share a seed share
    one: that seed's initial wealth and per-round permutations are drawn
    once, in the order a lone run draws them, and used by each of its rows.
    Each pair's power ratio follows its own row's regime, so row s is
    bitwise the run of ``cfgs[s]`` by itself.

    With ``series`` false only epoch 0 and the last epoch are measured, and
    the rows' final Ginis are returned instead of their traces.  That still
    rejects every row a lone run rejects, with the same error: every share
    is >= 0 and the surplus > 0, so no wealth ever decreases.  A row's
    sorted values, and so its largest value and its total, are then
    monotone over the epochs, and an inf or NaN wealth never becomes finite
    again, so a row that leaves the float range at some epoch is still out
    of it at the last.
    """
    cfg, rows = cfgs[0], len(cfgs)
    n, n_pairs, pairings = cfg.n_agents, cfg.n_agents // 2, cfg.pairings_per_epoch
    streams: dict[int, int] = {}  # each distinct seed's index, in order of first use
    which = [streams.setdefault(c.seed, len(streams)) for c in cfgs]  # each row's stream
    rngs = [np.random.default_rng(seed) for seed in streams]
    wealth = np.stack([_sample_initial(cfg.initial_wealth, n, rng) for rng in rngs])[which]
    if np.any(wealth == 0.0):  # an exchange divides by the poorer side's wealth
        raise InvalidConfig("sampled wealth underflows to 0", field="initial_wealth")

    def measure(snapshots: np.ndarray, field: str) -> np.ndarray:
        """The (rows, epochs) Ginis of (epochs, rows, n) wealth snapshots."""
        # gini rejects positive wealth only when it leaves the float range;
        # report that at the config field that drove it there
        try:
            ginis = _gini_rows(np.sort(snapshots, axis=2).reshape(-1, n))
        except InvalidInput:
            raise InvalidConfig("total wealth overflows the float range",
                                field=field) from None
        return np.reshape(ginis, snapshots.shape[:2]).T

    def record(first: int, snapshots: np.ndarray, field: str) -> None:
        """Record the Ginis and totals of epochs first, first + 1, ... from
        their (epochs, rows, n) wealth snapshots."""
        span = slice(first, first + len(snapshots))
        gini_series[:, span] = measure(snapshots, field)
        # a running sum adds left to right like Python's sum(), where numpy's
        # sum() adds pairwise and rounds differently
        totals[:, span] = np.add.accumulate(snapshots, axis=2)[..., -1].T

    if series:
        gini_series = np.empty((rows, cfg.epochs + 1))
        totals = np.empty((rows, cfg.epochs + 1))
        # each epoch's wealth is held here and a block of epochs is measured
        # in one pass, so a small population does not pay numpy's per-call
        # cost every epoch
        held = np.empty((min(cfg.epochs, max(1, _GINI_VALUES // (rows * n))), rows, n))
        record(0, wealth[None], "initial_wealth")
    else:
        measure(wealth[None], "initial_wealth")

    # a round's pairs are laid out row after row, so each run of consecutive
    # rows that share a regime owns one slice of them
    starts = [s for s in range(rows) if s == 0 or cfgs[s].regime != cfgs[s - 1].regime]
    spans = [(cfgs[a].regime, slice(a * n_pairs, b * n_pairs))
             for a, b in zip(starts, starts[1:] + [rows])]

    surplus = cfg.unit_surplus
    flat = wealth.reshape(-1)  # a view: pairs index agents across all rows
    rounds = cfg.epochs * pairings
    chunk = min(rounds, max(1, _PERM_INDICES // (rows * n)))
    orders = np.empty((len(rngs), chunk, n), dtype=np.intp)
    # (chunk, rows * n_pairs): each round's first and second sides as
    # indices into flat, row after row
    firsts = np.empty((chunk, rows * n_pairs), dtype=np.intp)
    seconds = np.empty((chunk, rows * n_pairs), dtype=np.intp)
    row_offsets = (np.arange(rows) * n)[:, None]
    # inf and nan wealth are reported by measure(); numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(rounds):
            k = t % chunk
            if k == 0:
                block = orders[:, :min(chunk, rounds - t)]
                block[...] = np.arange(n)
                for rng, perms in zip(rngs, block):  # the stream of per-round rng.permutation(n)
                    rng.permuted(perms, axis=1, out=perms)
                pairs = block.swapaxes(0, 1)
                shape = (len(pairs), rows, n_pairs)
                np.add(pairs[:, which, 0:2 * n_pairs:2], row_offsets,
                       out=firsts[:len(pairs)].reshape(shape))
                np.add(pairs[:, which, 1:2 * n_pairs:2], row_offsets,
                       out=seconds[:len(pairs)].reshape(shape))
            first, second = firsts[k], seconds[k]
            w_first, w_second = flat[first], flat[second]
            first_rich = w_first >= w_second
            rho = np.maximum(w_first, w_second)
            rho /= np.minimum(w_first, w_second)
            for regime, span in spans:
                _power_ratio(rho[span], regime)
            share_rich = rho / (1.0 + rho)
            share_rich[np.isinf(rho)] = 1.0
            share_poor = 1.0 - share_rich
            flat[first] = w_first + surplus * np.where(first_rich, share_rich, share_poor)
            flat[second] = w_second + surplus * np.where(first_rich, share_poor, share_rich)
            if series and (t + 1) % pairings == 0:
                epoch = (t + 1) // pairings
                slot = (epoch - 1) % len(held)
                held[slot] = wealth
                if slot + 1 == len(held) or epoch == cfg.epochs:
                    record(epoch - slot, held[:slot + 1], "unit_surplus")

    if not series:
        return measure(wealth[None], "unit_surplus")[:, 0].tolist()
    injected = pairings * n_pairs * surplus
    return [WealthTrace(gini_series=gini_series[s], totals=totals[s],
                        injected_per_epoch=injected, final_wealth=wealth[s])
            for s in range(rows)]


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
    Both regimes run as the rows of one batch, which draws each seed's
    stream once for both and measures only the first and last epochs.
    """
    if not isinstance(n_seeds, int) or n_seeds < 1:
        raise InvalidConfig("must be a positive integer", field="n_seeds")
    if replace(cfg_a, regime=cfg_b.regime) != cfg_b:
        raise ConfigMismatch("configs may differ only in their regime rule")
    seeds = tuple(cfg_a.seed + i for i in range(n_seeds))
    finals = tuple(_run_batch([replace(cfg, seed=s) for cfg in (cfg_a, cfg_b) for s in seeds],
                              series=False))
    final_a, final_b = finals[:n_seeds], finals[n_seeds:]
    mean_a = sum(final_a) / n_seeds
    mean_b = sum(final_b) / n_seeds
    return RegimeComparison(
        seeds=seeds,
        final_gini_a=final_a,
        final_gini_b=final_b,
        mean_a=mean_a,
        mean_b=mean_b,
        mean_diff=mean_a - mean_b,
    )
