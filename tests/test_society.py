import math
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab import society
from bargainlab.errors import InvalidConfig
from bargainlab.society import (Authoritarian, Constant, Institutional,
                                Lognormal, SocietyConfig, Uniform,
                                compare_regimes, gini, run_society)
from society_reference import conservation_bound, reference_run


def config(**overrides):
    kwargs = dict(n_agents=40, initial_wealth=Uniform(1.0, 2.0),
                  regime=Authoritarian(1.0), epochs=30, pairings_per_epoch=1,
                  seed=99, unit_surplus=1.0)
    kwargs.update(overrides)
    return SocietyConfig(**kwargs)


#: Each float field of a society config, by name: the config with that
#: field set to a given value and every other field valid.
BUILD_WITH = {
    "value": lambda x: Constant(x),
    "lo": lambda x: Uniform(x, 2.0),
    "hi": lambda x: Uniform(1.0, x),
    "mu": lambda x: Lognormal(x, 1.0),
    "sigma": lambda x: Lognormal(0.0, x),
    "power_exponent": lambda x: Authoritarian(x),
    "cap": lambda x: Institutional(x),
    "unit_surplus": lambda x: config(unit_surplus=x),
}


def gini_bruteforce(values):
    """Pairwise-definition oracle: mean |x_i - x_j| over 2 * mean."""
    arr = np.asarray(values, dtype=float)
    diffs = np.abs(arr[:, None] - arr[None, :])
    return float(diffs.mean() / (2.0 * arr.mean()))


def gini_fsum(values):
    """Gini as sum_i (2i - n - 1) * x(i) over n * sum_i x(i), both sums by
    ``math.fsum``.  Each product rounds once and each fsum is correctly
    rounded, so this is within 6 units of roundoff of the exact Gini."""
    ranked = sorted(values)
    n = len(ranked)
    weighted = math.fsum((2 * i - n - 1) * x for i, x in enumerate(ranked, start=1))
    return weighted / (n * math.fsum(ranked))


def gini_error_bound(n):
    """Worst-case |gini - gini_fsum| for n values, in units u = 2**-53.

    Each of the kernel's sequential sums of non-negative terms is within
    relative gamma = (n - 1) u (to first order) of its exact value: the
    total once, the rank-weighted sum twice (its terms are the computed
    suffix sums).  So 2W / (nT) <= 2 is within 2 * (3 gamma + 2u), the
    constant (n + 1) / n and the last subtraction add 3u, and the oracle 6u.
    """
    return (6 * n + 16) * 2.0 ** -53


class TestGini:
    def test_perfect_equality(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_worked_example(self):
        assert gini([2.0, 1.0, 1.0]) == pytest.approx(1.0 / 6.0)

    def test_maximal_concentration(self):
        assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75)  # (n-1)/n

    def test_errors(self):
        with pytest.raises(InvalidConfig, match="^gini needs at least one value$"):
            gini([])
        with pytest.raises(InvalidConfig, match="^gini is undefined when every value is zero$"):
            gini([0.0, 0.0])
        with pytest.raises(InvalidConfig, match="^gini values must be non-negative$"):
            gini([1.0, -1.0])
        with pytest.raises(InvalidConfig, match="^gini values must be finite$"):
            gini([1.0, float("nan")])
        with pytest.raises(InvalidConfig, match="^gini values are too large"):
            gini([1e308, 1e308])  # the sum overflows
        with pytest.raises(InvalidConfig, match="^gini values are too large"):
            gini([1e306] * 100)  # the sum is finite, the rank-weighted sum is not

    @pytest.mark.parametrize("values", [5.0, [[1.0, 2.0]]])
    def test_takes_one_dimension(self, values):
        with pytest.raises(InvalidConfig, match="^gini takes a 1-D sequence of values$"):
            gini(values)

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_matches_pairwise_oracle(self, values):
        if sum(values) == 0.0:
            return
        assert gini(values) == pytest.approx(gini_bruteforce(values), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 200, 2001, 10 ** 4, 10 ** 5])
    def test_matches_fsum_oracle_within_its_error_bound(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            values = rng.lognormal(0.0, 3.0, size=n)
            assert abs(gini(values) - gini_fsum(values.tolist())) <= gini_error_bound(n)

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_bounds(self, values):
        if sum(values) == 0.0:
            return
        n = len(values)
        assert -1e-12 <= gini(values) <= 1.0 - 1.0 / n + 1e-12


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(n_agents=1), dict(epochs=0), dict(pairings_per_epoch=0),
        dict(seed=-1), dict(seed=2**64), dict(unit_surplus=0.0),
        # a bool is an int to Python, but not a count or a seed
        dict(n_agents=True), dict(epochs=True), dict(pairings_per_epoch=True), dict(seed=True),
    ])
    def test_scalar_bounds(self, overrides):
        with pytest.raises(InvalidConfig):
            config(**overrides)

    def test_distribution_bounds(self):
        with pytest.raises(InvalidConfig):
            Uniform(2.0, 1.0)
        with pytest.raises(InvalidConfig):
            Uniform(0.0, 1.0)
        with pytest.raises(InvalidConfig):
            Constant(0.0)
        with pytest.raises(InvalidConfig):
            Lognormal(0.0, -1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(BUILD_WITH))
    def test_non_finite_numbers_name_their_field(self, name, value):
        with pytest.raises(InvalidConfig) as excinfo:
            BUILD_WITH[name](value)
        assert (excinfo.value.field, excinfo.value.rule) == (name, "must be a finite number")

    def test_regime_bounds(self):
        with pytest.raises(InvalidConfig):
            Authoritarian(-0.5)
        with pytest.raises(InvalidConfig):
            Institutional(0.9)

    @pytest.mark.parametrize("overrides, rule", [
        (dict(initial_wealth=1.0), "initial_wealth must be a distribution spec"),
        (dict(regime=Constant(2.0)), "regime must be Authoritarian or Institutional"),
    ])
    def test_specs_must_have_their_types(self, overrides, rule):
        with pytest.raises(InvalidConfig) as excinfo:
            config(**overrides)
        assert (excinfo.value.field, excinfo.value.rule) == (None, rule)


class TestRunSociety:
    def test_flat_start_stays_flat_without_power(self):
        trace = run_society(config(initial_wealth=Constant(5.0),
                                   regime=Authoritarian(0.0), epochs=40))
        assert np.all(trace.gini_series == 0.0)

    def test_flat_start_stays_flat_under_hard_cap(self):
        trace = run_society(config(initial_wealth=Constant(5.0),
                                   regime=Institutional(1.0), epochs=40))
        assert np.all(trace.gini_series == 0.0)

    def test_trace_shape(self):
        trace = run_society(config(epochs=25))
        assert trace.gini_series.shape == (26,)
        assert trace.totals.shape == (26,)
        assert trace.final_wealth.shape == (40,)
        assert trace.final_gini == trace.gini_series[-1]

    def test_seed_determinism_is_bitwise(self):
        a, b = run_society(config()), run_society(config())
        assert np.array_equal(a.gini_series, b.gini_series)
        assert np.array_equal(a.totals, b.totals)
        assert np.array_equal(a.final_wealth, b.final_wealth)

    def test_different_seed_changes_the_run(self):
        a = run_society(config(seed=1))
        b = run_society(config(seed=2))
        assert not np.array_equal(a.final_wealth, b.final_wealth)

    @pytest.mark.parametrize("n_agents", [40, 41])  # odd n: one agent idles per round
    def test_wealth_conservation(self, n_agents):
        cfg = config(n_agents=n_agents, regime=Authoritarian(2.0), pairings_per_epoch=3)
        trace = run_society(cfg)
        assert trace.injected_per_epoch == 3 * (n_agents // 2) * 1.0
        bound = conservation_bound(cfg, trace.totals)
        assert np.all(bound <= 1e-6 * trace.injected_per_epoch)  # no looser than before
        assert np.all(np.abs(np.diff(trace.totals) - trace.injected_per_epoch) <= bound)

    def test_overflowing_power_ratio_gives_the_rich_side_everything(self):
        # a wealth ratio ** 400 beyond the float range means unbounded power
        cfg = SocietyConfig(n_agents=20, initial_wealth=Lognormal(0.0, 3.0),
                            regime=Authoritarian(400.0), epochs=1, pairings_per_epoch=1, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor may numpy warn about it
            trace = run_society(cfg)
        assert np.all(np.isfinite(trace.gini_series))
        grown = trace.totals[-1] - trace.totals[0]
        assert grown == pytest.approx(trace.injected_per_epoch, rel=1e-9)

    def test_wealth_leaving_the_float_range_is_a_config_error_without_warnings(self):
        # three rounds an epoch: the second already overflows inside the update
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfig) as raised:
                run_society(config(unit_surplus=1.7e308, pairings_per_epoch=3))
        assert raised.value.field == "unit_surplus"

    def test_compare_regimes_fails_as_a_lone_run_does(self):
        # both regimes inject the same surplus, so both leave the float range
        a = config(regime=Authoritarian(400.0), unit_surplus=1.7e308, pairings_per_epoch=3)
        b = replace(a, regime=Institutional(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lone = []
            for cfg in (a, b):
                with pytest.raises(InvalidConfig) as raised:
                    run_society(cfg)
                lone.append(raised.value)
            with pytest.raises(InvalidConfig) as raised:
                compare_regimes(a, b, n_seeds=3)
        assert [(e.field, e.rule) for e in lone] == [(raised.value.field, raised.value.rule)] * 2

    def test_memory_is_bounded_by_the_population(self):
        n = 200_000
        cfg = config(n_agents=n, epochs=1, pairings_per_epoch=2)
        tracemalloc.start()
        try:
            run_society(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 10.5 * n * 8 bytes today; the pair-by-pair loop took 16.5
        assert peak < 12 * n * 8 + 8 * society._PERM_INDICES

    def test_gamma_dominance_for_fixed_seed(self):
        finals = [run_society(config(regime=Authoritarian(g), epochs=100,
                                     n_agents=100, seed=777)).final_gini
                  for g in (0.0, 0.5, 1.0, 2.0, 3.0)]
        assert all(a <= b + 1e-12 for a, b in zip(finals, finals[1:]))

    def test_cap_dominance_for_fixed_seed(self):
        finals = [run_society(config(regime=Institutional(c), epochs=100,
                                     n_agents=100, seed=777)).final_gini
                  for c in (1.0, 1.1, 1.3, 1.7, 2.5)]
        assert all(a <= b + 1e-12 for a, b in zip(finals, finals[1:]))


class TestCompareRegimes:
    def test_identical_regimes_tie_exactly(self):
        result = compare_regimes(config(), config(), n_seeds=3)
        assert result.mean_diff == 0.0
        assert result.final_gini_a == result.final_gini_b

    def test_single_epoch_report_is_well_formed(self):
        a = config(epochs=1)
        b = replace(a, regime=Institutional(1.2))
        result = compare_regimes(a, b, n_seeds=2)
        assert len(result.seeds) == 2
        assert len(result.final_gini_a) == 2
        assert result.mean_diff == result.mean_a - result.mean_b

    def test_configs_must_match_outside_regime(self):
        a = config()
        b = replace(config(regime=Institutional(1.2)), n_agents=41)
        with pytest.raises(InvalidConfig,
                           match="^configs may differ only in their regime rule$"):
            compare_regimes(a, b, n_seeds=2)

    def test_authoritarian_ends_more_unequal(self):
        a = config(regime=Authoritarian(2.0), n_agents=60, epochs=120)
        b = replace(a, regime=Institutional(1.2))
        result = compare_regimes(a, b, n_seeds=5)
        assert result.mean_diff > 0.0
        assert result.n_positive >= 4


REGIMES = [Authoritarian(0.0), Authoritarian(0.7), Authoritarian(2.0), Authoritarian(3.0),
           Authoritarian(400.0), Institutional(1.0), Institutional(1.2), Institutional(3.0)]


def assert_finals_are_lone_runs(result, a, b):
    for cfg, finals in ((a, result.final_gini_a), (b, result.final_gini_b)):
        assert finals == tuple(run_society(replace(cfg, seed=s)).final_gini for s in result.seeds)


class TestSharedDraws:
    """A comparison draws each seed's stream once for both regimes and
    measures only the epochs it reads, yet every row is its lone run."""

    def test_each_seed_is_shuffled_from_one_stream(self, monkeypatch):
        real_rng = np.random.default_rng
        made, shuffled = [], []

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = real_rng(seed)
                made.append(self)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def permuted(self, *args, **kwargs):
                shuffled.append(self)
                return self.rng.permuted(*args, **kwargs)

        a = config(regime=Authoritarian(2.0), epochs=20, pairings_per_epoch=2)
        b = replace(a, regime=Institutional(1.2))
        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        result = compare_regimes(a, b, n_seeds=4)
        monkeypatch.undo()
        assert len(made) == 4
        assert len(set(map(id, shuffled))) == 4
        assert_finals_are_lone_runs(result, a, b)

    def test_a_late_overflow_fails_as_lone_runs_do(self):
        # 2n * total passes the float range at epoch 25 of 30, while every
        # wealth, being at most the total, stays finite
        a = config(regime=Authoritarian(2.0), unit_surplus=4.5e303)
        b = replace(a, regime=Institutional(1.2))
        n_pairs = a.n_agents // 2
        assert 2.0 * a.n_agents + a.epochs * n_pairs * a.unit_surplus < sys.float_info.max
        for cfg in (a, b):
            early = run_society(replace(cfg, epochs=24))
            assert math.isfinite(2 * cfg.n_agents * early.totals[-1])
            with pytest.raises(InvalidConfig):
                run_society(replace(cfg, epochs=25))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lone = []
            for cfg in (a, b):
                with pytest.raises(InvalidConfig) as raised:
                    run_society(cfg)
                lone.append(raised.value)
            with pytest.raises(InvalidConfig) as raised:
                compare_regimes(a, b, n_seeds=3)
        expected = ("unit_surplus", "total wealth overflows the float range")
        assert [(e.field, e.rule) for e in lone] == [expected] * 2
        assert (raised.value.field, raised.value.rule) == expected

    def test_a_raised_run_leaves_the_error_state_as_it_was(self):
        # the kernel ignores overflow only while it updates wealth; a raise
        # in the caller's measurement must not leave that setting behind
        a = config(regime=Authoritarian(2.0), unit_surplus=4.5e303)
        b = replace(a, regime=Institutional(1.2))
        for run in (lambda: run_society(a), lambda: compare_regimes(a, b, n_seeds=3)):
            # numpy's default, set here so that no earlier test can change it
            with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
                before = np.geterr()
                with pytest.raises(InvalidConfig) as raised:
                    run()
                assert raised.value.field == "unit_surplus"
                assert np.geterr() == before  # with the traceback still alive

    @pytest.mark.parametrize("n_seeds", [0, -1, 2.0, True])
    def test_the_seed_count_must_be_a_positive_integer(self, n_seeds):
        with pytest.raises(InvalidConfig) as raised:
            compare_regimes(config(), config(), n_seeds=n_seeds)
        assert (raised.value.field, raised.value.rule) == ("n_seeds", "must be a positive integer")

    def test_the_largest_seed_must_be_a_valid_seed(self):
        a = config(seed=2 ** 64 - 2)
        b = replace(a, regime=Institutional(1.2))
        assert compare_regimes(a, b, n_seeds=2).seeds == (2 ** 64 - 2, 2 ** 64 - 1)
        with pytest.raises(InvalidConfig) as raised:
            compare_regimes(a, b, n_seeds=3)
        assert raised.value.field == "seed"

    @pytest.mark.parametrize("regime_b", REGIMES, ids=repr)
    @pytest.mark.parametrize("regime_a", REGIMES, ids=repr)
    @settings(max_examples=5, deadline=None)
    @given(n_agents=st.integers(2, 60), epochs=st.integers(1, 6),
           pairings=st.integers(1, 4), seed=st.integers(0, 2 ** 32), n_seeds=st.integers(1, 3),
           wealth=st.sampled_from([Uniform(1.0, 2.0), Lognormal(0.0, 1.0), Lognormal(0.0, 3.0)]))
    def test_final_ginis_are_the_lone_runs(self, regime_a, regime_b, n_agents, epochs, pairings,
                                           seed, n_seeds, wealth):
        a = config(n_agents=n_agents, initial_wealth=wealth, regime=regime_a, epochs=epochs,
                   pairings_per_epoch=pairings, seed=seed)
        b = replace(a, regime=regime_b)
        result = compare_regimes(a, b, n_seeds=n_seeds)
        assert_finals_are_lone_runs(result, a, b)


class TestSeedBlocks:
    """A comparison runs its seeds in blocks of whole seeds, so its memory
    does not grow with the seed count and every row is still its lone run."""

    def test_peak_memory_does_not_grow_with_the_seed_count(self):
        n = 20_000
        a = config(n_agents=n, regime=Authoritarian(2.0), epochs=2, pairings_per_epoch=2)
        b = replace(a, regime=Institutional(1.2))
        peaks = []
        for n_seeds in (20, 80):
            # both counts span several blocks of the 2 * n values a seed holds
            assert n_seeds > 2 * society._BLOCK_VALUES // (2 * n)
            tracemalloc.start()
            try:
                compare_regimes(a, b, n_seeds=n_seeds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # about 6.5 * 8 bytes per value of a block; all 20 seeds in one array
        # peaked at 52 MB.  Past one block, a seed adds only its seed and its
        # two final Ginis, not its 2 * n * 8 bytes of wealth
        assert peaks[0] < 8 * 8 * society._BLOCK_VALUES
        assert peaks[1] <= peaks[0] + (80 - 20) * 1024

    def test_a_seed_counts_its_generator_and_sample(self, monkeypatch):
        # at n = 2 a seed's generator and sampled wealth, about 1.3 KB, far
        # outweigh its 2n wealth values: a block that counted only those
        # would hold every seed here
        monkeypatch.setattr(society, "_BLOCK_VALUES", 1 << 14)
        a = config(n_agents=2, epochs=1, pairings_per_epoch=1)
        b = replace(a, regime=Institutional(1.2))
        compare_regimes(a, b, n_seeds=300)  # numpy's first-call allocations
        peaks = []
        for n_seeds in (300, 900):
            tracemalloc.start()
            try:
                compare_regimes(a, b, n_seeds=n_seeds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # past one block a seed adds only its seed and its two final Ginis
        assert peaks[1] - peaks[0] < (900 - 300) * 200

    def test_blocks_of_seeds_give_the_lone_runs(self, monkeypatch):
        a = config(regime=Authoritarian(2.0), epochs=20, pairings_per_epoch=2)
        b = replace(a, regime=Institutional(1.2))
        monkeypatch.setattr(society, "_BLOCK_VALUES", 3 * (2 * a.n_agents + society._SEED_VALUES))
        blocks = []
        real_epochs = society._epochs

        def recording_epochs(cfg, regimes, seeds):
            blocks.append(seeds)
            return real_epochs(cfg, regimes, seeds)

        monkeypatch.setattr(society, "_epochs", recording_epochs)
        result = compare_regimes(a, b, n_seeds=7)
        assert [len(seeds) for seeds in blocks] == [3, 3, 1]
        assert sum(blocks, ()) == result.seeds
        assert_finals_are_lone_runs(result, a, b)


def assert_matches_reference(cfg, trace):
    wealth, ginis, totals = reference_run(cfg)
    assert np.array_equal(trace.final_wealth, wealth)
    assert np.array_equal(trace.gini_series, ginis)
    assert np.array_equal(trace.totals, totals)


class TestGiniRows:
    """The society kernel's one Gini pass over a (seeds, n) array against
    ``gini`` on each row, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 200), (5, 200), (20, 200), (3, 2001), (4, 1), (2, 2)])
    def test_sorted_rows_equal_one_row_at_a_time(self, shape):
        rng = np.random.default_rng(shape)
        wealth = rng.lognormal(0.0, 3.0, size=shape)
        wealth[0] = 7.0  # a flat row: every value ties
        assert society._gini_rows(np.sort(wealth, axis=1)) == [gini(row) for row in wealth]

    def test_one_bad_row_rejects_the_batch(self):
        wealth = np.ones((3, 10))
        wealth[1, 4] = np.inf
        with pytest.raises(InvalidConfig, match="^gini values must be finite$"):
            society._gini_rows(np.sort(wealth, axis=1))


def python_pow(base: float, exponent: float) -> float:
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


class TestPowerRatio:
    def test_float_power_is_python_pow_bit_for_bit(self):
        # the authoritarian ratio goes through np.float_power, which calls
        # libm's pow per element as Python's ** does; a SIMD loop, such as
        # np.power's, rounds some results differently
        rng = np.random.default_rng(1515)
        spreads = [rng.lognormal(0.0, sigma, (2, 4000)) for sigma in (0.5, 1.0, 3.0)]
        ratios = np.concatenate([[1.0, np.nan], rng.uniform(1.0, 1e3, 4000),
                                 *(np.max(w, axis=0) / np.min(w, axis=0) for w in spreads)])
        overflows = 0
        for exponent in (0.0, 0.7, 2.0, 3.0, 400.0, 5e-324):
            got = ratios.copy()
            op, operand = society._power_ratio(Authoritarian(exponent))
            with np.errstate(over="ignore"):
                op(got, operand, out=got)
            want = np.array([python_pow(r, exponent) for r in ratios.tolist()])
            assert np.array_equal(got, want, equal_nan=True), exponent
            overflows += np.isinf(want).sum()
        assert overflows > 0  # some ratio ** 400 raised, and float_power gave inf


#: Surpluses for the scalar-loop oracle.  At 1 a gain is its share itself,
#: so only the others tell surplus * (1 - s) from surplus - surplus * s.
SURPLUSES = [1.0, 0.3, 7.25]


class TestMatchesScalarLoop:
    """The round-at-a-time kernel against the pair-by-pair loop, bit for bit."""

    @pytest.mark.parametrize("surplus", SURPLUSES)
    @pytest.mark.parametrize("regime", REGIMES, ids=repr)
    @pytest.mark.parametrize("n_agents", [2, 3, 201])
    def test_regimes_and_populations(self, regime, n_agents, surplus):
        # sigma 1 spreads wealth ratios past 6, where ratio ** 400 overflows
        cfg = config(n_agents=n_agents, initial_wealth=Lognormal(0.0, 1.0), regime=regime,
                     epochs=15, pairings_per_epoch=2, unit_surplus=surplus)
        assert_matches_reference(cfg, run_society(cfg))

    @pytest.mark.parametrize("regime", REGIMES, ids=repr)
    def test_every_pair_ties_on_a_flat_start(self, regime):
        cfg = config(n_agents=21, initial_wealth=Constant(5.0), regime=regime, epochs=10,
                     pairings_per_epoch=3)
        assert_matches_reference(cfg, run_society(cfg))

    def test_rounds_past_one_permutation_buffer(self):
        cfg = config(n_agents=201, regime=Authoritarian(2.0), epochs=60, pairings_per_epoch=6)
        assert cfg.epochs * cfg.pairings_per_epoch > society._PERM_INDICES // cfg.n_agents
        assert_matches_reference(cfg, run_society(cfg))

    def test_epochs_past_one_gini_block(self):
        cfg = config(n_agents=201, regime=Authoritarian(2.0), epochs=170, pairings_per_epoch=1)
        assert cfg.epochs > 2 * (society._GINI_VALUES // cfg.n_agents)
        assert_matches_reference(cfg, run_society(cfg))

    @pytest.mark.parametrize("regime_b", [Authoritarian(0.7), Institutional(3.0)], ids=repr)
    @pytest.mark.parametrize("regime", [Authoritarian(3.0), Institutional(1.2)], ids=repr)
    def test_compare_regimes_batch_equals_single_runs(self, regime, regime_b):
        # ten rows of 201 agents fill the buffer in 32 rounds; this run makes 80
        a = config(n_agents=201, regime=regime, epochs=40, pairings_per_epoch=2)
        b = replace(a, regime=regime_b)
        result = compare_regimes(a, b, n_seeds=5)
        assert result.final_gini_a == tuple(
            run_society(replace(a, seed=s)).final_gini for s in result.seeds)
        assert result.final_gini_b == tuple(
            run_society(replace(b, seed=s)).final_gini for s in result.seeds)

    @pytest.mark.parametrize("surplus", SURPLUSES)
    @pytest.mark.parametrize("regimes", [
        [Authoritarian(400.0), Institutional(1.0)],
        [Authoritarian(2.0), Authoritarian(2.0)],  # one run of rows
        [Institutional(1.2), Authoritarian(0.7), Institutional(1.2)],
    ], ids=repr)
    def test_mixed_regime_rows_equal_their_lone_runs(self, regimes, surplus):
        # sigma 1 spreads wealth ratios past 6, where ratio ** 400 overflows
        base = config(n_agents=201, initial_wealth=Lognormal(0.0, 1.0), epochs=50,
                      pairings_per_epoch=2, unit_surplus=surplus)
        seeds = (11, 12)
        rounds = base.epochs * base.pairings_per_epoch
        assert rounds > society._PERM_INDICES // (len(regimes) * len(seeds) * base.n_agents)
        lone = [society._epochs(base, (r,), (s,)) for r in regimes for s in seeds]
        epochs = 0
        # the error state _epochs' callers set: ratio ** 400 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            for wealth in society._epochs(base, tuple(regimes), seeds):
                assert wealth.shape == (len(lone), base.n_agents)
                for row, run in zip(wealth, lone):
                    assert np.array_equal(row, next(run)[0])
                epochs += 1
        assert epochs == base.epochs + 1
        assert all(next(run, None) is None for run in lone)
        cfgs = [replace(base, regime=r, seed=s) for r in regimes for s in seeds]
        for cfg, row in zip(cfgs, wealth):
            assert np.array_equal(row, run_society(cfg).final_wealth)
            assert np.array_equal(row, reference_run(cfg)[0])
