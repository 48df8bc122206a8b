"""society workload, in-process: the 20-seed regime comparison at the
defaults of ``scripts/compare_regimes.py``, as four ``compare_regimes``
calls of 5 consecutive seeds, plus single ``run_society`` runs in both
regimes at n = 200, 2000 and 20000 with equal pair exchanges.

The sweep (small population, many seeds) is where batching across seeds
shows; the scaling runs (large populations) are where vectorising each
round shows.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from harness import Round, mean

from bargainlab.society import (Authoritarian, Institutional, Lognormal, SocietyConfig,
                                Uniform, compare_regimes, gini, run_society)

# pair exchanges per scaling run: epochs x pairings x n / 2 is the same for every n
SCALING = ((200, 1000), (2000, 100), (20000, 10))
PAIRINGS = 2
SWEEP = dict(n_agents=200, epochs=500, pairings_per_epoch=2, n_seeds=20)
# The 20 seeds are swept as consecutive slices, one compare_regimes call
# each.  A slice still batches several seeds, and shorter calls let the
# best time of each slice be found on a machine whose speed drifts.
SWEEP_SLICES = 4
GAMMA, CAP = 2.0, 1.2
GINI_REPEATS = 20
# Today the scalar ratio ** exponent raises OverflowError on this run, so
# the branch meant for an infinite ratio is never reached.  Fixed inputs.
OVERFLOW = SocietyConfig(n_agents=20, initial_wealth=Lognormal(0.0, 3.0),
                         regime=Authoritarian(400.0), epochs=1, pairings_per_epoch=1, seed=7)


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    first_seed = int(rng.integers(0, 2 ** 32))
    base = dict(n_agents=SWEEP["n_agents"], initial_wealth=Uniform(1.0, 2.0),
                epochs=SWEEP["epochs"], pairings_per_epoch=SWEEP["pairings_per_epoch"],
                seed=first_seed)
    runs = []
    for n, epochs in SCALING:
        for regime in (Authoritarian(GAMMA), Institutional(CAP)):
            runs.append(SocietyConfig(n_agents=n, initial_wealth=Uniform(1.0, 2.0), regime=regime,
                                      epochs=epochs, pairings_per_epoch=PAIRINGS,
                                      seed=int(rng.integers(0, 2 ** 32))))
    per_slice = SWEEP["n_seeds"] // SWEEP_SLICES
    slices = [(SocietyConfig(regime=Authoritarian(GAMMA), **{**base, "seed": first_seed + k}),
               SocietyConfig(regime=Institutional(CAP), **{**base, "seed": first_seed + k}))
              for k in range(0, SWEEP["n_seeds"], per_slice)]
    return {"sweep": (slices, per_slice),
            "runs": runs, "first": None}


def _regime_args(cfg: SocietyConfig):
    if isinstance(cfg.regime, Authoritarian):
        return "authoritarian", cfg.regime.power_exponent
    return "institutional", cfg.regime.cap


def _check_run(cfg: SocietyConfig, trace) -> list[str]:
    problems = oracles.check_conservation(trace.totals, cfg.epochs, trace.injected_per_epoch,
                                          trace.final_wealth)
    expected_injected = cfg.pairings_per_epoch * (cfg.n_agents // 2) * cfg.unit_surplus
    if trace.injected_per_epoch != expected_injected:
        problems.append(f"injected_per_epoch {trace.injected_per_epoch!r} != {expected_injected!r}")
    if len(trace.gini_series) != cfg.epochs + 1:
        problems.append("gini series has the wrong length")
    pairwise = oracles.pairwise_gini(trace.final_wealth)
    if abs(pairwise - trace.gini_series[-1]) > 1e-9:
        problems.append(f"final gini {trace.gini_series[-1]!r}, pairwise {pairwise!r}")
    if cfg.n_agents <= 200:
        regime, parameter = _regime_args(cfg)
        wealth, ginis = oracles.reference_society(cfg.n_agents, cfg.initial_wealth.lo,
                                                  cfg.initial_wealth.hi, regime, parameter,
                                                  cfg.epochs, cfg.pairings_per_epoch, cfg.seed,
                                                  cfg.unit_surplus)
        scale = np.maximum(1.0, np.abs(wealth))
        if np.max(np.abs(wealth - trace.final_wealth) / scale) > 1e-12:
            problems.append("final wealth differs from the reference round loop")
        if np.max(np.abs(np.asarray(ginis) - trace.gini_series)) > 1e-9:
            problems.append("gini series differs from the pairwise gini of the reference loop")
    return [f"n={cfg.n_agents} {_regime_args(cfg)[0]}: {p}" for p in problems]


def _check_sweep(slices, results) -> list[str]:
    problems = []
    # the first seed of the first slice, recomputed apart from the program
    for cfg, got in zip(slices[0], (results[0].final_gini_a[0], results[0].final_gini_b[0])):
        regime, parameter = _regime_args(cfg)
        wealth, _ = oracles.reference_society(cfg.n_agents, cfg.initial_wealth.lo,
                                              cfg.initial_wealth.hi, regime, parameter,
                                              cfg.epochs, cfg.pairings_per_epoch, cfg.seed,
                                              cfg.unit_surplus)
        expected = oracles.pairwise_gini(wealth)
        if abs(got - expected) > 1e-9:
            problems.append(f"sweep seed {cfg.seed} {regime}: final gini {got!r}, "
                            f"reference {expected!r}")
    for result in results:
        n = len(result.seeds)
        if len(result.final_gini_a) != n or len(result.final_gini_b) != n:
            problems.append("sweep lost seeds")
        if not all(0.0 <= g < 1.0 for g in result.final_gini_a + result.final_gini_b):
            problems.append("a final gini lies outside [0, 1)")
        if abs(result.mean_a - sum(result.final_gini_a) / n) > 1e-12 or \
                abs(result.mean_b - sum(result.final_gini_b) / n) > 1e-12:
            problems.append("sweep means are not the means of the final ginis")
    if not sum(r.mean_a for r in results) > sum(r.mean_b for r in results):
        problems.append("authoritarian mean final gini is not above the institutional one")
    return problems


def run_round(state: dict, tr, full_check: bool) -> Round:
    result = Round()
    outputs = []
    for cfg in state["runs"]:
        regime = _regime_args(cfg)[0]
        with tr.span("bench.society_run", f"n{cfg.n_agents}-{regime}"):
            with tr.span("society.run_society", f"n{cfg.n_agents}"):
                start = time.perf_counter()
                trace = run_society(cfg)
                elapsed = time.perf_counter() - start
        piece = f"n{cfg.n_agents}-{regime}"
        result.units.append((piece, elapsed))
        result.work.append((piece, cfg.epochs * cfg.pairings_per_epoch * (cfg.n_agents // 2),
                            elapsed))
        result.attempted += 1
        outputs.append((trace.final_wealth.copy(), trace.gini_series.copy()))
        if full_check:
            result.problems += _check_run(cfg, trace)
        if cfg.n_agents == SCALING[-1][0]:
            state["large_wealth"] = trace.final_wealth
        del trace

    slices, per_slice = state["sweep"]
    sweep = []
    with tr.span("bench.regime_sweep"):
        for index, (cfg_a, cfg_b) in enumerate(slices):
            with tr.span("society.compare_regimes"):
                start = time.perf_counter()
                sweep.append(compare_regimes(cfg_a, cfg_b, n_seeds=per_slice))
                result.jobs.append((f"seeds-{index}", time.perf_counter() - start))
    result.attempted += len(slices)
    outputs += sweep
    if full_check:
        result.problems += _check_sweep(slices, sweep)

    result.attempted += 1
    try:
        with tr.span("bench.overflow_run"):
            with tr.span("society.run_society", "overflow"):
                trace = run_society(OVERFLOW)
    except OverflowError:
        result.failed += 1
    else:
        outputs.append((trace.final_wealth.copy(), trace.gini_series.copy()))
        if full_check:
            result.problems += oracles.check_conservation(
                trace.totals, OVERFLOW.epochs, trace.injected_per_epoch, trace.final_wealth)

    # the inputs repeat every round, so the outputs must repeat bit for bit
    if state["first"] is None:
        state["first"] = outputs
    elif not _same(outputs, state["first"]):
        result.problems.append("outputs differ from the first round's on the same inputs")
    return result


def _same(outputs, first) -> bool:
    for a, b in zip(outputs, first):
        if isinstance(a, tuple):
            if not all(np.array_equal(x, y) for x, y in zip(a, b)):
                return False
        elif a != b:
            return False
    return len(outputs) == len(first)


def layer_metrics(state: dict, tr) -> dict:
    wealth = state["large_wealth"]
    for _ in range(GINI_REPEATS):
        with tr.span("society.gini", "n20000"):
            gini(wealth)
    out = {f"society.run_ms.n{n}": 1000 * mean(tr.durations("society.run_society", f"n{n}"))
           for n, _ in SCALING}
    out["society.gini_us.n20000"] = 1e6 * mean(tr.durations("society.gini", "n20000"))
    out["society.compare_regimes_s"] = SWEEP_SLICES * mean(tr.durations("society.compare_regimes"))
    return out
