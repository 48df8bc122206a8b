#!/usr/bin/env python3
"""Authoritarian vs institutional society sweep over a shared seed set.

Defaults reproduce the pre-registered comparison: 200 agents, 500 epochs,
20 seeds, wealth-power exponent 2.0 against an institutional cap of 1.2.
"""

import argparse

from bargainlab.errors import BargainError
from bargainlab.scenario import KINDS
from bargainlab.society import (Authoritarian, Institutional, SocietyConfig,
                                Uniform, compare_regimes)


#: The option that sets each config field a bad argument can reach.
OPTIONS = {"n_agents": "--agents", "epochs": "--epochs", "pairings_per_epoch": "--pairings",
           "n_seeds": "--seeds", "seed": "--seed", "power_exponent": "--gamma", "cap": "--cap",
           "unit_surplus": "--surplus"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--pairings", type=int, default=2,
                        help="full pairings (matching rounds) per epoch")
    parser.add_argument("--seeds", type=int, default=20, help="number of replicate seeds")
    parser.add_argument("--seed", type=int, default=424242, help="first seed of the set")
    parser.add_argument("--gamma", type=float, default=2.0,
                        help="authoritarian wealth-to-power exponent")
    parser.add_argument("--cap", type=float, default=1.2,
                        help="institutional cap on the power ratio")
    parser.add_argument("--surplus", type=float, default=1.0)
    args = parser.parse_args()

    base = dict(n_agents=args.agents, initial_wealth=Uniform(1.0, 2.0),
                epochs=args.epochs, pairings_per_epoch=args.pairings,
                seed=args.seed, unit_surplus=args.surplus)
    try:
        cfg_auth = SocietyConfig(regime=Authoritarian(args.gamma), **base)
        cfg_inst = SocietyConfig(regime=Institutional(args.cap), **base)
        KINDS["society"].check(cfg_auth)  # the work budget a society document gets
        result = compare_regimes(cfg_auth, cfg_inst, n_seeds=args.seeds)
    except BargainError as err:
        parser.error(f"argument {OPTIONS[err.field]}: {err.rule}" if err.field in OPTIONS
                     else str(err))

    print(f"{'seed':>10}  {'gini authoritarian':>19}  {'gini institutional':>19}")
    for seed, a, b in zip(result.seeds, result.final_gini_a, result.final_gini_b):
        print(f"{seed:>10}  {a:>19.5f}  {b:>19.5f}")
    print()
    print(f"mean final gini: authoritarian {result.mean_a:.5f}, "
          f"institutional {result.mean_b:.5f}")
    print(f"mean difference: {result.mean_diff:+.5f} "
          f"(authoritarian more unequal in {result.n_positive}/{args.seeds} seeds)")


if __name__ == "__main__":
    main()
