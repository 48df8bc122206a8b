#!/usr/bin/env python3
"""Sweep the retail stage's power advantage over a supply-chain preset.

Shows how raising the market-facing buyer's power pushes every settlement
down the chain lower, until deep links stop settling at all.
"""

import argparse
from dataclasses import replace

from bargainlab.chain import propagate, squeeze_report
from bargainlab.errors import BargainError
from bargainlab.scenario import load_preset


def boost_stage0_power(spec, factor):
    stage = spec.stages[0]
    boosted = replace(stage.buyer_view, own_power=stage.buyer_view.own_power * factor)
    return replace(spec, stages=(replace(stage, buyer_view=boosted),) + spec.stages[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="tomato-south",
                        choices=["tomato-south", "baterias", "kilns"])
    parser.add_argument("--factors", type=float, nargs="+",
                        default=[1.0, 1.5, 2.0, 2.5, 3.0])
    args = parser.parse_args()

    body = load_preset(args.preset).body
    sweep = []
    for factor in args.factors:
        try:
            sweep.append((factor, propagate(boost_stage0_power(body.spec, factor),
                                            body.gap_epsilon, body.max_steps)))
        except BargainError as err:
            parser.error(f"argument --factors: {factor!r} gives {err}")

    names = [stage.name for stage in body.spec.stages]
    print(f"preset {args.preset}, anchor price {body.spec.anchor_price}")
    header = f"{'power x':>8}  " + "  ".join(f"{n[:18]:>18}" for n in names)
    print(header)
    for factor, results in sweep:
        cells = [f"{r.settlement:>18.6f}" if r.settled else f"{'(breakdown)':>18}"
                 for r in results]
        print(f"{factor:>8.2f}  " + "  ".join(cells))
    base = squeeze_report(propagate(body.spec, body.gap_epsilon, body.max_steps),
                          body.anchor_price)
    if base.complete:
        print()
        print("margin shares at power x 1.00:")
        for name, share in base.margin_shares:
            print(f"  {name:<28} {share:8.4f}")
        print(f"  {'terminal settlement':<28} {base.final_settlement_share:8.4f}")


if __name__ == "__main__":
    main()
