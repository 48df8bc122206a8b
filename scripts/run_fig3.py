#!/usr/bin/env python3
"""Run the reference wage negotiation and print its trace and rest point."""

from bargainlab.negotiation import fixed_point, run
from bargainlab.report import write_trace_csv
from bargainlab.scenario import load_preset


def main() -> None:
    scenario = load_preset("fig3")
    cfg = scenario.body.to_config()
    trace = run(cfg)
    print(write_trace_csv(trace), end="")
    print()
    print(f"settlement:      {trace.outcome.price:.6f} at step {trace.outcome.step}")
    print(f"reserves:        buyer {cfg.buyer_reserve_adj}, seller {cfg.seller_reserve_adj}")
    x_a, x_b = fixed_point(cfg.buyer_reserve_adj, cfg.seller_reserve_adj, cfg.rates)
    print(f"rest point:      ({x_a:.4f}, {x_b:.4f}) "
          "(where the dynamics would settle with no stopping rule)")
    midpoint = (cfg.buyer_reserve_adj + cfg.seller_reserve_adj) / 2
    print(f"reserve midpoint {midpoint:.2f}; the weak seller closed "
          f"{midpoint - trace.outcome.price:.3f} below it")


if __name__ == "__main__":
    main()
