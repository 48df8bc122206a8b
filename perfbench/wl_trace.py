"""trace workload, in-process: ``report.run_scenario`` followed by
``report_to_json`` on long negotiations, plus a squeeze sweep.

Stalls have crossed reserves and run to a large ``max_steps``; the
slow-converging documents agree after a few thousand steps.  Every step
becomes a trace row rendered as CSV and JSON, so cost per step and memory
dominate.  The squeeze sweep runs ``chain.propagate`` over the three chain
presets with the market-facing buyer's power scaled over a fine grid, as
``scripts/squeeze_sweep.py`` does: many negotiations with short traces.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import replace

import numpy as np

import oracles
from harness import ROOT, Round, mean

from bargainlab.chain import propagate
from bargainlab.core import PerceptionView, Role
from bargainlab.negotiation import run as negotiation_run
from bargainlab.report import report_to_json, run_scenario, write_trace_csv
from bargainlab.scenario import parse_scenario

STALLS, STALL_STEPS = 3, 30000
SLOW, SLOW_STEPS = 3, 4000      # agreement within 2% of SLOW_STEPS
CHAIN_PRESETS = ("tomato-south", "baterias", "kilns")
GRID_POINTS, GRID_LO, GRID_HI = 100, 1.0, 3.0
DURATION = re.compile(rb'"duration_s": [^,\n]*')


def _doc(buyer_open, seller_open, buyer_reserve, seller_reserve, rates, eps, max_steps) -> dict:
    return {"version": 1, "kind": "negotiation", "metadata": {"name": "perfbench"},
            "body": {"buyer": {"open": buyer_open, "reserve": buyer_reserve},
                     "seller": {"open": seller_open, "reserve": seller_reserve},
                     "rates": rates, "gap_epsilon": eps, "max_steps": max_steps}}


def _stall(rng) -> dict:
    """Crossed reserves: the buyer's maximum lies below the seller's minimum."""
    while True:
        price = float(rng.uniform(5.0, 50.0))
        half = price * float(rng.uniform(0.05, 0.2))
        rates = {"r_a": float(rng.uniform(0.02, 0.2)), "r_a_prime": float(rng.uniform(0.0, 0.05)),
                 "r_b": float(rng.uniform(0.02, 0.2)), "r_b_prime": float(rng.uniform(0.0, 0.05))}
        eps = half * 0.01
        rest = oracles.rest_point(price - half, price + half, rates)
        if rest[1] - rest[0] > 10 * eps:
            return _doc((price - half) * float(rng.uniform(0.5, 0.9)),
                        (price + half) * float(rng.uniform(1.1, 1.5)),
                        price - half, price + half, rates, eps, STALL_STEPS)


def _slow(rng) -> dict:
    """Overlapping reserves and small rates, scaled until agreement comes
    within 2% of SLOW_STEPS, so every seed does about the same work."""
    price = float(rng.uniform(5.0, 50.0))
    half = price * float(rng.uniform(0.05, 0.2))
    base = [float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 0.5)),
            float(rng.uniform(0.5, 1.0)), float(rng.uniform(0.0, 0.5))]
    b_open, s_open = price * float(rng.uniform(0.3, 0.6)), price * float(rng.uniform(1.4, 1.8))
    eps = half * 1e-3
    scale = 1e-3
    for _ in range(50):
        rates = dict(zip(("r_a", "r_a_prime", "r_b", "r_b_prime"), (scale * r for r in base)))
        _, steps, _ = oracles.replay_negotiation(b_open, s_open, price + half, price - half,
                                                 rates, eps, 10 * SLOW_STEPS)
        if abs(steps - SLOW_STEPS) <= 0.02 * SLOW_STEPS:
            return _doc(b_open, s_open, price + half, price - half, rates, eps, 10 * SLOW_STEPS)
        scale *= steps / SLOW_STEPS
    raise RuntimeError("could not tune a slow-converging negotiation")


def _boost(spec, factor: float):
    stage = spec.stages[0]
    view = stage.buyer_view
    boosted = PerceptionView(view.own_motivation, view.other_motivation_perceived,
                             view.own_power * factor, view.other_power_perceived, Role.BUYER)
    return replace(spec, stages=(replace(stage, buyer_view=boosted),) + spec.stages[1:])


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    docs = [(_stall(rng), True) for _ in range(STALLS)] + [(_slow(rng), False) for _ in range(SLOW)]
    scenarios = [(parse_scenario(json.dumps(doc)), stall) for doc, stall in docs]
    # a fine grid over [GRID_LO, GRID_HI), shifted by a seeded offset
    step = (GRID_HI - GRID_LO) / GRID_POINTS
    offset = float(rng.uniform(0.0, step))
    factors = [GRID_LO + offset + i * step for i in range(GRID_POINTS)]
    chains = []
    for name in CHAIN_PRESETS:
        body = parse_scenario((ROOT / "src" / "bargainlab" / "presets" / f"{name}.json")
                              .read_text(encoding="utf-8")).body
        chains.append((name, body, [(f"{name}-{point}", _boost(body.spec, f))
                                    for point, f in enumerate(factors)]))
    return {"scenarios": scenarios, "chains": chains, "first": None, "json_bytes": {}}


def check_report(json_text: str, csv_text: str, stall: bool) -> list[str]:
    report = json.loads(json_text)
    body, out = report["scenario"]["body"], report["outcome"]
    steps = out["steps"]
    reserves = (out["buyer_reserve_adj"], out["seller_reserve_adj"])
    return (oracles.check_trace(steps, body, reserves, out["rates"], out["outcome"], stall)
            + oracles.check_trace_csv(csv_text, steps, out["outcome"]))


def run_round(state: dict, tr, full_check: bool) -> Round:
    result = Round()
    digest = hashlib.sha256()
    for index, (scenario, stall) in enumerate(state["scenarios"]):
        with tr.span("bench.trace_document", str(index)):
            start = time.perf_counter()
            with tr.span("report.run_scenario", str(index)):
                report = run_scenario(scenario)
            with tr.span("report.report_to_json", str(index)):
                json_text = report_to_json(report)
            elapsed = time.perf_counter() - start
        if stall:
            result.units.append((f"stall-{index}", elapsed))
        result.work.append((f"document-{index}", len(report.outcome["steps"]), elapsed))
        result.attempted += 1
        csv_text = report.csv_text
        state["json_bytes"][index] = len(json_text)
        del report
        digest.update(DURATION.sub(b"", json_text.encode()))
        digest.update(csv_text.encode())
        if full_check:
            result.problems += [f"document {index}: {p}"
                                for p in check_report(json_text, csv_text, stall)]
        del json_text, csv_text

    settlements = []
    with tr.span("bench.squeeze_sweep"):
        for name, body, specs in state["chains"]:
            rows = []
            for piece, spec in specs:
                with tr.span("chain.propagate", name):
                    start = time.perf_counter()
                    stages = propagate(spec, body.gap_epsilon, body.max_steps)
                    result.jobs.append((piece, time.perf_counter() - start))
                rows.append([s.settlement for s in stages])
            settlements.append((name, rows))
    result.attempted += sum(len(rows) for _, rows in settlements)
    digest.update(repr(settlements).encode())
    if full_check:
        for name, rows in settlements:
            result.problems += [f"squeeze {name}: {p}" for p in oracles.check_squeeze(rows)]
        state["first"] = digest.digest()
    elif digest.digest() != state["first"]:
        result.problems.append("outputs differ from the first round's on the same inputs")
    return result


def layer_metrics(state: dict, tr) -> dict:
    steps = 0
    for scenario, _ in state["scenarios"]:
        cfg = scenario.body.to_config()
        with tr.span("negotiation.run"):
            trace = negotiation_run(cfg)
        steps += len(trace.steps)
        with tr.span("report.write_trace_csv"):
            write_trace_csv(trace)
        del trace
    return {
        "report.run_scenario_us": 1e6 * mean(tr.durations("report.run_scenario")),
        "report.to_json_ms": 1000 * mean(tr.durations("report.report_to_json")),
        "report.json_mb": mean(list(state["json_bytes"].values())) / 1e6,
        "report.csv_ms": 1000 * mean(tr.durations("report.write_trace_csv")),
        "negotiation.steps_per_s": steps / sum(tr.durations("negotiation.run")),
        "chain.propagate_us": 1e6 * mean(tr.durations("chain.propagate")),
    }
