#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must pass a true output and
reject a deliberately corrupted one.

    python3 perfbench/selftest.py

Corruptions: a perturbed price, a dropped trace row, a non-optimal
power-chain path, a conservation total that is off, a regime-comparison
Gini that is off, a rising squeeze settlement, a flipped non-market
verdict and a margin share that is off.
Exits 1 if any check lets a corruption through or rejects a true output.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

from harness import ROOT

sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import wl_cli  # noqa: E402
import wl_search  # noqa: E402
import wl_society  # noqa: E402
import wl_trace  # noqa: E402
from bargainlab.report import report_to_json, run_scenario  # noqa: E402
from bargainlab.scenario import parse_scenario  # noqa: E402
from bargainlab.society import (Authoritarian, Institutional, SocietyConfig, Uniform,  # noqa: E402
                                compare_regimes, run_society)

failures = []


def expect(name: str, true_problems: list, corrupt_problems: list) -> None:
    if true_problems:
        failures.append(f"{name}: true output rejected: {true_problems}")
    if not corrupt_problems:
        failures.append(f"{name}: corrupted output accepted")
    print(f"{'ok  ' if not true_problems and corrupt_problems else 'FAIL'} {name}")


def preset_outputs(name: str):
    text = (wl_cli.PRESET_DIR / f"{name}.json").read_text(encoding="utf-8")
    report = run_scenario(parse_scenario(text))
    return json.loads(text), report.csv_text, report_to_json(report)


def with_report(json_text: str, edit) -> str:
    doc = json.loads(json_text)
    edit(doc)
    return json.dumps(doc)


def main() -> int:
    doc, csv_text, json_text = preset_outputs("fig3")
    bumped = with_report(json_text, lambda d: d["outcome"]["outcome"].update(
        price=d["outcome"]["outcome"]["price"] * (1 + 1e-5)))
    expect("negotiation price", wl_cli.check_preset(doc, csv_text, json_text),
           wl_cli.check_preset(doc, csv_text, bumped))

    state = wl_trace.setup(1)
    scenario, stall = state["scenarios"][0]
    report = run_scenario(scenario)
    json_text, csv_text = report_to_json(report), report.csv_text
    dropped = with_report(json_text, lambda d: d["outcome"]["steps"].pop(1234))
    expect("trace row dropped", wl_trace.check_report(json_text, csv_text, stall),
           wl_trace.check_report(dropped, csv_text, stall))
    csv_dropped = "\n".join(line for i, line in enumerate(csv_text.split("\n")) if i != 1235)
    expect("trace CSV row dropped", wl_trace.check_report(json_text, csv_text, stall),
           wl_trace.check_report(json_text, csv_dropped, stall))

    # a -> c -> d beats a -> b -> d on bottleneck willingness
    case = {"tag": "small", "strengths": {"a": 0.0, "b": 1.0, "c": 2.0, "d": 5.0},
            "edges": [("a", "b", 0.5), ("b", "d", 0.5), ("a", "c", 1.0), ("c", "d", 1.0)],
            "weak": "a", "threshold": 4.0}
    expect("non-optimal path (exhaustive)", wl_search.check_case(case, ("a", "c", "d")),
           wl_search.check_case(case, ("a", "b", "d")))
    expect("non-optimal path (hops and bottleneck)",
           wl_search.check_case({**case, "tag": "sparse"}, ("a", "c", "d")),
           wl_search.check_case({**case, "tag": "sparse"}, ("a", "b", "d")))
    expect("missed chain", wl_search.check_case({**case, "tag": "sparse"}, ("a", "c", "d")),
           wl_search.check_case({**case, "tag": "sparse"}, None))

    cfg = SocietyConfig(n_agents=50, initial_wealth=Uniform(1.0, 2.0), regime=Institutional(1.2),
                        epochs=20, pairings_per_epoch=2, seed=3)
    trace = run_society(cfg)
    totals = trace.totals.copy()
    totals[-1] += 1e-6 * totals[-1]
    expect("conservation total",
           oracles.check_conservation(trace.totals, cfg.epochs, trace.injected_per_epoch,
                                      trace.final_wealth),
           oracles.check_conservation(totals, cfg.epochs, trace.injected_per_epoch,
                                      trace.final_wealth))
    slices = [(dataclasses.replace(cfg, regime=Authoritarian(2.0)), cfg)]
    sweep = [compare_regimes(*slices[0], n_seeds=2)]
    gini_a = (sweep[0].final_gini_a[0] + 1e-6,) + sweep[0].final_gini_a[1:]
    off = [dataclasses.replace(sweep[0], final_gini_a=gini_a, mean_a=sum(gini_a) / 2)]
    expect("regime comparison gini", wl_society._check_sweep(slices, sweep),
           wl_society._check_sweep(slices, off))
    doc, csv_text, json_text = preset_outputs("society-institutional")
    off = with_report(json_text, lambda d: d["outcome"].update(
        total_final=d["outcome"]["total_final"] + 1.0))
    expect("society report conservation", wl_cli.check_preset(doc, csv_text, json_text),
           wl_cli.check_preset(doc, csv_text, off))

    rows = [[3.0, 2.0], [2.5, 1.5], [2.0, None]]
    risen = copy.deepcopy(rows)
    risen[2][0] = 2.6
    expect("squeeze settlement rises", oracles.check_squeeze(rows), oracles.check_squeeze(risen))

    doc, csv_text, json_text = preset_outputs("protection-money")
    flipped = with_report(json_text, lambda d: d["outcome"].update(verdict="both_refuse"))
    expect("non-market verdict", wl_cli.check_preset(doc, csv_text, json_text),
           wl_cli.check_preset(doc, csv_text, flipped))

    doc, csv_text, json_text = preset_outputs("kilns")
    skewed = with_report(json_text, lambda d: d["outcome"]["squeeze"]["margin_shares"][0]
                         .__setitem__(1, d["outcome"]["squeeze"]["margin_shares"][0][1] + 1e-6))
    expect("chain margin shares", wl_cli.check_preset(doc, csv_text, json_text),
           wl_cli.check_preset(doc, csv_text, skewed))

    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
