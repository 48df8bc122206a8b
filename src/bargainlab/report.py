"""Run reports: executing a parsed scenario and its JSON form.

The CSV rendering of each kind lives with the kind's registry entry in
``scenario``; ``write_trace_csv`` is re-exported here.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .scenario import KINDS, Scenario, scenario_document, write_trace_csv

__all__ = ["RunReport", "report_to_json", "run_scenario", "write_trace_csv"]


@dataclass
class RunReport:
    """Everything a run produced: the scenario echo, the outcome payload,
    and enough provenance (engine version, wall-clock) to archive it.

    ``csv_text`` is a derived rendering and is excluded from equality and
    from the JSON form.
    """

    scenario: Scenario
    outcome: dict
    engine_version: str
    duration_s: float
    csv_text: str | None = field(default=None, compare=False, repr=False)


def run_scenario(scenario: Scenario, seed_override: int | None = None) -> RunReport:
    """Execute a parsed scenario and wrap the result in a RunReport.

    ``seed_override`` replaces the seed of a society scenario (other kinds
    are deterministic and ignore it).
    """
    if seed_override is not None and scenario.kind == "society":
        scenario = replace(scenario, body=replace(scenario.body, seed=seed_override))
    start = time.perf_counter()
    payload, csv_text = KINDS[scenario.kind].run(scenario.body)
    duration = time.perf_counter() - start
    return RunReport(scenario=scenario, outcome=payload,
                     engine_version=__version__, duration_s=duration,
                     csv_text=csv_text)


def report_to_json(report: RunReport) -> str:
    doc = {
        "scenario": scenario_document(report.scenario),
        "outcome": report.outcome,
        "engine_version": report.engine_version,
        "duration_s": report.duration_s,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
