"""Run reports: executing a parsed scenario and its JSON form.

The CSV rendering of each kind lives with the kind's registry entry in
``scenario``; ``write_trace_csv`` is re-exported here.

The JSON form is ``json.dumps(doc, indent=2, sort_keys=True)``, but
``indent`` turns off CPython's C encoder, and a negotiation's ``steps``
can hold tens of thousands of rows.  So that array is rendered here, one
string format per row, and spliced into the dump in place of a
placeholder.  ``test_json_report_bytes_are_the_canonical_encoding`` pins
the result to the stdlib encoder's bytes.
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
    """Everything a run produced: the scenario echo, the outcome payload
    and the wall-clock time.  The JSON form adds the engine version.

    ``csv_text`` is a derived rendering and is excluded from equality and
    from the JSON form.
    """

    scenario: Scenario
    outcome: dict
    duration_s: float
    csv_text: str = field(compare=False, repr=False)


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
    return RunReport(scenario=scenario, outcome=payload, duration_s=duration, csv_text=csv_text)


#: Stands in for the cells of a negotiation's ``steps``: dumped as the only
#: cell of the only row, it leaves the brackets around the block to the
#: encoder.  With sorted keys ``outcome.steps`` precedes the scenario echo,
#: the only place a document can put this text, so its first quoted
#: occurrence is where the rows go.
_STEPS = "@@bargainlab-steps@@"
#: One trace row at the dump's indentation: rows at 6 spaces, cells at 8.
_ROW = "%d,\n        %s,\n        %s,\n        %s"
_ROW_SEP = "\n      ],\n      [\n        "


def report_to_json(report: RunReport) -> str:
    outcome = report.outcome
    steps = outcome["steps"] if outcome.get("kind") == "negotiation" else None
    doc = {
        "scenario": scenario_document(report.scenario),
        "outcome": {**outcome, "steps": [[_STEPS]]} if steps else outcome,
        "engine_version": __version__,
        "duration_s": report.duration_s,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not steps:
        return text
    head, tail = text.split(f'"{_STEPS}"', 1)
    # float.__repr__ is json's float encoding, also for float subclasses;
    # a negotiation's cells are finite (NegotiationConfig bounds its anchors)
    f = float.__repr__
    rows = [_ROW % (n, f(a), f(b), f(g)) for n, a, b, g in steps]
    # the end rows carry the rest of the dump, so one join builds the
    # report and the rendered block is not copied a second time
    rows[0] = head + rows[0]
    rows[-1] += tail
    return _ROW_SEP.join(rows)
