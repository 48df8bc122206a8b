"""Run reports: executing a parsed scenario, and the report's JSON form.

A run keeps the engine's result and times only the engine.  The outcome
payload and the CSV text are rendered from that result on first use, by
the kind's renderers in ``kinds``, so a run pays only for the output it
is asked for.  ``write_trace_csv`` is re-exported here.

The JSON form is ``json.dumps(doc, indent=2, sort_keys=True)``, but
``indent`` turns off CPython's C encoder, and a negotiation's ``steps``
can hold tens of thousands of rows.  So that array is rendered here
straight from the trace, one string format per row the run iterated (a
stall's stated cycle repeats its strings by position, and
``kinds.numbered_rows`` numbers each full block of 100 of its steps from
one template of their last two digits), and joined in one go with the
parts of the dump around a placeholder; the JSON form never reads
``outcome``'s lists.
``test_json_report_bytes_are_the_canonical_encoding`` pins the result to
the stdlib encoder's bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any

from . import __version__
from .kinds import numbered_rows, write_trace_csv
from .scenario import KINDS, Scenario, scenario_document

__all__ = ["RunReport", "report_to_json", "run_scenario", "write_trace_csv"]


@dataclass(eq=False)
class RunReport:
    """A run: the scenario echo, the engine's result and the wall-clock
    time of the engine run.  The JSON form adds the engine version.

    ``outcome`` (the JSON outcome payload) and ``csv_text`` are rendered
    from ``result`` when first read.
    """

    scenario: Scenario
    result: Any
    duration_s: float

    @cached_property
    def outcome(self) -> dict:
        return KINDS[self.scenario.kind].payload(self.scenario.body, self.result)

    @cached_property
    def csv_text(self) -> str:
        return KINDS[self.scenario.kind].csv(self.scenario.body, self.result)


def run_scenario(scenario: Scenario, seed_override: int | None = None) -> RunReport:
    """Execute a parsed scenario and wrap the result in a RunReport.

    ``seed_override`` replaces the seed of a society scenario (other kinds
    are deterministic and ignore it).
    """
    if seed_override is not None and scenario.kind == "society":
        scenario = replace(scenario, body=replace(scenario.body, seed=seed_override))
    start = time.perf_counter()
    result = scenario.body.run()
    duration = time.perf_counter() - start
    return RunReport(scenario=scenario, result=result, duration_s=duration)


#: Stands in for the cells of a negotiation's ``steps``: dumped as the only
#: cell of the only row, it leaves the brackets around the block to the
#: encoder.  With sorted keys ``outcome.steps`` precedes the scenario echo,
#: the only place a document can put this text, so its first quoted
#: occurrence is where the rows go.
_STEPS = "@@bargainlab-steps@@"
#: The cells of one trace row at the dump's indentation: rows at 6 spaces,
#: cells at 8.  ``%r`` of a float is ``float.__repr__``, json's float
#: encoding; a trace's cells are plain floats, finite because
#: NegotiationConfig bounds its anchors.
_CELLS = "%r,\n        %r,\n        %r"
_ROW_SEP = "\n      ],\n      [\n        "


def report_to_json(report: RunReport) -> str:
    trace, negotiation = report.result, report.scenario.kind == "negotiation"
    if negotiation:  # the payload of the trace without its rows, which are spliced in below
        outcome = KINDS["negotiation"].payload(report.scenario.body, replace(trace, rows=()))
    doc = {
        "scenario": scenario_document(report.scenario),
        "outcome": {**outcome, "steps": [[_STEPS]]} if negotiation else report.outcome,
        "engine_version": __version__,
        "duration_s": report.duration_s,
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if not negotiation:
        return text
    head, tail = text.split(f'"{_STEPS}"', 1)
    # the rows are rendered between the rest of the dump, so one join
    # builds the report and the rendered block is not copied a second time
    return numbered_rows(trace, [_CELLS % row for row in trace.rows], ",\n        ", _ROW_SEP,
                         head, tail)
