"""Byte-exact snapshot of every bundled preset's output.

``preset_snapshot.json`` holds, per preset, the sha256 of the CSV rendering
and of the JSON run report without its wall-clock ``duration_s`` (so the
scenario echo, the outcome payload and the engine version).  Any change to
parsing, serialization, the engines or the renderers that alters a single
byte of either fails here.  The digest is taken over a re-encoding of the
report, so a separate test pins the report's own bytes to that encoding.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_preset_snapshot.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from bargainlab.report import report_to_json, run_scenario
from bargainlab.scenario import load_preset, parse_scenario, preset_names, preset_text

SNAPSHOT = Path(__file__).with_name("preset_snapshot.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def preset_digests(name: str) -> dict:
    report = run_scenario(load_preset(name))
    doc = json.loads(report_to_json(report))
    del doc["duration_s"]
    return {"csv": _digest(report.csv_text),
            "report": _digest(json.dumps(doc, indent=2, sort_keys=True))}


def test_snapshot_covers_every_preset():
    assert sorted(json.loads(SNAPSHOT.read_text())) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_preset_output_is_byte_identical(name):
    assert preset_digests(name) == json.loads(SNAPSHOT.read_text())[name]


def _stall():
    """fig3 with rates too small to close the gap in 5 000 steps."""
    doc = json.loads(preset_text("fig3"))
    doc["body"]["rates"] = {"r_a": 1e-6, "r_a_prime": 0.0, "r_b": 1e-6, "r_b_prime": 0.0}
    doc["body"]["max_steps"] = 5000
    return parse_scenario(json.dumps(doc))


@pytest.mark.parametrize("name", preset_names() + ["stall"])
def test_json_report_bytes_are_the_canonical_encoding(name):
    report = run_scenario(_stall() if name == "stall" else load_preset(name))
    if name == "stall":
        assert len(report.outcome["steps"]) == 5001
    text = report_to_json(report)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    digests = {name: preset_digests(name) for name in preset_names()}
    SNAPSHOT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
