"""Byte-exact snapshot of every bundled preset's output.

``preset_snapshot.json`` holds, per preset, the sha256 of the CSV rendering
and of the JSON run report without its wall-clock ``duration_s`` (so the
scenario echo, the outcome payload and the engine version).  Any change to
parsing, serialization, the engines or the renderers that alters a single
byte of either fails here.  The digest is taken over a re-encoding of the
report, so a separate test pins the report's own bytes to that encoding.

The society presets' digests were made with numpy 2.4.6's ``Generator``
streams.  NumPy's compatibility policy (NEP 19) does not promise that a
``Generator`` method's stream stays the same across numpy versions, so
CI pins numpy to that version.

Regenerate only when an output change is intended::

    PYTHONPATH=src python tests/test_preset_snapshot.py
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bargainlab.errors import ScenarioError
from bargainlab.report import _STEPS, RunReport, report_to_json, run_scenario
from bargainlab.scenario import load_preset, parse_scenario, preset_names, preset_text
from negotiation_reference import CYCLING_STALLS
from negotiation_reference import run as reference_run

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


def _fig3(buyer=None, seller=None, rates=None, **body):
    """fig3 with its body fields replaced."""
    doc = json.loads(preset_text("fig3"))
    doc["body"]["buyer"].update(buyer or {})
    doc["body"]["seller"].update(seller or {})
    doc["body"]["rates"].update(rates or {})
    doc["body"].update(body)
    return doc


def _stall(max_steps):
    """fig3 with rates too small to close the gap in ``max_steps`` steps."""
    return _fig3(rates={"r_a": 1e-6, "r_a_prime": 0.0, "r_b": 1e-6, "r_b_prime": 0.0},
                 max_steps=max_steps)


def _cycling_stall(period, max_steps):
    """The pinned stall whose offers settle on a cycle of ``period``."""
    _, fields = CYCLING_STALLS[period]
    return _fig3(buyer={"open": fields["buyer_open"], "reserve": fields["buyer_reserve_adj"]},
                 seller={"open": fields["seller_open"], "reserve": fields["seller_reserve_adj"]},
                 rates=dict(zip(("r_a", "r_a_prime", "r_b", "r_b_prime"), fields["rates"])),
                 gap_epsilon=fields["gap_epsilon"], max_steps=max_steps)


# documents that stress the spliced steps block: (document, rows expected)
TRACE_CASES = {
    # never repeats its offers, so every step is iterated and rendered
    "stall": (_stall(5000), 5001),
    # the placeholder text, and an array opening, in the scenario echo
    "metadata-placeholder": ({**_fig3(), "metadata": {
        _STEPS: _STEPS, "note": '"steps": [', "quoted": f'"{_STEPS}"'}}, 3),
    "agree-at-0": (_fig3(seller={"open": 2.5}), 1),
    # negative offers and exponent-form reprs, at both ends of the range
    "signed-exponent": (_fig3(
        buyer={"open": -1e16}, seller={"open": 1.0000000000000002e16},
        rates={"r_a": 3e-7, "r_a_prime": 1e-7, "r_b": 2e-7, "r_b_prime": 0.0},
        max_steps=300), 301),
    "tiny-exponent": (_fig3(
        buyer={"open": -1e-300, "reserve": 0.0}, seller={"open": 3e-300, "reserve": 0.0},
        rates={"r_a": 1e-7, "r_a_prime": 2e-7, "r_b": 3e-7, "r_b_prime": 0.0},
        gap_epsilon=1e-310, max_steps=300), 301),
    "stall-30000": (_stall(30000), 30001),
    # offers repeat within ~100 steps: the trace states its cycle for the rest
    "cycle-1-30000": (_cycling_stall(1, 30000), 30001),
    "cycle-2-30000": (_cycling_stall(2, 30000), 30001),
    "cycle-3-30000": (_cycling_stall(3, 30000), 30001),
}


def assert_canonical(text):
    """``text`` equals the stdlib encoding of what it decodes to.  A mismatch
    reports the first differing offset, not a diff of two long reports."""
    canonical = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if text != canonical:
        at = next((i for i, (a, b) in enumerate(zip(text, canonical)) if a != b),
                  min(len(text), len(canonical)))
        around = slice(max(0, at - 20), at + 20)
        pytest.fail(f"report differs from the canonical encoding at offset {at}: "
                    f"{text[around]!r} != {canonical[around]!r}")


@pytest.mark.parametrize("name", preset_names() + list(TRACE_CASES))
def test_json_report_bytes_are_the_canonical_encoding(name):
    if name in TRACE_CASES:
        doc, rows = TRACE_CASES[name]
        report = run_scenario(parse_scenario(json.dumps(doc)))
        assert len(report.outcome["steps"]) == rows
    else:
        report = run_scenario(load_preset(name))
    assert_canonical(report_to_json(report))


@pytest.mark.parametrize("name", ["fig3", "stall-30000", "cycle-1-30000", "cycle-2-30000",
                                  "cycle-3-30000"])
def test_json_report_bytes_do_not_depend_on_what_was_read_first(name):
    """The JSON form renders a negotiation's rows from its trace, never
    from ``outcome``, whether or not ``outcome`` and ``csv_text`` were read.
    Digests keep a failure's report short."""
    scenario = (parse_scenario(json.dumps(TRACE_CASES[name][0])) if name in TRACE_CASES
                else load_preset(name))
    read = run_scenario(scenario)
    fresh = RunReport(read.scenario, read.result, read.duration_s)
    fresh_digest = _digest(report_to_json(fresh))
    assert "outcome" not in vars(fresh) and "csv_text" not in vars(fresh)
    assert read.outcome and read.csv_text
    assert _digest(report_to_json(read)) == fresh_digest


anchor = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e300, 1e300),
                   st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e16, -1e16, 1.7e308, -1.7e308]))
rate = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def negotiation_documents(draw):
    """Negotiation documents with signed anchors and rates over their ranges;
    some are rejected at parse time."""
    buyer_open, seller_open = sorted([draw(anchor), draw(anchor)])
    r_a, r_b = draw(rate), draw(rate)
    return json.dumps(_fig3(
        buyer={"open": buyer_open, "reserve": abs(draw(anchor))},
        seller={"open": seller_open, "reserve": abs(draw(anchor))},
        rates={"r_a": r_a, "r_a_prime": draw(rate) * (1.0 - r_a),
               "r_b": r_b, "r_b_prime": draw(rate) * (1.0 - r_b)},
        gap_epsilon=draw(st.one_of(st.floats(1e-300, 1e6), st.just(5e-324))),
        max_steps=draw(st.integers(1, 300))))


@given(text=negotiation_documents())
@settings(max_examples=100, deadline=None)
def test_json_report_of_any_negotiation_is_the_canonical_encoding(text):
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        # a drawn value may break an invariant; the document's shape is always right
        assert not exc.rule.startswith(("expected", "unknown field", "missing", "invalid JSON"))
        assume(False)
    assert_canonical(report_to_json(run_scenario(scenario)))


@pytest.mark.parametrize("name", ["cycle-1-30000", "cycle-2-30000", "cycle-3-30000"])
def test_cycling_stall_outputs_equal_those_of_the_reference_loop(name):
    """A stated cycle renders as if each of its rows were computed.
    Digests keep a failure's report short."""
    report = run_scenario(parse_scenario(json.dumps(TRACE_CASES[name][0])))
    expected = RunReport(report.scenario, reference_run(report.scenario.body.to_config()),
                         report.duration_s)
    period = int(name.split("-")[1])
    assert report.result.period == period and len(report.result.rows) < 300
    assert _digest(report_to_json(report)) == _digest(report_to_json(expected))
    assert _digest(report.csv_text) == _digest(expected.csv_text)


@pytest.mark.parametrize("name", ["stall-30000", "cycle-1-30000"])
def test_json_report_memory_is_bounded_by_its_length(name):
    """The steps block is built once, not re-encoded cell by cell."""
    report = run_scenario(parse_scenario(json.dumps(TRACE_CASES[name][0])))
    tracemalloc.start()
    try:
        text = report_to_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


if __name__ == "__main__":
    digests = {name: preset_digests(name) for name in preset_names()}
    SNAPSHOT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
