import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab.core import PerceptionView, Role
from bargainlab.chain import ChainScenario, ChainStage
from bargainlab.errors import InvalidConfig, ScenarioError
from bargainlab.negotiation import (Agreement, Breakdown, ConcessionRates,
                                    NegotiationScenario, NegotiationTrace,
                                    SideSpec, run)
from bargainlab.nonmarket import ExchangeProposal, ExternalInfluence, NonmarketScenario
from bargainlab.powerchain import Node, PowerChainScenario, TrustEdge
from bargainlab.kinds import numbered_rows
from bargainlab.report import RunReport, report_to_json, run_scenario, write_trace_csv
from bargainlab import __version__, negotiation, nonmarket
from bargainlab.scenario import (MAX_CHAIN_STEPS, MAX_EXCHANGES, MAX_ROUNDS, MAX_STEPS, Scenario,
                                 load_preset, parse_scenario, preset_names, preset_text,
                                 scenario_document)
from bargainlab.society import (Authoritarian, Constant, Institutional,
                                SocietyConfig, Uniform)

ALL_PRESETS = ["baterias", "casting-selection", "corruption", "fig3", "gang-master",
               "kilns", "over50-hiring", "protection-money", "purloined-letter",
               "society-authoritarian", "society-institutional", "soft-landing",
               "tomato-south", "tourist-bazaar"]


def field_path(keys):
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else (f".{key}" if path else key)
    return path


def with_literal(preset, keys, literal):
    """Preset document text with one body field set to the JSON text ``literal``."""
    return with_literals(preset, {keys: literal})


def with_literals(preset, edits):
    """Preset document text with each body field ``keys`` of ``edits`` set to
    its JSON text."""
    doc = json.loads(preset_text(preset))
    for i, keys in enumerate(edits):
        target = doc["body"]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = f"__literal{i}__"
    text = json.dumps(doc)
    for i, literal in enumerate(edits.values()):
        text = text.replace(f'"__literal{i}__"', literal)
    return text


def assert_document_holds_fields(value, doc, path):
    """``doc`` holds each init field of the dataclass ``value`` that is not
    None (a view holds no role; a union member adds its kind tag), and
    likewise at every level below."""
    if dataclasses.is_dataclass(value):
        names = {f.name for f in dataclasses.fields(value)
                 if f.init and getattr(value, f.name) is not None}
        names -= {"role"} if isinstance(value, PerceptionView) else set()
        assert set(doc) - {"kind"} == names, path
        for name in names:
            assert_document_holds_fields(getattr(value, name), doc[name], f"{path}.{name}")
    elif isinstance(value, tuple):
        assert len(doc) == len(value), path
        for index, (item, item_doc) in enumerate(zip(value, doc)):
            assert_document_holds_fields(item, item_doc, f"{path}[{index}]")
    elif isinstance(value, dict):
        assert set(doc) == set(value), path
        for key, item in value.items():
            assert_document_holds_fields(item, doc[key], f"{path}.{key}")


# ---------------------------------------------------------------------------
# strategies for random-but-valid scenarios

finite_price = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
magnitude = st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False)
label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-0123456789", min_size=1, max_size=12)


def view_strategy(role):
    return st.builds(PerceptionView, magnitude, magnitude, magnitude, magnitude,
                     st.just(role))


rates_strategy = st.builds(
    lambda r_a, f_a, r_b, f_b: ConcessionRates(r_a, f_a * (0.9 - r_a), r_b, f_b * (0.9 - r_b)),
    st.floats(min_value=0.01, max_value=0.8), st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.01, max_value=0.8), st.floats(min_value=0.0, max_value=1.0))

negotiation_bodies = st.builds(
    lambda low, width, reserve_a, reserve_b, rates, view_a, view_b, eps, steps, scale:
        NegotiationScenario(
            buyer=SideSpec(low, reserve_a, view_a),
            seller=SideSpec(low + width, reserve_b, view_b),
            rates=rates, gap_epsilon=eps, max_steps=steps,
            scale_rates_by_imbalance=scale),
    finite_price, st.floats(min_value=0.0, max_value=100.0),
    finite_price, finite_price, rates_strategy,
    st.none() | view_strategy(Role.BUYER), st.none() | view_strategy(Role.SELLER),
    st.floats(min_value=1e-6, max_value=10.0), st.integers(min_value=1, max_value=500),
    st.booleans())

chain_bodies = st.builds(
    lambda anchor, stages, steps: ChainScenario(
        stages=tuple(stages), anchor_price=anchor, max_steps=steps),
    st.floats(min_value=0.1, max_value=1e4),
    st.lists(st.builds(ChainStage, label, view_strategy(Role.SELLER),
                       view_strategy(Role.BUYER),
                       st.floats(min_value=0.0, max_value=1e3), rates_strategy,
                       st.floats(min_value=0.0, max_value=10.0)),
             min_size=1, max_size=4),
    st.integers(min_value=1, max_value=2000))

nonmarket_bodies = st.builds(
    NonmarketScenario,
    st.builds(ExchangeProposal,
              st.floats(min_value=0.0, max_value=50.0),
              st.floats(min_value=-50.0, max_value=50.0),
              st.floats(min_value=0.0, max_value=50.0),
              st.floats(min_value=-50.0, max_value=50.0)),
    st.builds(ExternalInfluence, st.floats(min_value=0.0, max_value=50.0),
              st.floats(min_value=0.0, max_value=1.0)),
    st.builds(ExternalInfluence, st.floats(min_value=0.0, max_value=50.0),
              st.floats(min_value=0.0, max_value=1.0)),
    st.floats(min_value=0.0, max_value=1.0))


@st.composite
def power_chain_bodies(draw):
    labels = draw(st.lists(label, min_size=1, max_size=6, unique=True))
    adversary = draw(label)
    nodes = {lab: Node({adversary: draw(st.floats(min_value=0.0, max_value=10.0))})
             for lab in labels}
    edges = []
    if len(labels) > 1:
        for a in labels:
            for b in labels:
                if a != b and draw(st.booleans()):
                    edges.append(TrustEdge(a, b, draw(st.floats(min_value=0.01, max_value=1.0))))
    return PowerChainScenario(
        nodes=nodes, edges=tuple(edges),
        weak=draw(st.sampled_from(labels)), adversary=adversary,
        threshold=draw(st.floats(min_value=0.0, max_value=12.0)))


society_bodies = st.builds(
    SocietyConfig,
    st.integers(min_value=2, max_value=50),
    st.one_of(
        st.builds(Uniform, st.floats(min_value=0.1, max_value=1.0),
                  st.floats(min_value=1.5, max_value=5.0)),
        st.builds(Constant, st.floats(min_value=0.1, max_value=10.0))),
    st.one_of(st.builds(Authoritarian, st.floats(min_value=0.0, max_value=4.0)),
              st.builds(Institutional, st.floats(min_value=1.0, max_value=4.0))),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**63),
    st.floats(min_value=0.01, max_value=10.0))

scenarios = st.one_of(
    st.builds(lambda b, m: Scenario(1, "negotiation", b, m), negotiation_bodies,
              st.dictionaries(label, label, max_size=3)),
    st.builds(lambda b, m: Scenario(1, "chain", b, m), chain_bodies,
              st.dictionaries(label, label, max_size=3)),
    st.builds(lambda b, m: Scenario(1, "nonmarket", b, m), nonmarket_bodies,
              st.dictionaries(label, label, max_size=3)),
    st.builds(lambda b, m: Scenario(1, "power_chain", b, m), power_chain_bodies(),
              st.dictionaries(label, label, max_size=3)),
    st.builds(lambda b, m: Scenario(1, "society", b, m), society_bodies,
              st.dictionaries(label, label, max_size=3)),
)


# ---------------------------------------------------------------------------

class TestParsing:
    def test_fig3_preset_matches_reference_parameters(self):
        scenario = load_preset("fig3")
        assert scenario.kind == "negotiation"
        assert scenario.body == NegotiationScenario(
            buyer=SideSpec(open=2.5, reserve=5.0),
            seller=SideSpec(open=4.5, reserve=2.0),
            rates=ConcessionRates(0.05, 0.02, 0.3, 0.2),
            gap_epsilon=0.05, max_steps=200)
        cfg = scenario.body.to_config()
        assert (cfg.buyer_open, cfg.seller_open) == (2.5, 4.5)
        assert (cfg.buyer_reserve_adj, cfg.seller_reserve_adj) == (5.0, 2.0)

    def test_empty_document(self):
        with pytest.raises(ScenarioError, match="^invalid JSON at line 1, column 1: "):
            parse_scenario("")

    def test_malformed_json_reports_position(self):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario('{"version": 1,\n  "kind": }')
        assert str(excinfo.value).startswith("invalid JSON at line 2, column ")

    @pytest.mark.parametrize("preset,keys,literal,path,rule", [
        ("fig3", ("seller", "reserve"), "-1", "seller.reserve", "must be >= 0"),
        ("kilns", ("stages", 0, "buyer_view", "own_power"), "0", "stages[0].buyer_view.own_power",
         "must be > 0"),
        ("kilns", ("stages", 2, "margin_floor"), "-1", "stages[2].margin_floor", "must be >= 0"),
        ("kilns", ("gap_epsilon",), "0", "gap_epsilon", "must be > 0"),
        ("kilns", ("stages",), "[]", "stages", "must have at least one stage"),
        ("casting-selection", ("influence_b",), '{"shield": 2}', "influence_b.shield",
         "must lie in [0, 1]"),
        ("casting-selection", ("promise_keep_prob",), "1.5", "promise_keep_prob",
         "must lie in [0, 1]"),
        ("purloined-letter", ("edges", 0, "willingness"), "0", "edges[0].willingness",
         "must lie in (0, 1]"),
        ("purloined-letter", ("edges", 1, "helper"), '"ghost"', "edges[1]",
         "endpoint 'ghost' is not a node"),
        ("purloined-letter", ("nodes",), "{}", "nodes", "must have at least one node"),
        ("purloined-letter", ("weak",), '"ghost"', "weak", "must be a node"),
        ("society-institutional", ("initial_wealth",), '{"kind": "uniform", "lo": 2, "hi": 1}',
         "initial_wealth.hi", "must be > lo"),
        ("society-authoritarian", ("regime",), '{"kind": "institutional", "cap": 0.5}',
         "regime.cap", "must be >= 1"),
        ("society-authoritarian", ("seed",), str(2 ** 64), "seed",
         "must be a 64-bit unsigned integer"),
        ("tomato-south", ("anchor_price",), "0", "anchor_price", "must be > 0"),
        ("kilns", ("stages", 1, "base_seller_reserve"), "-1", "stages[1].base_seller_reserve",
         "must be >= 0"),
        ("fig3", ("max_steps",), "0", "max_steps", "must be >= 1"),
        ("casting-selection", ("proposal", "give_cost_a"), "-1", "proposal.give_cost_a",
         "must be >= 0"),
        ("protection-money", ("influence_b", "threat_on_refusal"), "-1",
         "influence_b.threat_on_refusal", "must be >= 0"),
        ("society-authoritarian", ("initial_wealth",),
         '{"kind": "lognormal", "mu": 0, "sigma": -1}', "initial_wealth.sigma", "must be >= 0"),
        ("society-authoritarian", ("initial_wealth",), '{"kind": "constant", "value": 0}',
         "initial_wealth.value", "must be > 0"),
        ("society-institutional", ("initial_wealth", "lo"), "0", "initial_wealth.lo",
         "must be > 0"),
        ("society-authoritarian", ("regime", "power_exponent"), "-1", "regime.power_exponent",
         "must be >= 0"),
        ("society-authoritarian", ("unit_surplus",), "0", "unit_surplus", "must be > 0"),
        ("society-authoritarian", ("n_agents",), "1", "n_agents", "must be >= 2"),
    ])
    def test_engine_invariants_are_reported_at_their_path(self, preset, keys, literal, path, rule):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(with_literal(preset, keys, literal))
        assert (excinfo.value.field, excinfo.value.rule) == (path, rule)

    @pytest.mark.parametrize("preset,edits,path,rule", [
        ("society-authoritarian", {("n_agents",): "1", ("unit_surplus",): "0"}, "n_agents",
         "must be >= 2"),
        ("society-authoritarian", {("epochs",): "0", ("pairings_per_epoch",): "0"}, "epochs",
         "must be >= 1"),
        ("society-authoritarian", {("unit_surplus",): "0", ("seed",): str(2 ** 64)}, "seed",
         "must be a 64-bit unsigned integer"),
        ("society-institutional", {("initial_wealth", "lo"): "0", ("initial_wealth", "hi"): "-1"},
         "initial_wealth.lo", "must be > 0"),
        ("kilns", {("stages", 0, "base_seller_reserve"): "-1", ("stages", 0, "margin_floor"): "-1"},
         "stages[0].base_seller_reserve", "must be >= 0"),
        ("kilns", {("stages", 0, "buyer_view", "own_power"): "0",
                   ("stages", 0, "buyer_view", "own_motivation"): "0"},
         "stages[0].buyer_view.own_motivation", "must be > 0"),
        ("kilns", {("anchor_price",): "0", ("gap_epsilon",): "0"}, "anchor_price", "must be > 0"),
        ("kilns", {("anchor_price",): "0", ("stages",): "[]"}, "stages",
         "must have at least one stage"),
        ("fig3", {("gap_epsilon",): "0", ("max_steps",): "0"}, "gap_epsilon", "must be > 0"),
        ("casting-selection", {("proposal", "give_cost_b"): "-1",
                               ("proposal", "give_cost_a"): "-1"},
         "proposal.give_cost_a", "must be >= 0"),
        ("protection-money", {("influence_b", "shield"): "2",
                              ("influence_b", "threat_on_refusal"): "-1"},
         "influence_b.threat_on_refusal", "must be >= 0"),
    ])
    def test_an_object_with_two_bad_fields_reports_its_first_check(self, preset, edits, path,
                                                                    rule):
        """Each body checks its fields in a fixed order: the first one that
        fails is the one reported, whatever the document's key order."""
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(with_literals(preset, edits))
        assert (excinfo.value.field, excinfo.value.rule) == (path, rule)

    def test_costs_are_checked_after_every_number_is_finite(self):
        """A document cannot hold a NaN, so this order shows only through the
        Python API."""
        with pytest.raises(InvalidConfig) as excinfo:
            ExchangeProposal(give_cost_a=-1.0, gain_for_b=float("nan"), give_cost_b=1.0,
                             gain_for_a=1.0)
        assert (excinfo.value.field, excinfo.value.rule) == ("gain_for_b",
                                                            "must be a finite number")

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        with_literal("fig3", ("max_steps",), "9" * 5000),
    ])
    def test_json_past_the_decoder_limits(self, text):
        with pytest.raises(ScenarioError, match="^invalid JSON: "):
            parse_scenario(text)

    @pytest.mark.parametrize("literal", [
        "NaN", "Infinity", "-Infinity", "1e400",
        # read as an int, which float() cannot convert
        pytest.param("1" + "0" * 400, id="int-past-the-float-range")])
    @pytest.mark.parametrize("preset,keys", [
        ("fig3", ("buyer", "open")),
        ("fig3", ("buyer", "reserve")),
        ("tomato-south", ("anchor_price",)),
        ("tomato-south", ("stages", 1, "buyer_view", "own_power")),
        ("purloined-letter", ("threshold",)),
        ("purloined-letter", ("nodes", "dupin", "strength_vs", "minister")),
        ("casting-selection", ("promise_keep_prob",)),
        ("society-authoritarian", ("regime", "power_exponent")),
    ], ids=lambda value: field_path(value) if isinstance(value, tuple) else value)
    def test_non_finite_numbers_rejected(self, preset, keys, literal):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(with_literal(preset, keys, literal))
        assert excinfo.value.field == field_path(keys)
        assert excinfo.value.rule == "must be a finite number"

    @pytest.mark.parametrize("preset,keys,value,rule", [
        ("fig3", ("max_steps",), MAX_STEPS + 1, f"must be <= {MAX_STEPS}"),
        ("kilns", ("max_steps",), 10 ** 30, f"must be <= {MAX_STEPS}"),
        ("society-institutional", ("n_agents",), 2_000_000, "must be <= 1000000"),
        ("society-institutional", ("epochs",), 10 ** 6,
         f"(n_agents // 2) * epochs * pairings_per_epoch must be <= {MAX_EXCHANGES}"),
        ("society-authoritarian", ("pairings_per_epoch",), 10 ** 6,
         f"(n_agents // 2) * epochs * pairings_per_epoch must be <= {MAX_EXCHANGES}"),
    ])
    def test_work_budget(self, preset, keys, value, rule):
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(with_literal(preset, keys, json.dumps(value)))
        path = "epochs" if keys == ("pairings_per_epoch",) else field_path(keys)
        assert (excinfo.value.field, excinfo.value.rule) == (path, rule)

    @pytest.mark.parametrize("epochs,pairings", [(MAX_ROUNDS + 1, 1), (MAX_ROUNDS // 2 + 1, 2),
                                                 (10 ** 7, 1)])
    def test_society_budget_counts_rounds(self, epochs, pairings):
        # two agents make one exchange a round: far inside MAX_EXCHANGES
        doc = json.loads(preset_text("society-institutional"))
        doc["body"].update(n_agents=2, epochs=epochs, pairings_per_epoch=pairings)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert (excinfo.value.field, excinfo.value.rule) == (
            "epochs", f"epochs * pairings_per_epoch must be <= {MAX_ROUNDS}")

    def test_chain_budget_counts_every_link(self):
        # 80 links, each seller reserve 1.0 below the price its link is
        # offered: every link stalls for ~99 000 steps
        neutral = {"own_motivation": 1.0, "other_motivation_perceived": 1.0,
                   "own_power": 1.0, "other_power_perceived": 1.0}
        rates = {"r_a": 7e-6, "r_a_prime": 0.0, "r_b": 7e-6, "r_b_prime": 0.0}
        stages = [{"name": f"link-{i}", "buyer_view": neutral, "seller_view": neutral,
                   "base_seller_reserve": 99.0 - 0.5 * i, "rates": rates} for i in range(80)]
        doc = {"version": 1, "kind": "chain", "body": {
            "anchor_price": 100.0, "gap_epsilon": 1e-9, "max_steps": MAX_STEPS, "stages": stages}}
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert (excinfo.value.field, excinfo.value.rule) == (
            "stages", f"len(stages) * max_steps must be <= {MAX_CHAIN_STEPS}")

    @pytest.mark.parametrize("preset", ["baterias", "kilns", "tomato-south"])
    def test_chain_presets_run_at_the_step_limit(self, preset):
        scenario = parse_scenario(with_literal(preset, ("max_steps",), json.dumps(MAX_STEPS)))
        # every link settles long before the preset's own max_steps
        assert run_scenario(scenario).outcome == run_scenario(load_preset(preset)).outcome

    def test_budget_admits_its_limits(self):
        parse_scenario(with_literal("fig3", ("max_steps",), json.dumps(MAX_STEPS)))
        doc = json.loads(preset_text("kilns"))
        doc["body"].update(stages=doc["body"]["stages"][:1] * (MAX_CHAIN_STEPS // MAX_STEPS),
                           max_steps=MAX_STEPS)
        parse_scenario(json.dumps(doc))
        # 200 agents: 100 pairs per round, so MAX_ROUNDS rounds make MAX_EXCHANGES exchanges
        doc = json.loads(preset_text("society-institutional"))
        doc["body"].update(n_agents=200, epochs=MAX_ROUNDS, pairings_per_epoch=1)
        assert 100 * MAX_ROUNDS == MAX_EXCHANGES
        parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("links, max_steps, admitted", [
        (10, MAX_STEPS, True), (11, MAX_STEPS, False),
        # 101 * 9901 is MAX_CHAIN_STEPS + 1: one step over the budget
        (101, 9901, False)])
    def test_chain_budget_at_its_limit(self, links, max_steps, admitted):
        doc = json.loads(preset_text("tomato-south"))
        stages = doc["body"]["stages"]
        doc["body"].update(stages=[stages[i % len(stages)] for i in range(links)],
                           max_steps=max_steps)
        if admitted:
            assert len(parse_scenario(json.dumps(doc)).body.stages) * max_steps == MAX_CHAIN_STEPS
            return
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert (excinfo.value.field, excinfo.value.rule) == (
            "stages", f"len(stages) * max_steps must be <= {MAX_CHAIN_STEPS}")

    def test_out_of_range_rate_names_the_field(self):
        doc = json.loads(preset_text("fig3"))
        doc["body"]["rates"]["r_a"] = 1.5
        with pytest.raises(ScenarioError, match=r"^rates.r_a: must lie in \(0, 1\)$"):
            parse_scenario(json.dumps(doc))

    def test_rate_sum_invariant(self):
        doc = json.loads(preset_text("fig3"))
        doc["body"]["rates"].update(r_a=0.6, r_a_prime=0.5)
        with pytest.raises(ScenarioError, match=r"^rates: r_a \+ r_a_prime must be < 1$"):
            parse_scenario(json.dumps(doc))

    def test_unknown_top_level_field(self):
        doc = json.loads(preset_text("fig3"))
        doc["extra"] = 1
        with pytest.raises(ScenarioError, match="^extra: unknown field$"):
            parse_scenario(json.dumps(doc))

    def test_unknown_body_field(self):
        doc = json.loads(preset_text("fig3"))
        doc["body"]["surprise"] = 1
        with pytest.raises(ScenarioError, match="^surprise: unknown field$"):
            parse_scenario(json.dumps(doc))

    def test_unsupported_version(self):
        doc = json.loads(preset_text("fig3"))
        doc["version"] = 99
        with pytest.raises(ScenarioError, match=r"^version: unsupported version \(supported: 1\)$"):
            parse_scenario(json.dumps(doc))

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError, match="^kind: must be one of negotiation, chain, "):
            parse_scenario('{"version": 1, "kind": "auction", "body": {}}')

    def test_metadata_values_must_be_strings(self):
        doc = json.loads(preset_text("fig3"))
        doc["metadata"] = {"count": 3}
        with pytest.raises(ScenarioError, match="^metadata.count: expected a string, got int$"):
            parse_scenario(json.dumps(doc))

    def test_crossed_opens_rejected_with_path(self):
        doc = json.loads(preset_text("fig3"))
        doc["body"]["buyer"]["open"] = 10.0
        with pytest.raises(ScenarioError, match="^seller.open: must be >= buyer_open$"):
            parse_scenario(json.dumps(doc))

    @pytest.mark.parametrize("preset,edit,path,rule", [
        ("fig3", lambda doc: doc.update(body=[]), "body", "expected an object, got list"),
        ("fig3", lambda doc: doc.update(metadata="fig3"), "metadata",
         "expected an object, got str"),
        ("fig3", lambda doc: doc["body"].pop("rates"), "", "missing required field 'rates'"),
        ("fig3", lambda doc: doc["body"]["buyer"].pop("open"), "buyer",
         "missing required field 'open'"),
        ("kilns", lambda doc: doc["body"].update(stages={}), "stages", "expected an array"),
        ("society-authoritarian", lambda doc: doc["body"]["regime"].update(kind="feudal"),
         "regime.kind", "must be one of authoritarian, institutional"),
        ("purloined-letter", lambda doc: doc["body"].update(nodes=[]), "nodes",
         "expected an object, got list"),
        ("purloined-letter", lambda doc: doc["body"]["nodes"].update(dupin={"strength_vs": 5}),
         "nodes.dupin.strength_vs", "expected an object, got int"),
        ("purloined-letter", lambda doc: doc["body"]["nodes"]["dupin"].update(extra=1),
         "nodes.dupin.extra", "unknown field"),
        ("purloined-letter", lambda doc: doc["body"]["nodes"]["dupin"].pop("strength_vs"),
         "nodes.dupin", "missing required field 'strength_vs'"),
        ("purloined-letter",
         lambda doc: doc["body"]["nodes"]["dupin"]["strength_vs"].update(minister="x"),
         "nodes.dupin.strength_vs.minister", "expected a number, got str"),
    ], ids=["body", "metadata", "missing-body-field", "missing-side-field", "array", "union-kind",
            "nodes", "strength_vs", "node-field", "missing-node-field", "strength"])
    def test_shape_errors_are_reported_at_their_path(self, preset, edit, path, rule):
        doc = json.loads(preset_text(preset))
        edit(doc)
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert (excinfo.value.field, excinfo.value.rule) == (path, rule)

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_document_holds_the_body_fields(self, name):
        """Every preset's body document holds exactly the init fields of its
        body dataclass, at every level: a body has no reader of its own."""
        scenario = load_preset(name)
        assert_document_holds_fields(scenario.body, scenario_document(scenario)["body"], "body")

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_all_presets_parse_and_roundtrip(self, name):
        scenario = load_preset(name)
        assert parse_scenario(json.dumps(scenario_document(scenario))) == scenario

    def test_preset_listing(self):
        assert preset_names() == ALL_PRESETS

    def test_unknown_preset(self):
        with pytest.raises(FileNotFoundError):
            preset_text("does-not-exist")


@given(scenario=scenarios)
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_scenarios(scenario):
    assert parse_scenario(json.dumps(scenario_document(scenario))) == scenario


class TestTraceCsv:
    def test_reference_trace_rows(self):
        scenario = load_preset("fig3")
        trace = run(scenario.body.to_config())
        text = write_trace_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "step,offer_buyer,offer_seller,gap"
        assert lines[1] == "0,2.5,4.5,2.0"
        assert lines[2] == "1,2.665,3.35,0.685"
        assert lines[-1].startswith("# outcome,agreement,2,")

    def test_zero_step_agreement(self):
        trace = NegotiationTrace(rows=((3.0, 3.0, 0.0),),
                                 outcome=Agreement(price=3.0, step=0))
        lines = write_trace_csv(trace).splitlines()
        assert len(lines) == 3
        assert lines[1] == "0,3.0,3.0,0.0"
        assert lines[2] == "# outcome,agreement,0,3.0"

    def test_breakdown_line(self):
        trace = NegotiationTrace(rows=((1.0, 9.0, 8.0),),
                                 outcome=Breakdown(at_step=7))
        assert write_trace_csv(trace).splitlines()[-1] == "# outcome,breakdown,7"

    def test_byte_determinism(self):
        scenario = load_preset("fig3")
        first = run_scenario(scenario).csv_text
        second = run_scenario(scenario).csv_text
        assert first == second
        assert first.encode() == second.encode()

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_csv_deterministic_for_every_preset(self, name):
        scenario = load_preset(name)
        assert run_scenario(scenario).csv_text == run_scenario(scenario).csv_text


def stated_cycle(period, iterated, at_step):
    """A stall of ``iterated`` rows whose last ``period`` repeat up to
    ``at_step``; the cells' reprs vary in length."""
    rows = tuple((i / 7, 50.0 - i / 3, 50.0 - i / 3 - i / 7) for i in range(iterated))
    return NegotiationTrace(rows, Breakdown(at_step=at_step), period)


# (period, rows iterated, breakdown step)
STATED_CYCLES = [
    # periods 1-7, with the breakdown at or past a digit change
    (1, 150, 1000), (2, 150, 999), (3, 151, 1000), (4, 152, 10000), (5, 153, 9999),
    (6, 154, 2345), (7, 155, 2345),
    # iterated rows just below, at and above a multiple of 100
    (3, 199, 2000), (3, 200, 2000), (3, 201, 2000), (2, 99, 500), (2, 100, 500), (2, 101, 500),
    # the breakdown before step 100, at it, and at the end of the first block;
    # and before the first multiple of 100 past the iterated rows
    (4, 40, 99), (4, 40, 100), (1, 60, 199), (3, 150, 170),
    # a period longer than the tail, and one longer than the number of blocks
    (250, 300, 450), (397, 420, 10000),
    (3, 250, MAX_STEPS),
]


class TestNumberedRows:
    """Full blocks of a stated cycle are numbered from one template per
    phase; the oracle formats and numbers every row one at a time."""

    @pytest.mark.parametrize("period, iterated, at_step", STATED_CYCLES)
    def test_text_equals_the_rows_numbered_one_by_one(self, period, iterated, at_step):
        trace = stated_cycle(period, iterated, at_step)
        cells = [f"<{i}>" for i in range(iterated)]
        for mid, sep in ((",", "\n"), (",\n        ", "\n      ],\n      [\n        ")):
            text = numbered_rows(trace, cells, mid, sep, "<head>", "<tail>")
            expected = sep.join(f"{n}{mid}{c}" for n, c in enumerate(trace.expand(cells)))
            assert text == f"<head>{expected}<tail>"

    def test_full_blocks_share_their_template_rows(self):
        """Past the iterated rows, a stall holds one string per template row,
        not one per step; rows numbered one at a time peak at about 3 times
        the text's length here."""
        trace = stated_cycle(3, 250, MAX_STEPS)
        cells = [f"<{i}>" for i in range(250)]
        tracemalloc.start()
        try:
            text = numbered_rows(trace, cells, ",\n        ", "\n      ],\n      [\n        ", "", "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)

    @pytest.mark.parametrize("period, iterated, at_step", STATED_CYCLES)
    def test_reports_equal_those_of_every_row_iterated(self, period, iterated, at_step):
        trace = stated_cycle(period, iterated, at_step)
        unrolled = NegotiationTrace(trace.steps, trace.outcome)
        assert len(unrolled.rows) == at_step + 1
        assert write_trace_csv(trace) == write_trace_csv(unrolled)
        scenario = load_preset("fig3")
        assert (report_to_json(RunReport(scenario, trace, 0.0))
                == report_to_json(RunReport(scenario, unrolled, 0.0)))


class TestRunReport:
    def test_json_roundtrip(self):
        report = run_scenario(load_preset("fig3"))
        doc = json.loads(report_to_json(report))
        assert parse_scenario(json.dumps(doc["scenario"])) == report.scenario
        assert (doc["outcome"], doc["engine_version"], doc["duration_s"]) == (
            report.outcome, __version__, report.duration_s)

    def test_report_carries_engine_version_and_duration(self):
        report = run_scenario(load_preset("protection-money"))
        assert json.loads(report_to_json(report))["engine_version"] == "0.1.0"
        assert report.duration_s >= 0.0
        assert report.outcome["verdict"] == "both_accept"
        assert report.outcome["equity"] is None

    def test_non_finite_payload_is_never_written_as_json(self):
        report = run_scenario(load_preset("protection-money"))
        report.outcome["equity"] = float("nan")
        with pytest.raises(ValueError):
            report_to_json(report)

    def test_seed_override_rewrites_the_scenario_echo(self):
        scenario = load_preset("society-authoritarian")
        report = run_scenario(scenario, seed_override=7)
        assert report.scenario.body.seed == 7
        again = run_scenario(scenario, seed_override=7)
        assert report.outcome == again.outcome

    def test_a_run_resolves_its_engine_input_once(self, monkeypatch):
        """Parsing, running and rendering fig3 builds one NegotiationConfig,
        and protection-money draws up one balance sheet."""
        configs, sheets = [], []
        check_config = negotiation.NegotiationConfig.__post_init__
        monkeypatch.setattr(negotiation.NegotiationConfig, "__post_init__",
                            lambda cfg: (configs.append(cfg), check_config(cfg))[1])
        balance = nonmarket.welfare_balance
        monkeypatch.setattr(nonmarket, "welfare_balance",
                            lambda body: (sheets.append(body), balance(body))[1])
        for name in ("fig3", "protection-money"):
            report = run_scenario(parse_scenario(preset_text(name)))
            report_to_json(report)
            assert report.csv_text
        assert (len(configs), len(sheets)) == (1, 1)

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_every_preset_runs(self, name):
        report = run_scenario(load_preset(name))
        assert report.outcome["kind"] == report.scenario.kind
