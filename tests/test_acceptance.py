"""Acceptance suite: one test per release criterion.

Each test prints `ACCEPTANCE <n> PASS|FAIL: <title>` so a plain
`pytest tests/test_acceptance.py -v -s` reads as a checklist.  Tolerances
and runtime budgets are pinned here and nowhere else.
"""

import functools
import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bargainlab import cli
from bargainlab.chain import propagate, squeeze_report
from bargainlab.core import (PerceptionView, Role, adjust_reserve_full, equity_index,
                             imbalance_ratio)
from bargainlab.negotiation import (Agreement, ConcessionRates,
                                    NegotiationConfig, fixed_point, run, step)
from bargainlab.nonmarket import (ExchangeProposal, ExternalInfluence, NonmarketScenario,
                                  Verdict, welfare_balance)
from bargainlab.powerchain import find_power_chain
from bargainlab.report import run_scenario, write_trace_csv
from bargainlab.scenario import (load_preset, parse_scenario, preset_names,
                                 preset_text, scenario_document)
from bargainlab.society import compare_regimes, gini, run_society
from negotiation_reference import exact_fixed_point
from powerchain_reference import assert_search_matches, random_case
from society_reference import conservation_bound


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")
        return wrapper
    return decorate


@criterion(1, "reference negotiation reproduction (fig3)")
def test_criterion_1_reference_negotiation():
    started = time.perf_counter()
    scenario = load_preset("fig3")
    cfg = scenario.body.to_config()
    trace = run(cfg)

    # hand-iterated offers, frozen as decimal literals
    expected = [(2.5, 4.5), (2.665, 3.35), (2.79545, 2.808)]
    assert len(trace.steps) == 3
    for (offer_buyer, offer_seller, _), (buyer, seller) in zip(trace.steps, expected):
        assert abs(offer_buyer - buyer) <= 1e-9
        assert abs(offer_seller - seller) <= 1e-9

    assert isinstance(trace.outcome, Agreement)
    assert trace.outcome.step == 2
    settlement = trace.outcome.price
    assert abs(settlement - 2.80) <= 0.01
    # the settlement sits clearly on the seller-reserve side of the spread
    midpoint = (cfg.buyer_reserve_adj + cfg.seller_reserve_adj) / 2.0
    assert settlement < midpoint == 3.5
    assert abs(settlement - cfg.seller_reserve_adj) < abs(settlement - cfg.buyer_reserve_adj)
    assert time.perf_counter() - started < 1.0


#: The unit roundoff u of a float.
U = 2.0 ** -53


@criterion(2, "closed-form fixed point agrees with the iterated dynamics")
def test_criterion_2_fixed_point_oracle():
    """``fixed_point`` lies within F = 6 u S of the exact rest point z (S
    the larger reserve magnitude, but at least 1), the bound
    ``negotiation.settle``'s docstring derives.  And every iterate x_k of
    ``step`` keeps the contraction claim that ``settle``'s proof rests on:

        max|x_k - x*| <= (1 - m)^k e_0 + 8uS/m + 6uS + M

    with x* = ``fixed_point``, m = min(r_a, r_b), e_0 = max|x_0 - z| and S
    the largest anchor magnitude, but at least 1.  The exact update
    contracts the distance to z by 1 - m per step; each computed step errs
    by at most 8uS, which adds up to at most 8uS/m over all steps; and x*
    lies within F of z.  M = 8uS covers the rounding in evaluating both
    sides, a few u times numbers of at most 2S, and the terms of higher
    order in u.  ``settle``'s own margin, 32uS(1 + 1/m) against the 19uS +
    8uS/m it derives, is at least 37uS."""
    started = time.perf_counter()

    # reference parameters: the paper's four digits, and the derived bound
    fig3 = load_preset("fig3").body.to_config()
    x_a, x_b = fixed_point(fig3.buyer_reserve_adj, fig3.seller_reserve_adj, fig3.rates)
    assert abs(x_a - 4.4194) <= 1e-3
    assert abs(x_b - 2.9677) <= 1e-3
    scale = max(1.0, abs(fig3.buyer_reserve_adj), abs(fig3.seller_reserve_adj))
    for got, exact in zip((x_a, x_b), exact_fixed_point(fig3)):
        assert abs(Fraction(got) - exact) <= 6 * Fraction(U) * Fraction(scale)

    rng = np.random.default_rng(20250811)
    for _ in range(500):
        r_a = float(rng.uniform(0.01, 0.9))
        r_b = float(rng.uniform(0.01, 0.9))
        rates = ConcessionRates(r_a, float(rng.uniform(0.0, 0.95 - r_a)),
                                r_b, float(rng.uniform(0.0, 0.95 - r_b)))
        low = float(rng.uniform(0.0, 50.0))
        cfg = NegotiationConfig(
            buyer_open=low, seller_open=low + float(rng.uniform(0.0, 50.0)),
            buyer_reserve_adj=float(rng.uniform(0.0, 100.0)),
            seller_reserve_adj=float(rng.uniform(0.0, 100.0)),
            rates=rates, gap_epsilon=1.0, max_steps=10)
        reserves = (cfg.buyer_reserve_adj, cfg.seller_reserve_adj)
        rest = fixed_point(*reserves, rates)
        x = (cfg.buyer_open, cfg.seller_open)
        e_0 = float(max(abs(Fraction(offer) - z) for offer, z in zip(x, exact_fixed_point(cfg))))
        m = min(r_a, r_b)
        scale = max(1.0, *map(abs, x + reserves))
        floor = (8.0 / m + 6.0 + 8.0) * U * scale
        # 1 - m rounded up, so that its powers are at least (1 - m)^k
        factor = math.nextafter(1.0 - m, 1.0)
        # until (1 - m)^k e_0 is below 2uS, then a hundred steps at the floor
        for k in range(int(math.log(U) / math.log1p(-m)) + 100):
            assert max(abs(x[0] - rest[0]), abs(x[1] - rest[1])) <= factor ** k * e_0 + floor
            x = step(x[0], x[1], *reserves, rates)
    assert time.perf_counter() - started < 10.0


@criterion(3, "reserve adjustment identity and direction over 10^4 views")
def test_criterion_3_reserve_adjustment_properties():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        m, k = float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.05, 20.0))
        base = float(rng.uniform(0.0, 1000.0))
        role = Role.BUYER if rng.random() < 0.5 else Role.SELLER

        balanced = PerceptionView(m, m, k, k, role)
        assert imbalance_ratio(balanced) == 1.0
        assert adjust_reserve_full(base, balanced) == base  # exact identity

        view = PerceptionView(float(rng.uniform(0.05, 20.0)), m,
                              float(rng.uniform(0.05, 20.0)), k, Role.BUYER)
        adjusted = adjust_reserve_full(base, view)
        assert adjusted >= 0.0

        if base > 0.0:
            pressed = PerceptionView(view.own_motivation,
                                     view.other_motivation_perceived * 1.5,
                                     view.own_power, view.other_power_perceived,
                                     Role.BUYER)
            assert adjust_reserve_full(base, pressed) < adjusted
            empowered = PerceptionView(view.own_motivation,
                                       view.other_motivation_perceived,
                                       view.own_power * 1.5,
                                       view.other_power_perceived, Role.BUYER)
            assert adjust_reserve_full(base, empowered) < adjusted

        power_balanced = PerceptionView(view.own_motivation,
                                        view.other_motivation_perceived,
                                        view.own_power, view.own_power, Role.BUYER)
        # with the power factor at 1 only the buyer's motivation ratio remains
        motivation_ratio = view.own_motivation / view.other_motivation_perceived
        assert adjust_reserve_full(base, power_balanced) == max(0.0, base * motivation_ratio)


@criterion(4, "equity index: exact balance point and monotonicity over 10^4 draws")
def test_criterion_4_equity_index_properties():
    assert equity_index(2.0, 3.0, 2.0, 3.0) == 1.0
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        m_a, k_a, m_b, k_b = (float(v) for v in rng.uniform(0.05, 20.0, size=4))
        assert equity_index(m_a, k_a, m_a, k_a) == 1.0
        base = equity_index(m_a, k_a, m_b, k_b)
        assert base > 0.0
        assert equity_index(m_a * 1.5, k_a, m_b, k_b) > base
        assert equity_index(m_a, k_a, m_b, k_b * 1.5) > base
        assert equity_index(m_a, k_a * 1.5, m_b, k_b) < base
        assert equity_index(m_a, k_a, m_b * 1.5, k_b) < base


def _random_chain_scenario(rng):
    from bargainlab.chain import ChainSpec, ChainStage

    n_stages = int(rng.integers(3, 6))
    stages, scale = [], 1.0
    for k in range(n_stages):
        scale *= float(rng.uniform(0.25, 0.55))
        stages.append(ChainStage(
            f"stage{k}",
            PerceptionView(*rng.uniform(0.75, 1.35, size=4), Role.SELLER),
            PerceptionView(*rng.uniform(0.75, 1.35, size=4), Role.BUYER),
            base_seller_reserve=100.0 * scale,
            rates=ConcessionRates(float(rng.uniform(0.05, 0.25)),
                                  float(rng.uniform(0.0, 0.12)),
                                  float(rng.uniform(0.05, 0.25)),
                                  float(rng.uniform(0.0, 0.12)))))
    return ChainSpec(stages=tuple(stages), anchor_price=100.0)


def _with_buyer_power(spec, index, factor):
    target = spec.stages[index]
    view = target.buyer_view
    boosted = PerceptionView(view.own_motivation, view.other_motivation_perceived,
                             view.own_power * factor, view.other_power_perceived,
                             Role.BUYER)
    stages = (spec.stages[:index] + (replace(target, buyer_view=boosted),)
              + spec.stages[index + 1:])
    return replace(spec, stages=stages)


def _squeeze_total(report):
    """Margin shares plus the final settlement share: 1 when every link settled."""
    return sum(share for _, share in report.margin_shares) + report.final_settlement_share


def _squeeze_miss_bound(report):
    """(n + 4) u S for n stages, u = 2^-53 and S the shares' magnitudes:
    n rounded additions, one rounded margin and one rounded division per
    share (derived in ``tests/test_chain.py``'s ``squeeze_bound``)."""
    shares = [share for _, share in report.margin_shares] + [report.final_settlement_share]
    return (len(report.margin_shares) + 4) * 2.0 ** -53 * sum(map(abs, shares))


@criterion(5, "supply-chain conservation and monotone squeeze")
def test_criterion_5_chain_conservation_and_squeeze():
    started = time.perf_counter()

    preset = load_preset("tomato-south").body
    results = propagate(preset.spec, preset.gap_epsilon, preset.max_steps)
    assert all(r.settled for r in results)
    report = squeeze_report(results, preset.anchor_price)
    assert abs(_squeeze_total(report) - 1.0) <= _squeeze_miss_bound(report)

    # the raw-material end keeps only a sliver of its unadjusted midpoint
    last_stage = preset.spec.stages[-1]
    incoming = results[-2].settlement
    unadjusted_mid = ((incoming - last_stage.margin_floor)
                      + last_stage.base_seller_reserve) / 2.0
    assert results[-1].settlement < 0.25 * unadjusted_mid

    # the market-facing stage keeps the largest margin share
    shares = [share for _, share in report.margin_shares]
    assert shares[0] == max(shares) > 0.0

    # more retailer power never raises any settlement along the preset chain
    previous = [r.settlement for r in results]
    for factor in (1.5, 2.0):
        squeezed = propagate(_with_buyer_power(preset.spec, 0, factor),
                             preset.gap_epsilon, preset.max_steps)
        for before, after in zip(previous, (r.settlement for r in squeezed)):
            if before is not None and after is not None:
                assert after <= before + 1e-9

    rng = np.random.default_rng(20250811)
    settled_chains = 0
    for _ in range(100):
        spec = _random_chain_scenario(rng)
        base_results = propagate(spec, None, 5000)
        if all(r.settled for r in base_results):
            settled_chains += 1
            report = squeeze_report(base_results, spec.anchor_price)
            assert abs(_squeeze_total(report) - 1.0) <= _squeeze_miss_bound(report)
        squeezed = propagate(_with_buyer_power(spec, 0, 1.5), None, 5000)
        for weak, strong in zip(base_results, squeezed):
            if weak.settled and strong.settled:
                assert strong.settlement <= weak.settlement + 1e-9
    assert settled_chains >= 50
    assert time.perf_counter() - started < 30.0


@criterion(6, "non-market acceptance rules (plain, threatened, shielded)")
def test_criterion_6_nonmarket_acceptance():
    plain = welfare_balance(NonmarketScenario(ExchangeProposal(
        give_cost_a=2.0, gain_for_b=4.0, give_cost_b=2.0, gain_for_a=4.0)))
    assert plain.verdict is Verdict.BOTH_ACCEPT
    assert plain.equity == 1.0

    coerced_proposal = ExchangeProposal(give_cost_a=0.5, gain_for_b=1.0,
                                        give_cost_b=2.0, gain_for_a=4.0)
    coerced = welfare_balance(NonmarketScenario(
        coerced_proposal, influence_b=ExternalInfluence(threat_on_refusal=3.0, shield=0.0)))
    assert coerced.m_b_raw == -1.0
    assert coerced.m_b_effective == 2.0
    assert coerced.verdict is Verdict.BOTH_ACCEPT

    shielded = welfare_balance(NonmarketScenario(
        coerced_proposal, influence_b=ExternalInfluence(threat_on_refusal=3.0, shield=1.0)))
    assert shielded.m_b_effective == -1.0
    assert shielded.verdict is Verdict.B_REFUSES


@criterion(7, "power-chain search returns the spec-optimal path")
def test_criterion_7_power_chain_oracle():
    started = time.perf_counter()

    poe = load_preset("purloined-letter").body
    chain = find_power_chain(poe.graph, poe.weak, poe.adversary, poe.threshold)
    assert chain.path == ("victim", "prefect", "dupin")
    landing = load_preset("soft-landing").body
    chain = find_power_chain(landing.graph, landing.weak, landing.adversary,
                             landing.threshold)
    assert chain.path == ("employee", "relative", "hr_director", "lawyer")

    # the whole answer (path, terminal strength, or NoChain) must equal the
    # exhaustive reference's, on continuous and on tie-heavy graphs
    rng = np.random.default_rng(7)
    for tie_heavy, n_graphs in ((False, 250), (True, 200)):
        outcomes = {True: 0, False: 0}
        for _ in range(n_graphs):
            graph, threshold = random_case(rng, tie_heavy)
            outcomes[assert_search_matches(graph, "n0", "adv", threshold)] += 1
        assert min(outcomes.values()) >= 40  # both branches genuinely exercised
    assert time.perf_counter() - started < 30.0


@criterion(8, "authoritarian societies end more unequal than institutional ones")
def test_criterion_8_society_direction():
    started = time.perf_counter()
    cfg_auth = load_preset("society-authoritarian").body
    cfg_inst = load_preset("society-institutional").body

    trace = run_society(cfg_auth)
    # derived in tests/society_reference.py; no looser than 1e-6 * injected
    bound = conservation_bound(cfg_auth, trace.totals)
    assert np.all(bound <= 1e-6 * trace.injected_per_epoch)
    assert np.all(np.abs(np.diff(trace.totals) - trace.injected_per_epoch) <= bound)

    comparison = compare_regimes(cfg_auth, cfg_inst, n_seeds=20)
    # exact two-sided sign test over the seeds whose final Ginis differ
    trials = sum(a != b for a, b in zip(comparison.final_gini_a, comparison.final_gini_b))
    k = comparison.n_positive
    tail = sum(math.comb(trials, i) for i in range(max(k, trials - k), trials + 1))
    p_value = min(1.0, 2 * tail / 2 ** trials)
    sign_test = f"{k} of {trials} seeds more unequal, two-sided sign-test p = {p_value:.3g}"
    assert comparison.mean_diff > 0.0, sign_test
    assert comparison.n_positive >= 18, sign_test
    assert time.perf_counter() - started < 120.0


@criterion(9, "gini agrees with the pairwise-difference oracle")
def test_criterion_9_gini_oracle():
    assert gini([2.0, 1.0, 1.0]) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert gini([5.0, 5.0, 5.0, 5.0]) == 0.0
    assert gini([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.75, abs=1e-12)

    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.uniform(0.0, 100.0, size=n)
        if values.sum() == 0.0:
            continue
        pairwise = np.abs(values[:, None] - values[None, :]).mean() / (2.0 * values.mean())
        assert gini(values) == pytest.approx(float(pairwise), abs=1e-9)


@criterion(10, "scenario IO contract: round-trip, CSV determinism, exit codes")
def test_criterion_10_io_contract(tmp_path):
    for name in preset_names():
        scenario = load_preset(name)
        assert parse_scenario(json.dumps(scenario_document(scenario))) == scenario
        assert run_scenario(scenario).csv_text == run_scenario(scenario).csv_text

    trace = run(load_preset("fig3").body.to_config())
    assert write_trace_csv(trace).splitlines()[1] == "0,2.5,4.5,2.0"

    assert cli.main(["run", "--scenario", "fig3", "--quiet",
                     "--out", str(tmp_path / "ok.json")]) == 0
    assert cli.main(["run", "--scenario", str(tmp_path / "missing.json"),
                     "--quiet"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--scenario", str(bad), "--quiet"]) == 1
    doc = json.loads(preset_text("fig3"))
    doc["body"]["rates"]["r_a"] = 1.5
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(invalid), "--quiet"]) == 1
    doc = json.loads(preset_text("fig3"))
    doc["body"]["rates"] = {"r_a": 1e-6, "r_a_prime": 0.0,
                            "r_b": 1e-6, "r_b_prime": 0.0}
    doc["body"]["max_steps"] = 3
    stalled = tmp_path / "stalled.json"
    stalled.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(stalled), "--quiet",
                     "--out", str(tmp_path / "stalled-report.json")]) == 0
