from dataclasses import replace

import numpy as np
import pytest

from bargainlab import negotiation
from bargainlab.chain import (ChainSpec, ChainStage, propagate, squeeze_report)
from bargainlab.core import PerceptionView, Role, adjust_reserve_full, imbalance_ratio
from bargainlab.errors import InvalidConfig
from bargainlab.negotiation import Breakdown, ConcessionRates, NegotiationConfig
from bargainlab.scenario import load_preset

B, S = Role.BUYER, Role.SELLER
SYM = ConcessionRates(0.1, 0.05, 0.1, 0.05)


def neutral(role):
    return PerceptionView(1.0, 1.0, 1.0, 1.0, role)


def stage(name="link", seller=None, buyer=None, base=40.0, floor=0.0, rates=SYM):
    return ChainStage(name, seller or neutral(S), buyer or neutral(B), base, rates, floor)


def settle(spec):
    """propagate with ChainScenario's default stopping rule."""
    return propagate(spec, None, 5000)


def squeeze_total(report):
    """Margin shares plus the final settlement share: 1 when every link settled."""
    return sum(share for _, share in report.margin_shares) + report.final_settlement_share


def raise_buyer_power(spec, index, factor):
    target = spec.stages[index]
    view = target.buyer_view
    boosted = PerceptionView(view.own_motivation, view.other_motivation_perceived,
                             view.own_power * factor, view.other_power_perceived, B)
    stages = (spec.stages[:index] + (replace(target, buyer_view=boosted),)
              + spec.stages[index + 1:])
    return replace(spec, stages=stages)


def test_validation():
    with pytest.raises(InvalidConfig):
        ChainStage("x", neutral(B), neutral(B), 1.0, SYM)  # roles swapped
    with pytest.raises(InvalidConfig):
        stage(floor=-1.0)
    with pytest.raises(InvalidConfig):
        ChainSpec(stages=(), anchor_price=1.0)
    with pytest.raises(InvalidConfig):
        ChainSpec(stages=(stage(),), anchor_price=0.0)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name, build", [
    ("base_seller_reserve", lambda x: stage(base=x)),
    ("margin_floor", lambda x: stage(floor=x)),
])
def test_non_finite_numbers_name_their_field(name, build, value):
    with pytest.raises(InvalidConfig) as excinfo:
        build(value)
    assert (excinfo.value.field, excinfo.value.rule) == (name, "must be a finite number")


def test_single_stage_reduces_to_one_negotiation():
    link = stage(base=40.0, floor=10.0)
    spec = ChainSpec(stages=(link,), anchor_price=100.0)
    results = propagate(spec, gap_epsilon=1e-4, max_steps=5000)

    buyer_reserve = min(adjust_reserve_full(100.0, link.buyer_view), 100.0 - 10.0)
    seller_reserve = adjust_reserve_full(40.0, link.seller_view)
    rates = negotiation.concession_rates_from_imbalance(
        link.rates, imbalance_ratio(link.buyer_view), imbalance_ratio(link.seller_view))
    cfg = NegotiationConfig(buyer_open=min(buyer_reserve, seller_reserve),
                            seller_open=max(buyer_reserve, seller_reserve),
                            buyer_reserve_adj=buyer_reserve,
                            seller_reserve_adj=seller_reserve,
                            rates=rates, gap_epsilon=1e-4, max_steps=5000)
    expected = negotiation.run(cfg).outcome.price
    assert results[0].buyer_reserve_effective == buyer_reserve == 90.0
    assert results[0].settlement == expected
    assert results[0].margin == 100.0 - expected


def test_single_stage_breakdown_reduces_to_one_negotiation():
    # the seller's minimum lies above the buyer's maximum: the link stalls
    link = stage(base=120.0, floor=10.0)
    spec = ChainSpec(stages=(link,), anchor_price=100.0)
    results = propagate(spec, gap_epsilon=1e-4, max_steps=5000)

    cfg = NegotiationConfig(buyer_open=90.0, seller_open=120.0, buyer_reserve_adj=90.0,
                            seller_reserve_adj=120.0, rates=link.scaled_rates,
                            gap_epsilon=1e-4, max_steps=5000)
    assert negotiation.run(cfg).outcome == Breakdown(at_step=5000)
    assert results[0].buyer_reserve_effective == 90.0
    assert (results[0].settlement, results[0].margin) == (None, None)


def test_two_stage_symmetric_settles_at_midpoints():
    spec = ChainSpec(stages=(stage("retail", base=40.0), stage("supply", base=10.0)),
                     anchor_price=100.0)
    results = settle(spec)
    assert results[0].settlement == pytest.approx(70.0, abs=1e-3)  # mid of (40, 100)
    assert results[1].settlement == pytest.approx(40.0, abs=1e-3)  # mid of (10, ~70)
    assert all(r.margin > 0 for r in results)


def test_margin_shares_conserve_anchor():
    spec = ChainSpec(stages=(stage("retail", base=40.0), stage("supply", base=10.0)),
                     anchor_price=100.0)
    report = squeeze_report(settle(spec))
    assert report.complete
    assert report.anchor_price == pytest.approx(100.0)
    assert squeeze_total(report) == pytest.approx(1.0, abs=1e-9)


def test_degenerate_zero_margin_chain():
    # buyer and seller reserves coincide with the anchor: zero margin,
    # the terminal settlement keeps the whole anchor
    spec = ChainSpec(stages=(stage(base=100.0),), anchor_price=100.0)
    report = squeeze_report(settle(spec))
    assert report.margin_shares[0][1] == pytest.approx(0.0, abs=1e-9)
    assert report.final_settlement_share == pytest.approx(1.0, abs=1e-9)


def test_breakdown_cascades_downstream():
    # middle stage's seller wants more than the squeezed incoming price
    blocked = stage("blocked", base=500.0)
    spec = ChainSpec(stages=(stage("retail", base=40.0), blocked, stage("deep", base=1.0)),
                     anchor_price=100.0)
    results = settle(spec)
    assert results[0].settled
    assert not results[1].settled
    assert results[1].buyer_reserve_effective is not None  # it did negotiate
    assert results[2] .buyer_reserve_effective is None     # it never got a price
    assert not results[2].settled
    report = squeeze_report(results)
    assert not report.complete
    assert report.final_settlement_share is None


def test_upstream_results_are_bit_identical_under_deep_perturbation():
    base_spec = ChainSpec(stages=(stage("retail", base=40.0), stage("supply", base=10.0)),
                          anchor_price=100.0)
    perturbed = raise_buyer_power(base_spec, 1, 3.0)
    assert settle(base_spec)[0] == settle(perturbed)[0]


def test_monotone_squeeze_from_stage_power():
    spec = ChainSpec(stages=(stage("retail", base=40.0),
                             stage("mid", base=15.0),
                             stage("deep", base=5.0)),
                     anchor_price=100.0)
    base_results = settle(spec)
    for factor in (1.5, 2.0, 3.0):
        squeezed = settle(raise_buyer_power(spec, 1, factor))
        # stages before k unchanged, stages >= k weakly lower, margin at k up
        assert squeezed[0] == base_results[0]
        for k in (1, 2):
            assert squeezed[k].settlement <= base_results[k].settlement + 1e-9
        assert squeezed[1].margin >= base_results[1].margin - 1e-9


def test_random_chains_conserve_and_squeeze_monotonically():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(25):
        n_stages = int(rng.integers(2, 5))
        stages, scale = [], 1.0
        for k in range(n_stages):
            scale *= float(rng.uniform(0.25, 0.55))
            stages.append(ChainStage(
                f"s{k}",
                PerceptionView(*rng.uniform(0.75, 1.35, size=4), S),
                PerceptionView(*rng.uniform(0.75, 1.35, size=4), B),
                base_seller_reserve=100.0 * scale,
                rates=ConcessionRates(float(rng.uniform(0.05, 0.25)),
                                      float(rng.uniform(0.0, 0.12)),
                                      float(rng.uniform(0.05, 0.25)),
                                      float(rng.uniform(0.0, 0.12)))))
        spec = ChainSpec(stages=tuple(stages), anchor_price=100.0)
        results = settle(spec)
        if all(r.settled for r in results):
            checked += 1
            assert squeeze_total(squeeze_report(results)) == pytest.approx(1.0, abs=1e-9)
        stronger = settle(raise_buyer_power(spec, 0, 1.5))
        for weak, strong in zip(results, stronger):
            if weak.settled and strong.settled:
                assert strong.settlement <= weak.settlement + 1e-9
    assert checked >= 10  # the generator must exercise the conservation branch


#: The chain presets under the squeeze sweep's power grid: the market-facing
#: buyer's power times 100 factors over [1, 3).
SWEEP_PRESETS = ("tomato-south", "baterias", "kilns")
SWEEP_FACTORS = [1.0 + 2.0 * i / 100 for i in range(100)]


def squeeze_sweep():
    for name in SWEEP_PRESETS:
        body = load_preset(name).body
        for factor in SWEEP_FACTORS:
            yield body, raise_buyer_power(body.spec, 0, factor)


def test_squeeze_sweep_links_settle_as_run_does(monkeypatch):
    """Every link of the sweep settles as ``negotiation.run`` would."""
    sweep = list(squeeze_sweep())
    settled = [propagate(spec, body.gap_epsilon, body.max_steps) for body, spec in sweep]
    monkeypatch.setattr(negotiation, "settle", lambda cfg: negotiation.run(cfg).outcome)
    assert settled == [propagate(spec, body.gap_epsilon, body.max_steps) for body, spec in sweep]
    assert sum(not r.settled and r.buyer_reserve_effective is not None
               for results in settled for r in results) >= 100


def test_squeeze_sweep_stalls_end_early(monkeypatch):
    """A stalled link ends once its gap provably stays open: iterating to
    the repeat of its offers took 114 104 steps over the sweep's stalls."""
    steps, stalls = [0], []
    step, settle = negotiation.step, negotiation.settle

    def counted_step(x_a, x_b, cfg):
        steps[0] += 1
        return step(x_a, x_b, cfg)

    def counted_settle(cfg):
        before = steps[0]
        outcome = settle(cfg)
        if isinstance(outcome, Breakdown):
            stalls.append(steps[0] - before)
        return outcome
    monkeypatch.setattr(negotiation, "step", counted_step)
    monkeypatch.setattr(negotiation, "settle", counted_settle)
    for body, spec in squeeze_sweep():
        propagate(spec, body.gap_epsilon, body.max_steps)
    assert len(stalls) >= 100
    assert sum(stalls) <= 2 * len(stalls)
