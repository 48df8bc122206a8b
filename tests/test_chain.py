import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab import chain, negotiation
from bargainlab.chain import ChainScenario, ChainSpec, ChainStage, propagate, squeeze_report
from bargainlab.core import PerceptionView, Role, adjust_reserve_full
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


def squeeze_bound(report):
    """How far ``squeeze_total`` of a complete report may miss 1: (n + 4)
    u S, for n stages, u = 2^-53 the unit roundoff and S the sum of the
    shares' magnitudes (1 when no margin is negative).

    Let A be the anchor, p_0 = A and p_k+1 = s_k, the settlement of stage k.
    The exact margins a_k = p_k - s_k (k < n) and a_n = s_n-1 sum to A,
    because the sum telescopes.  A margin is one rounded subtraction and a
    share one rounded division by A, so share i is (a_i / A)(1 + e_i) with
    |e_i| <= 2u + u^2.  The shares' exact sum thus misses 1 by at most
    (2u + u^2) sum |a_i| / A <= (2u + u^2) S / (1 - u)^2 <= 3u S.
    ``squeeze_total`` adds the n + 1 shares left to right, starting at 0,
    so it rounds n times and adds at most gamma_n S = nu S / (1 - nu)
    <= (n + 1) u S for n <= 2^26 (recursive summation, Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 4.2).  No share
    here is subnormal, so each rounding is relative.  Over 600 power
    factors on each chain preset the largest miss is 2u.
    """
    shares = [share for _, share in report.margin_shares] + [report.final_settlement_share]
    return (len(report.margin_shares) + 4) * 2.0 ** -53 * sum(map(abs, shares))


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


@pytest.mark.parametrize("views, field, rule", [
    ((neutral(B), neutral(B)), "seller_view", "must have role SELLER"),
    ((neutral(S), neutral(S)), "buyer_view", "must have role BUYER"),
    ((neutral(B), None), "buyer_view", "must be a PerceptionView"),
    ((None, neutral(B)), "seller_view", "must be a PerceptionView"),
])
def test_each_view_must_have_its_role(views, field, rule):
    with pytest.raises(InvalidConfig) as excinfo:
        ChainStage("x", *views, 1.0, SYM)
    assert (excinfo.value.field, excinfo.value.rule) == (field, rule)


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
    rates = negotiation.concession_rates_from_imbalance(link.rates, link.buyer_view,
                                                        link.seller_view)
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
    report = squeeze_report(settle(spec), spec.anchor_price)
    assert report.complete
    assert report.anchor_price == pytest.approx(100.0)
    assert abs(squeeze_total(report) - 1.0) <= squeeze_bound(report)


def test_degenerate_zero_margin_chain():
    # buyer and seller reserves coincide with the anchor: zero margin,
    # the terminal settlement keeps the whole anchor
    spec = ChainSpec(stages=(stage(base=100.0),), anchor_price=100.0)
    report = squeeze_report(settle(spec), spec.anchor_price)
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
    report = squeeze_report(results, spec.anchor_price)
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
    """A settled chain's shares sum to 1 within ``squeeze_bound``, which
    derives the bound from the stage count, and more power at the market
    end never raises a settlement."""
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
            report = squeeze_report(results, spec.anchor_price)
            assert abs(squeeze_total(report) - 1.0) <= squeeze_bound(report)
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
    monkeypatch.setattr(negotiation, "settle",
                        lambda *link: negotiation.run(NegotiationConfig(*link)).outcome)
    assert settled == [propagate(spec, body.gap_epsilon, body.max_steps) for body, spec in sweep]
    assert sum(not r.settled and r.buyer_reserve_effective is not None
               for results in settled for r in results) >= 100


def test_squeeze_sweep_shares_sum_to_one_within_the_bound():
    complete = 0
    for body, spec in squeeze_sweep():
        report = squeeze_report(propagate(spec, body.gap_epsilon, body.max_steps),
                                spec.anchor_price)
        if report.complete:
            complete += 1
            assert abs(squeeze_total(report) - 1.0) <= squeeze_bound(report)
    assert complete >= 100


def test_squeeze_sweep_stalls_end_early(monkeypatch):
    """A stalled link ends once its gap provably stays open: iterating to
    the repeat of its offers took 114 104 steps over the sweep's stalls."""
    steps, stalls = [0], []
    step, settle = negotiation.step, negotiation.settle

    def counted_step(x_a, x_b, *reserves_and_rates):
        steps[0] += 1
        return step(x_a, x_b, *reserves_and_rates)

    def counted_settle(*link):
        before = steps[0]
        outcome = settle(*link)
        if isinstance(outcome, Breakdown):
            stalls.append(steps[0] - before)
        return outcome
    monkeypatch.setattr(negotiation, "step", counted_step)
    monkeypatch.setattr(negotiation, "settle", counted_settle)
    for body, spec in squeeze_sweep():
        propagate(spec, body.gap_epsilon, body.max_steps)
    assert len(stalls) >= 100
    assert sum(stalls) <= 2 * len(stalls)


def test_propagate_builds_no_negotiation_config(monkeypatch):
    """Links settle from their numbers: no config is built, and so none is
    checked, per link; the stopping rule is checked once per call."""
    built, rule_checks = [0], [0]
    post_init, check = NegotiationConfig.__post_init__, chain.check_stopping_rule

    def counted_post_init(cfg):
        built[0] += 1
        post_init(cfg)

    def counted_check(gap_epsilon, max_steps):
        rule_checks[0] += 1
        check(gap_epsilon, max_steps)
    body = load_preset("tomato-south").body
    monkeypatch.setattr(NegotiationConfig, "__post_init__", counted_post_init)
    monkeypatch.setattr(chain, "check_stopping_rule", counted_check)
    results = propagate(body.spec, body.gap_epsilon, body.max_steps)
    assert len(results) == 4 and all(r.settled for r in results)
    assert (built[0], rule_checks[0]) == (0, 1)
    NegotiationConfig(0.0, 1.0, 0.0, 1.0, SYM, 0.05, 10)
    assert built[0] == 1  # the wrapper does see a config being built


@pytest.mark.parametrize("gap_epsilon, max_steps, field, rule", [
    (float("nan"), 5000, "gap_epsilon", "must be a finite number"),
    (float("inf"), 5000, "gap_epsilon", "must be a finite number"),
    (0.0, 5000, "gap_epsilon", "must be > 0"),
    (-1.0, 5000, "gap_epsilon", "must be > 0"),
    (1e-4, 0, "max_steps", "must be >= 1"),
    (1e-4, 2.5, "max_steps", "must be an integer"),
    (1e-4, True, "max_steps", "must be an integer"),
])
def test_propagate_checks_the_stopping_rule(gap_epsilon, max_steps, field, rule):
    spec = ChainSpec(stages=(stage("retail", base=40.0), stage("supply", base=10.0)),
                     anchor_price=100.0)
    with pytest.raises(InvalidConfig) as excinfo:
        propagate(spec, gap_epsilon, max_steps)
    assert (excinfo.value.field, excinfo.value.rule) == (field, rule)


@pytest.mark.parametrize("gap_epsilon", [float("inf"), float("-inf"), float("nan")])
def test_chain_scenario_rejects_a_non_finite_gap_epsilon(gap_epsilon):
    """The stopping rule is checked when the scenario is built, not at run()."""
    with pytest.raises(InvalidConfig, match="^gap_epsilon: must be a finite number$"):
        ChainScenario((stage(),), 100.0, gap_epsilon, 5000)


@pytest.mark.parametrize("anchor", [100.0, 1e-6])
def test_propagate_defaults_gap_epsilon_by_the_anchor(anchor):
    """None means max(1e-9, 1e-6 anchor): a link whose gap stays at 1.5
    times that default breaks down under it and settles under twice it."""
    default = max(1e-9, 1e-6 * anchor)
    link = stage(base=anchor + 1.5 * default, rates=ConcessionRates(0.1, 0.0, 0.1, 0.0))
    spec = ChainSpec(stages=(link,), anchor_price=anchor)
    results = propagate(spec, None, 50)
    assert results == propagate(spec, default, 50)
    assert not results[0].settled and propagate(spec, 2.0 * default, 50)[0].settled


# a buyer's imbalance ratio is its own motivation here: near 1, or near
# either end of the range where the ratio and its reciprocal stay finite
# (1 / 5.56268464626801e-309 is the largest finite reciprocal)
edge_ratio = st.one_of(st.floats(0.25, 4.0), st.floats(1e300, sys.float_info.max),
                       st.floats(5.56268464626801e-309, 1e-300))
edge_price = st.one_of(st.floats(1e-6, 1e6), st.floats(1e-300, 1e308),
                       st.sampled_from([1e308, sys.float_info.min]))


@st.composite
def edge_rates(draw):
    r_a, r_b = draw(st.floats(1e-3, 0.9)), draw(st.floats(1e-3, 0.9))
    return ConcessionRates(r_a, draw(st.floats(0.0, 0.95)) * (0.95 - r_a),
                           r_b, draw(st.floats(0.0, 0.95)) * (0.95 - r_b))


@st.composite
def edge_chains(draw):
    """Chains at the edges of ``propagate``'s proof: anchors up to 1e308,
    buyer ratios near the bounds, margin floors above the incoming price,
    zero seller reserves and a single step."""
    stages = []
    for k in range(draw(st.integers(1, 4))):
        seller = PerceptionView(*(draw(st.floats(0.5, 2.0)) for _ in range(4)), S)
        buyer = PerceptionView(draw(edge_ratio), 1.0, 1.0, 1.0, B)
        base = draw(st.one_of(st.just(0.0), edge_price.filter(lambda x: x <= 1e307)))
        floor = draw(st.one_of(st.just(0.0), edge_price))
        stages.append(ChainStage(f"s{k}", seller, buyer, base, draw(edge_rates()), floor))
    spec = ChainSpec(tuple(stages), draw(edge_price))
    gap_epsilon = draw(st.one_of(st.none(), st.floats(5e-324, 1e308)))
    return spec, gap_epsilon, draw(st.one_of(st.just(1), st.integers(1, 200)))


@given(chain_and_rule=edge_chains())
@settings(max_examples=200, deadline=None)
def test_every_link_meets_the_config_invariants(chain_and_rule):
    """The proof in ``propagate``'s docstring, checked: every link's numbers
    build a valid NegotiationConfig."""
    links = []
    settle = negotiation.settle

    def recorded_settle(*link):
        links.append(link)
        return settle(*link)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(negotiation, "settle", recorded_settle)
        results = propagate(*chain_and_rule)
    assert len(links) == sum(r.buyer_reserve_effective is not None for r in results) >= 1
    for link in links:
        NegotiationConfig(*link)
        assert min(link[2], link[3]) >= 0.0  # the reserves, as the proof has them
