import numpy as np
import pytest

from bargainlab.errors import InvalidConfig, NoChain
from bargainlab.powerchain import PowerChain, TrustEdge, TrustGraph, find_power_chain
from powerchain_reference import (all_qualifying_paths, assert_search_matches, layered_case,
                                  random_case)


def graph(strengths, edges):
    return TrustGraph(strengths={n: {"adv": s} for n, s in strengths.items()},
                      edges=tuple(TrustEdge(*e) for e in edges))


POE = TrustGraph(
    strengths={"victim": {"minister": 0.0}, "prefect": {"minister": 2.0},
               "dupin": {"minister": 5.0}},
    edges=(TrustEdge("victim", "prefect", 0.9), TrustEdge("prefect", "dupin", 0.8)),
)

EMPLOYEE = TrustGraph(
    strengths={"employee": {"employer": 0.0}, "relative": {"employer": 1.0},
               "hr_director": {"employer": 3.0}, "lawyer": {"employer": 6.0}},
    edges=(TrustEdge("employee", "relative", 1.0),
           TrustEdge("relative", "hr_director", 0.8),
           TrustEdge("hr_director", "lawyer", 0.9)),
)


class TestValidation:
    def test_no_self_loops(self):
        with pytest.raises(InvalidConfig):
            TrustEdge("a", "a", 0.5)

    @pytest.mark.parametrize("w", [0.0, -0.5, 1.5, float("nan")])
    def test_willingness_bounds(self, w):
        with pytest.raises(InvalidConfig):
            TrustEdge("a", "b", w)

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_non_finite_willingness_names_its_field(self, w):
        with pytest.raises(InvalidConfig) as excinfo:
            TrustEdge("a", "b", w)
        assert (excinfo.value.field, excinfo.value.rule) == ("willingness",
                                                             "must be a finite number")

    @pytest.mark.parametrize("threshold", [float("inf"), float("nan")])
    def test_non_finite_threshold_names_its_field(self, threshold):
        with pytest.raises(InvalidConfig) as excinfo:
            find_power_chain(POE, "victim", "minister", threshold)
        assert (excinfo.value.field, excinfo.value.rule) == ("threshold",
                                                             "must be a finite number")

    @pytest.mark.parametrize("strength", [float("inf"), float("-inf"), float("nan")])
    def test_strengths_must_be_finite(self, strength):
        # documents cannot reach this: their reader rejects non-finite numbers first
        with pytest.raises(InvalidConfig) as excinfo:
            graph({"a": 0.0, "b": strength}, [("a", "b", 0.5)])
        assert (excinfo.value.field, excinfo.value.rule) == (
            None, "strength of 'b' vs 'adv' must be finite")

    def test_edge_endpoints_must_be_nodes(self):
        with pytest.raises(InvalidConfig):
            TrustGraph(strengths={"a": {}}, edges=(TrustEdge("a", "ghost", 0.5),))

    def test_duplicate_edges_rejected(self):
        # with two a->b edges the bottleneck of the path (a, b) would be undefined
        with pytest.raises(InvalidConfig) as excinfo:
            graph({"a": 0.0, "b": 5.0, "c": 5.0},
                  [("a", "b", 0.9), ("a", "c", 0.5), ("a", "b", 0.2)])
        assert excinfo.value.field == "edges[2]"

    def test_unknown_node_query(self):
        with pytest.raises(InvalidConfig, match="^unknown node 'ghost'$"):
            find_power_chain(POE, "ghost", "minister", 1.0)

    def test_missing_adversary_means_zero_strength(self):
        assert POE.strength_vs("victim", "someone_else") == 0.0


class TestFindPowerChain:
    def test_purloined_letter(self):
        chain = find_power_chain(POE, "victim", "minister", 4.0)
        assert chain == PowerChain(("victim", "prefect", "dupin"), 5.0)

    def test_employee_soft_landing(self):
        chain = find_power_chain(EMPLOYEE, "employee", "employer", 5.0)
        assert chain.path == ("employee", "relative", "hr_director", "lawyer")
        assert chain.terminal_strength == 6.0

    def test_zero_hop_when_already_strong(self):
        chain = find_power_chain(POE, "dupin", "minister", 4.0)
        assert chain == PowerChain(("dupin",), 5.0)

    def test_isolated_weak_node(self):
        lonely = graph({"w": 0.0, "s": 9.0}, [])
        with pytest.raises(NoChain):
            find_power_chain(lonely, "w", "adv", 5.0)

    def test_strength_must_strictly_increase(self):
        # the only route passes through an equally strong node: no chain
        flat = graph({"w": 1.0, "m": 1.0, "s": 9.0},
                     [("w", "m", 1.0), ("m", "s", 1.0)])
        with pytest.raises(NoChain):
            find_power_chain(flat, "w", "adv", 5.0)

    def test_shorter_chain_wins_despite_willingness(self):
        g = graph({"w": 0.0, "direct": 9.0, "a": 1.0, "b": 9.5},
                  [("w", "direct", 0.1), ("w", "a", 1.0), ("a", "b", 1.0)])
        assert find_power_chain(g, "w", "adv", 5.0).path == ("w", "direct")

    def test_tie_broken_by_minimum_willingness(self):
        g = graph({"w": 0.0, "x": 1.0, "y": 1.0, "sx": 9.0, "sy": 9.0},
                  [("w", "x", 0.3), ("x", "sx", 0.9),
                   ("w", "y", 0.8), ("y", "sy", 0.7)])
        assert find_power_chain(g, "w", "adv", 5.0).path == ("w", "y", "sy")

    def test_remaining_tie_broken_lexicographically(self):
        g = graph({"w": 0.0, "x": 1.0, "y": 1.0, "sx": 9.0, "sy": 9.0},
                  [("w", "x", 0.5), ("x", "sx", 0.5),
                   ("w", "y", 0.5), ("y", "sy", 0.5)])
        assert find_power_chain(g, "w", "adv", 5.0).path == ("w", "x", "sx")

    def test_keeps_every_prefix_that_can_still_win(self):
        # (w, z, v) beats (w, a, v) on bottleneck, but the weaker v->g edge
        # ties them, and then the labels want the prefix through a
        g = graph({"w": 0.0, "a": 1.0, "z": 1.0, "v": 2.0, "g": 3.0},
                  [("w", "a", 0.5), ("w", "z", 1.0), ("a", "v", 1.0), ("z", "v", 1.0),
                   ("v", "g", 0.5)])
        assert find_power_chain(g, "w", "adv", 3.0).path == ("w", "a", "v", "g")

    def test_large_graph_path_known_by_construction(self):
        # node i has strength i and trusts i+1..i+3, all equally willing: the
        # fewest hops from 0 to 199 is 67, which reach up to 201, and the
        # smallest labels spend the two spare units on the first hop
        labels = [f"n{i:03d}" for i in range(200)]
        g = graph(dict(zip(labels, map(float, range(200)))),
                  [(labels[i], labels[j], 0.5)
                   for i in range(200) for j in range(i + 1, min(i + 4, 200))])
        chain = find_power_chain(g, "n000", "adv", 199.0)
        assert chain.path == tuple(labels[i] for i in [0, 1, *range(4, 200, 3)])
        assert chain.terminal_strength == 199.0


def test_search_matches_exhaustive_enumeration():
    rng = np.random.default_rng(1234)
    # generator, graphs, least count of each outcome, least count of tied cases
    families = ((lambda: random_case(rng), 120, 40, 0),
                (lambda: random_case(rng, tie_heavy=True), 200, 40, 40),
                (lambda: layered_case(rng), 300, 30, 200))
    for make, n_graphs, least_outcome, least_tied in families:
        outcomes = {True: 0, False: 0}
        tied = 0  # cases where more than one path has the fewest hops
        for _ in range(n_graphs):
            g, threshold = make()
            outcomes[assert_search_matches(g, "n0", "adv", threshold)] += 1
            hops = [len(p) for p in all_qualifying_paths(g, "n0", "adv", threshold)]
            tied += hops.count(min(hops, default=0)) > 1
        assert min(outcomes.values()) >= least_outcome
        assert tied >= least_tied
