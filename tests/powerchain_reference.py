"""Test-side reference for ``powerchain.find_power_chain``.

It enumerates every qualifying trust path by brute force and ranks them by
the specification alone, sharing no code with the library's search, so a
test can compare the search's whole answer against it.  It also generates
the random graphs those comparisons run on.
"""

import itertools

import pytest

from bargainlab.errors import NoChain
from bargainlab.powerchain import TrustEdge, TrustGraph, find_power_chain

#: Willingness values of the tie-heavy family: few, so bottlenecks tie often.
TIED_WILLINGNESS = (0.25, 0.5, 1.0)


def all_qualifying_paths(g, weak, adversary, threshold):
    """Every path from ``weak`` along trust edges whose strength strictly
    rises at each hop and whose last node reaches ``threshold``."""
    found = []

    def extend(path):
        last = path[-1]
        if g.strength_vs(last, adversary) >= threshold:
            found.append(tuple(path))
        for edge in g.edges:
            if edge.requester != last or edge.helper in path:
                continue
            if g.strength_vs(edge.helper, adversary) <= g.strength_vs(last, adversary):
                continue
            extend(path + [edge.helper])

    extend([weak])
    return found


def min_willingness(g, path):
    """Bottleneck willingness of a path; infinite for the zero-hop path."""
    lookup = {(e.requester, e.helper): e.willingness for e in g.edges}
    return min((lookup[pair] for pair in zip(path, path[1:])), default=float("inf"))


def spec_optimal_path(g, weak, adversary, threshold):
    """The qualifying path ranked first by (hops, -bottleneck willingness,
    labels), or None when no path qualifies."""
    return min(all_qualifying_paths(g, weak, adversary, threshold),
               key=lambda p: (len(p), -min_willingness(g, p), p), default=None)


def random_case(rng, tie_heavy=False):
    """A random graph on 2-8 nodes n0, n1, ... and a threshold for n0 vs "adv".

    Continuous cases draw strengths from U(0, 10), each ordered pair is an
    edge with probability 0.3 and willingness U(0.05, 1), and the threshold
    is U(0, 12).  Tie-heavy cases give n0 strength 0 and the others integer
    strengths 0-4, each pair is an edge with probability 0.5 and willingness
    from TIED_WILLINGNESS, edges are listed in random order, and the
    threshold is an integer 1-4: many paths tie on hops and on bottleneck,
    and strengths equal the threshold.
    """
    labels = [f"n{i}" for i in range(int(rng.integers(2, 9)))]
    if tie_heavy:
        strengths = {lab: {"adv": float(rng.integers(0, 5))} for lab in labels}
        strengths["n0"] = {"adv": 0.0}
    else:
        strengths = {lab: {"adv": float(rng.uniform(0.0, 10.0))} for lab in labels}
    edges = []
    for a, b in itertools.permutations(labels, 2):
        if rng.random() < (0.5 if tie_heavy else 0.3):
            willingness = (float(rng.choice(TIED_WILLINGNESS)) if tie_heavy
                           else float(rng.uniform(0.05, 1.0)))
            edges.append(TrustEdge(a, b, willingness))
    if tie_heavy:  # so that the order edges are listed in cannot stand in for label order
        edges = [edges[i] for i in rng.permutation(len(edges))]
    threshold = float(rng.integers(1, 5)) if tie_heavy else float(rng.uniform(0.0, 12.0))
    return TrustGraph(strengths=strengths, edges=tuple(edges)), threshold


def layered_case(rng):
    """A random layered graph and a threshold for n0 vs "adv".

    n0 sits alone at strength 0, then come 3-4 layers of 2-3 nodes each,
    layer k at strength k, with the other labels shuffled across layers.
    Each pair of nodes in consecutive layers is an edge with probability
    0.7 and willingness from TIED_WILLINGNESS, edges are listed in random
    order, and the threshold is the top layer's strength.  Paths that tie
    on hops merge and fork again, so a prefix that loses on bottleneck at
    one node can still be the best chain after a weaker edge.
    """
    sizes = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(3, 5)))]
    labels = [f"n{i}" for i in rng.permutation(sum(sizes)) + 1]
    layers = [["n0"]]
    for size in sizes:
        layers.append(labels[:size])
        labels = labels[size:]
    strengths = {lab: {"adv": float(k)} for k, layer in enumerate(layers) for lab in layer}
    edges = [TrustEdge(a, b, float(rng.choice(TIED_WILLINGNESS)))
             for lower, upper in zip(layers, layers[1:]) for a in lower for b in upper
             if rng.random() < 0.7]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    return TrustGraph(strengths=strengths, edges=tuple(edges)), float(len(sizes))


def assert_search_matches(g, weak, adversary, threshold):
    """Assert that the search returns exactly the spec-optimal path with its
    terminal strength, or raises NoChain exactly when none qualifies.
    Returns whether a chain was found."""
    expected = spec_optimal_path(g, weak, adversary, threshold)
    if expected is None:
        with pytest.raises(NoChain):
            find_power_chain(g, weak, adversary, threshold)
        return False
    chain = find_power_chain(g, weak, adversary, threshold)
    assert chain.path == expected
    assert chain.terminal_strength == g.strength_vs(expected[-1], adversary)
    return True
