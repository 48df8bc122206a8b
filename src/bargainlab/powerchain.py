"""Chains of trust that lend a weak subject someone else's strength.

A subject too weak to face an adversary alone can ask a trusted contact
for help, who can ask their own contact in turn, until the request reaches
someone strong enough to neutralize the adversary.  Strength is specific
to the named adversary (a person weak in one arena may be strong in
another), and each hop must strictly increase it: every intermediary
recruits someone stronger than themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .core import require_finite
from .errors import InvalidConfig, NoChain


@dataclass(frozen=True)
class TrustEdge:
    """Directed trust link: the requester can ask the helper for a favor."""

    requester: str
    helper: str
    willingness: float

    def __post_init__(self):
        if self.requester == self.helper:
            raise InvalidConfig("self-loops are not allowed")
        if not 0.0 < require_finite("willingness", self.willingness) <= 1.0:
            raise InvalidConfig("must lie in (0, 1]", field="willingness")


@dataclass(frozen=True)
class TrustGraph:
    """Subjects with per-adversary strengths, wired by trust edges.

    ``strengths`` maps node -> adversary -> strength; a missing entry
    counts as strength 0 against that adversary.  Each ordered pair of
    nodes carries at most one edge.
    """

    strengths: Mapping[str, Mapping[str, float]]
    edges: tuple[TrustEdge, ...]
    _adjacency: dict[str, list[TrustEdge]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.strengths:
            raise InvalidConfig("must have at least one node", field="strengths")
        object.__setattr__(self, "edges", tuple(self.edges))
        adjacency: dict[str, list[TrustEdge]] = {}
        pairs: set[tuple[str, str]] = set()
        for index, edge in enumerate(self.edges):
            for endpoint in (edge.requester, edge.helper):
                if endpoint not in self.strengths:
                    raise InvalidConfig(f"endpoint {endpoint!r} is not a node",
                                        field=f"edges[{index}]")
            if (edge.requester, edge.helper) in pairs:
                raise InvalidConfig(
                    f"duplicate edge {edge.requester!r} -> {edge.helper!r}",
                    field=f"edges[{index}]")
            pairs.add((edge.requester, edge.helper))
            adjacency.setdefault(edge.requester, []).append(edge)
        for label, per_adversary in self.strengths.items():
            for adversary, strength in per_adversary.items():
                if not math.isfinite(strength):
                    raise InvalidConfig(
                        f"strength of {label!r} vs {adversary!r} must be finite")
        object.__setattr__(self, "_adjacency", adjacency)

    def strength_vs(self, node: str, adversary: str) -> float:
        if node not in self.strengths:
            raise InvalidConfig(f"unknown node {node!r}")
        return float(self.strengths[node].get(adversary, 0.0))

    def edges_from(self, node: str) -> list[TrustEdge]:
        return self._adjacency.get(node, [])


@dataclass(frozen=True)
class Node:
    """A subject's strength against each adversary it is rated against."""

    strength_vs: Mapping[str, float]


@dataclass(frozen=True)
class PowerChainScenario:
    """A weak subject looking for help against an adversary in a trust graph,
    given as labelled nodes and edges and kept as the ``graph`` the search
    runs on."""

    nodes: Mapping[str, Node]
    edges: tuple[TrustEdge, ...]
    weak: str
    adversary: str
    threshold: float
    graph: TrustGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        strengths = {label: node.strength_vs for label, node in self.nodes.items()}
        try:
            graph = TrustGraph(strengths=strengths, edges=self.edges)
        except InvalidConfig as exc:  # the graph's strengths are the body's nodes
            raise InvalidConfig(exc.rule, field="nodes" if exc.field == "strengths"
                                else exc.field) from None
        object.__setattr__(self, "graph", graph)
        if self.weak not in self.nodes:
            raise InvalidConfig("must be a node", field="weak")

    def run(self) -> PowerChain | NoChain:
        """The power chain, or the ``NoChain`` error that says why there is
        none: like a negotiation breakdown, that is a result, not a failure."""
        try:
            return find_power_chain(self.graph, self.weak, self.adversary, self.threshold)
        except NoChain as exc:
            return exc


@dataclass(frozen=True)
class PowerChain:
    """A qualifying path from the weak requester to the terminal helper."""

    path: tuple[str, ...]
    terminal_strength: float


def find_power_chain(graph: TrustGraph, weak: str, adversary: str,
                     threshold: float) -> PowerChain:
    """Shortest trust path ending at someone with strength >= threshold.

    Candidate paths follow trust edges from ``weak`` with strictly
    increasing strength against ``adversary`` at every hop (so every path
    is simple).  Among paths of minimal hop count, the one maximizing the
    minimum edge willingness wins; remaining ties go to the
    lexicographically smallest label sequence.  Raises NoChain when no
    path qualifies.

    Three passes over nodes, in O(nodes + edges):

    (a) a breadth-first search over strength-raising edges gives each node
        its least hop count and stops at the first layer, H hops out, that
        holds a node meeting the threshold (a goal);
    (b) the same sweep keeps each node's best bottleneck willingness over
        its fewest-hop paths, which is exact because every node of a
        fewest-hop chain sits at its own least hop count; the best over the
        goals is the chain's bottleneck B;
    (c) over layer-to-layer edges of willingness >= B, a backward pass
        marks the nodes that reach a goal, and a forward walk from ``weak``
        takes the smallest marked label at each hop.

    Keeping one best path prefix per node instead would be wrong: two
    prefixes with different bottlenecks can tie after a weaker edge, and
    the label tie-break may then want the one that was dropped.
    """
    require_finite("threshold", threshold)
    strength = {weak: graph.strength_vs(weak, adversary)}
    if strength[weak] >= threshold:
        return PowerChain((weak,), strength[weak])

    depth = {weak: 0}
    best = {weak: math.inf}
    layers = [[weak]]
    goals: list[str] = []
    while not goals:
        hop, layer = len(layers), []
        for node in layers[-1]:
            for edge in graph.edges_from(node):
                helper = edge.helper
                if helper not in strength:
                    strength[helper] = graph.strength_vs(helper, adversary)
                if strength[helper] <= strength[node]:
                    continue
                if helper not in depth:
                    depth[helper], best[helper] = hop, 0.0
                    layer.append(helper)
                elif depth[helper] != hop:
                    continue
                best[helper] = max(best[helper], min(best[node], edge.willingness))
        if not layer:
            raise NoChain(f"no trust path from {weak!r} reaches strength >= "
                          f"{threshold!r} vs {adversary!r}")
        layers.append(layer)
        goals = [node for node in layer if strength[node] >= threshold]
    bottleneck = max(best[node] for node in goals)

    def next_hops(node: str) -> list[str]:
        hop = depth[node] + 1
        return [edge.helper for edge in graph.edges_from(node)
                if edge.willingness >= bottleneck and depth.get(edge.helper) == hop
                and strength[edge.helper] > strength[node]]

    marked = set(goals)
    for layer in reversed(layers[:-1]):
        marked.update(node for node in layer if not marked.isdisjoint(next_hops(node)))
    path = [weak]
    for _ in range(len(layers) - 1):
        path.append(min(h for h in next_hops(path[-1]) if h in marked))
    return PowerChain(tuple(path), strength[path[-1]])
