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

from .errors import InvalidConfig, InvalidInput, NoChain


@dataclass(frozen=True)
class TrustEdge:
    """Directed trust link: the requester can ask the helper for a favor."""

    requester: str
    helper: str
    willingness: float

    def __post_init__(self):
        if self.requester == self.helper:
            raise InvalidConfig("self-loops are not allowed")
        if not math.isfinite(self.willingness) or not 0.0 < self.willingness <= 1.0:
            raise InvalidConfig("must lie in (0, 1]", field="willingness")


@dataclass(frozen=True)
class TrustGraph:
    """Subjects with per-adversary strengths, wired by trust edges.

    ``strengths`` maps node -> adversary -> strength; a missing entry
    counts as strength 0 against that adversary.
    """

    strengths: Mapping[str, Mapping[str, float]]
    edges: tuple[TrustEdge, ...]
    _adjacency: dict[str, list[TrustEdge]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.strengths:
            raise InvalidConfig("must have at least one node", field="strengths")
        object.__setattr__(self, "edges", tuple(self.edges))
        adjacency: dict[str, list[TrustEdge]] = {}
        for index, edge in enumerate(self.edges):
            for endpoint in (edge.requester, edge.helper):
                if endpoint not in self.strengths:
                    raise InvalidConfig(f"endpoint {endpoint!r} is not a node",
                                        field=f"edges[{index}]")
            adjacency.setdefault(edge.requester, []).append(edge)
        for label, per_adversary in self.strengths.items():
            for adversary, strength in per_adversary.items():
                if not math.isfinite(strength):
                    raise InvalidConfig(
                        f"strength of {label!r} vs {adversary!r} must be finite")
        object.__setattr__(self, "_adjacency", adjacency)

    def strength_vs(self, node: str, adversary: str) -> float:
        if node not in self.strengths:
            raise InvalidInput(f"unknown node {node!r}")
        return float(self.strengths[node].get(adversary, 0.0))

    def edges_from(self, node: str) -> list[TrustEdge]:
        return self._adjacency.get(node, [])


@dataclass(frozen=True)
class PowerChainScenario:
    """A weak subject looking for help against an adversary in a trust graph."""

    graph: TrustGraph
    weak: str
    adversary: str
    threshold: float

    def __post_init__(self):
        if self.weak not in self.graph.strengths:
            raise InvalidConfig("must be a node", field="weak")


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

    Breadth-first over full paths: the strictly-increasing constraint
    forces each path to visit its node set in strength order, which keeps
    the frontier small for the graph sizes this models (it is exponential
    only in pathological dense graphs).
    """
    if not math.isfinite(threshold):
        raise InvalidInput("threshold must be finite")
    start_strength = graph.strength_vs(weak, adversary)
    if start_strength >= threshold:
        return PowerChain((weak,), start_strength)

    # frontier entries: (minimum edge willingness so far, path)
    frontier: list[tuple[float, tuple[str, ...]]] = [(math.inf, (weak,))]
    for _ in range(max(0, len(graph.strengths) - 1)):
        extended: list[tuple[float, tuple[str, ...]]] = []
        for min_will, path in frontier:
            endpoint_strength = graph.strength_vs(path[-1], adversary)
            for edge in graph.edges_from(path[-1]):
                if graph.strength_vs(edge.helper, adversary) <= endpoint_strength:
                    continue
                extended.append((min(min_will, edge.willingness), path + (edge.helper,)))
        if not extended:
            break
        qualifying = [(m, p) for m, p in extended
                      if graph.strength_vs(p[-1], adversary) >= threshold]
        if qualifying:
            min_will, path = min(qualifying, key=lambda item: (-item[0], item[1]))
            return PowerChain(path, graph.strength_vs(path[-1], adversary))
        frontier = extended
    raise NoChain(
        f"no trust path from {weak!r} reaches strength >= {threshold!r} vs {adversary!r}")

