"""search workload, in-process: ``powerchain.find_power_chain`` on two
graph families.

* dense: complete strength-ordered DAGs with the threshold out of reach,
  today's worst case, where the frontier holds every path.  Sizes go up to
  where one search takes about a second today.
* sparse: random layered graphs of a few hundred nodes, two stronger
  contacts and one weaker contact per node, thresholds reachable and out
  of reach; plus small random graphs with tied willingness, where an
  exhaustive enumeration can rank every chain.  Today's search is already
  fast here, so a rewrite that slows small searches shows.

Layering fixes the number of strength-raising paths at every depth, so the
work of a search does not depend on the seed, only its wiring does.
"""

from __future__ import annotations

import time

import numpy as np

import oracles
from harness import Round, mean, median

from bargainlab.errors import NoChain
from bargainlab.powerchain import TrustEdge, TrustGraph, find_power_chain

ADVERSARY = "rival"
DENSE_SIZES = (14, 16, 18, 20)
LAYERS, WIDTH = 13, 23          # 299 nodes per sparse graph
SPARSE_GRAPHS = 4               # half with the threshold in reach
REACH_HOPS = 9
SMALL_GRAPHS, SMALL_NODES = 8, 9
TIED_WILLINGNESS = (0.25, 0.5, 1.0)


def _labels(rng, n: int) -> list[str]:
    # random, distinct labels so the lexicographic tie-break is exercised
    return [f"s{v:06d}" for v in rng.choice(1_000_000, size=n, replace=False)]


def _dense(rng, n: int) -> dict:
    labels = _labels(rng, n)
    strength = np.sort(rng.uniform(0.0, 10.0, size=n))
    edges = [(labels[i], labels[j], float(rng.uniform(0.05, 1.0)))
             for i in range(n) for j in range(i + 1, n)]
    return {"tag": f"dense-n{n}", "labels": labels,
            "strengths": {lab: float(s) for lab, s in zip(labels, strength)},
            "edges": edges, "weak": labels[0], "threshold": 11.0, "reachable": False}


def _layered(rng, reachable: bool) -> dict:
    labels = _labels(rng, LAYERS * WIDTH)
    layers = [labels[k * WIDTH:(k + 1) * WIDTH] for k in range(LAYERS)]
    strengths = {lab: k + float(rng.uniform(0.0, 0.9))
                 for k, layer in enumerate(layers) for lab in layer}
    edges = []
    for k, layer in enumerate(layers):
        for lab in layer:
            if k + 1 < LAYERS:
                for j in rng.choice(WIDTH, size=2, replace=False):
                    edges.append((lab, layers[k + 1][j], float(rng.choice(TIED_WILLINGNESS))))
            if k > 0:
                edges.append((lab, layers[k - 1][int(rng.integers(WIDTH))],
                              float(rng.uniform(0.05, 1.0))))
    threshold = float(REACH_HOPS) if reachable else float(LAYERS + 1)
    return {"tag": "sparse", "labels": labels, "strengths": strengths, "edges": edges,
            "weak": layers[0][0], "threshold": threshold, "reachable": reachable}


def _small(rng) -> dict:
    labels = _labels(rng, SMALL_NODES)
    strengths = {lab: float(rng.uniform(0.0, 10.0)) for lab in labels}
    edges = [(a, b, float(rng.choice(TIED_WILLINGNESS)))
             for a in labels for b in labels if a != b and rng.random() < 0.35]
    ranked = sorted(strengths.values())
    return {"tag": "small", "labels": labels, "strengths": strengths, "edges": edges,
            "weak": min(labels, key=strengths.get), "threshold": ranked[-3], "reachable": None}


def _graph(case: dict) -> TrustGraph:
    strengths = case["strengths"]
    return TrustGraph(strengths={lab: {ADVERSARY: strengths[lab]} for lab in case["labels"]},
                      edges=tuple(TrustEdge(r, h, w) for r, h, w in case["edges"]))


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    dense = [_dense(rng, n) for n in DENSE_SIZES]
    sparse = [_layered(rng, reachable=i % 2 == 0) for i in range(SPARSE_GRAPHS)]
    sparse += [_small(rng) for _ in range(SMALL_GRAPHS)]
    for case in dense + sparse:
        case["graph"] = _graph(case)
    return {"dense": dense, "sparse": sparse}


def _search(case: dict, tr):
    with tr.span("bench.search", case["tag"]):
        with tr.span("powerchain.find_power_chain", case["tag"]):
            start = time.perf_counter()
            try:
                chain = find_power_chain(case["graph"], case["weak"], ADVERSARY, case["threshold"])
            except NoChain:
                chain = None
            return chain, time.perf_counter() - start


def check_case(case: dict, path) -> list[str]:
    """The found path (None for NoChain) against the benchmark's own oracles."""
    strengths, edges, weak, threshold = (case["strengths"], case["edges"], case["weak"],
                                         case["threshold"])
    if case["tag"] == "small":
        expected = oracles.spec_optimal_chain(strengths, edges, weak, threshold)
        return [] if path == expected else [f"small graph: found {path}, spec-optimal {expected}"]
    hops = oracles.bfs_hops(strengths, edges, weak, threshold)
    if path is None:
        return [] if hops is None else [f"{case['tag']}: NoChain, but {hops} hops reach"]
    problems = oracles.check_chain_path(path, strengths, edges, threshold)
    if len(path) - 1 != hops:
        problems.append(f"{case['tag']}: {len(path) - 1} hops, breadth-first search finds {hops}")
    best = oracles.best_bottleneck(strengths, edges, weak, threshold, hops)
    found = min((w for r, h, w in edges for a, b in zip(path, path[1:]) if (r, h) == (a, b)),
                default=float("inf"))
    if found != best:
        problems.append(f"{case['tag']}: bottleneck {found}, best over {hops} hops is {best}")
    return problems


def run_round(state: dict, tr, full_check: bool) -> Round:
    result = Round()
    found = []
    for case in state["dense"]:
        chain, elapsed = _search(case, tr)
        result.jobs.append((case["tag"], elapsed))
        found.append(chain)
    for index, case in enumerate(state["sparse"]):
        chain, elapsed = _search(case, tr)
        result.units.append((f"sparse-{index}", elapsed))
        result.work.append((f"sparse-{index}", 1, elapsed))
        found.append(chain)
    result.attempted = len(found)
    paths = [None if chain is None else chain.path for chain in found]
    if full_check:
        for case, chain, path in zip(state["dense"] + state["sparse"], found, paths):
            result.problems += check_case(case, path)
            if chain is not None and chain.terminal_strength != case["strengths"][path[-1]]:
                result.problems.append(f"{case['tag']}: wrong terminal strength")
        for case, path in zip(state["dense"] + state["sparse"], paths):
            if case["reachable"] is not None and (path is not None) != case["reachable"]:
                result.problems.append(f"{case['tag']}: reachability differs from construction")
        state["first"] = paths
    elif paths != state["first"]:
        result.problems.append("paths differ from the first round's on the same graphs")
    return result


def layer_metrics(state: dict, tr) -> dict:
    builds = []
    for _ in range(3):
        with tr.span("powerchain.TrustGraph"):
            start = time.perf_counter()
            for case in state["dense"] + state["sparse"]:
                _graph(case)
            builds.append(time.perf_counter() - start)
    out = {f"powerchain.search_ms.dense-n{n}":
           1000 * mean(tr.durations("powerchain.find_power_chain", f"dense-n{n}"))
           for n in DENSE_SIZES}
    traced_rounds = {s["round"] for s in tr.spans if s["round"] is not None}
    sparse = sum(tr.durations("powerchain.find_power_chain", "sparse")) + \
        sum(tr.durations("powerchain.find_power_chain", "small"))
    out["powerchain.search_ms.sparse"] = 1000 * sparse / max(1, len(traced_rounds))
    out["powerchain.graph_build_ms"] = 1000 * median(builds)
    return out
