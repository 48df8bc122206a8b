"""Checks computed apart from the program.

Nothing here calls bargainlab: every expected value is recomputed from the
model's documented rules, and no check compares against a stored copy of
an earlier output.  Each ``check_*`` function returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

ROW_TOL = 1e-12


def fmt6(x: float) -> str:
    """The documented CSV cell format: 6 significant digits, ``.0`` on integers."""
    s = format(float(x), ".6g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# negotiation

def replay_negotiation(buyer_open, seller_open, buyer_reserve, seller_reserve,
                       rates, gap_epsilon, max_steps):
    """The documented offer update, iterated in plain Python.

    Returns ("agreement", step, price) or ("breakdown", max_steps, None).
    """
    r_a, r_ap, r_b, r_bp = rates["r_a"], rates["r_a_prime"], rates["r_b"], rates["r_b_prime"]
    x_a, x_b = buyer_open, seller_open
    for n in range(max_steps + 1):
        if x_b - x_a <= gap_epsilon:
            return "agreement", n, (x_a + x_b) / 2.0
        if n == max_steps:
            break
        x_a, x_b = (x_a + r_a * (buyer_reserve - x_a) + r_ap * (x_b - x_a),
                    x_b - r_b * (x_b - seller_reserve) - r_bp * (x_b - x_a))
    return "breakdown", max_steps, None


def rest_point(buyer_reserve, seller_reserve, rates):
    """Closed-form rest point of the 2x2 update, by Cramer's rule."""
    r_a, r_ap, r_b, r_bp = rates["r_a"], rates["r_a_prime"], rates["r_b"], rates["r_b_prime"]
    a11, a12, a21, a22 = r_a + r_ap, -r_ap, -r_bp, r_b + r_bp
    b1, b2 = r_a * buyer_reserve, r_b * seller_reserve
    det = a11 * a22 - a12 * a21
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - a21 * b1) / det


def check_trace(steps, body, reserves, rates, outcome, stall: bool) -> list[str]:
    """Every rule a reported offer trace must obey.

    ``steps`` are [step, offer_buyer, offer_seller, gap] rows, ``body`` the
    negotiation body of the scenario echo, ``reserves`` the reported
    adjusted (buyer, seller) reserves.
    """
    problems = []
    eps, max_steps = body["gap_epsilon"], body["max_steps"]
    b_res, s_res = reserves
    r_a, r_ap, r_b, r_bp = rates["r_a"], rates["r_a_prime"], rates["r_b"], rates["r_b_prime"]
    b_open, s_open = body["buyer"]["open"], body["seller"]["open"]
    lo = min(b_open, s_open, b_res, s_res)
    hi = max(b_open, s_open, b_res, s_res)
    slack = ROW_TOL * max(1.0, abs(lo), abs(hi))
    if not steps or steps[0][1] != b_open or steps[0][2] != s_open:
        return ["trace does not start at the opening offers"]
    prev = None
    for index, (n, x_a, x_b, gap) in enumerate(steps):
        if n != index:
            return [f"row {index} is numbered {n}"]
        if not close(gap, x_b - x_a, ROW_TOL):
            return [f"row {n}: gap {gap!r} is not seller minus buyer"]
        if not (lo - slack <= x_a <= hi + slack and lo - slack <= x_b <= hi + slack):
            return [f"row {n}: offers leave the hull [{lo}, {hi}]"]
        if prev is not None:
            pa, pb = prev
            exp_a = pa + r_a * (b_res - pa) + r_ap * (pb - pa)
            exp_b = pb - r_b * (pb - s_res) - r_bp * (pb - pa)
            if not (close(x_a, exp_a, ROW_TOL) and close(x_b, exp_b, ROW_TOL)):
                return [f"row {n} does not follow from row {n - 1} by the update"]
        if gap <= eps and index != len(steps) - 1:
            return [f"row {n} has gap <= epsilon but the trace goes on"]
        prev = (x_a, x_b)
    last_gap = steps[-1][3]
    if outcome["kind"] == "breakdown":
        if len(steps) != max_steps + 1 or last_gap <= eps:
            problems.append("breakdown without max_steps + 1 open rows")
        if outcome["at_step"] != max_steps:
            problems.append("breakdown reported at the wrong step")
    else:
        if len(steps) == max_steps + 1 and last_gap > eps:
            problems.append("agreement reported on a trace that ran out of steps")
        if last_gap > eps or outcome["step"] != len(steps) - 1:
            problems.append("agreement not at the first row with gap <= epsilon")
        if outcome["price"] != (steps[-1][1] + steps[-1][2]) / 2.0:
            problems.append("agreement price is not the midpoint of the last offers")
    if stall:
        if outcome["kind"] != "breakdown":
            problems.append("a stall with crossed reserves reached agreement")
        rest = rest_point(b_res, s_res, rates)
        if not (close(steps[-1][1], rest[0], 1e-9) and close(steps[-1][2], rest[1], 1e-9)):
            problems.append(f"stall ends at {steps[-1][1:3]}, not at the rest point {rest}")
    return problems


def check_trace_csv(csv_text: str, steps, outcome) -> list[str]:
    """The CSV rows must be the JSON rows in the documented cell format."""
    lines = csv_text.split("\n")
    if lines[0] != "step,offer_buyer,offer_seller,gap" or lines[-1] != "":
        return ["trace CSV header or final newline is wrong"]
    rows = lines[1:-2]
    if len(rows) != len(steps):
        return [f"CSV has {len(rows)} rows, JSON has {len(steps)} steps"]
    for row, (n, x_a, x_b, gap) in zip(rows, steps):
        if row != f"{n},{fmt6(x_a)},{fmt6(x_b)},{fmt6(gap)}":
            return [f"CSV row {row!r} differs from JSON step {n}"]
    if outcome["kind"] == "agreement":
        expected = f"# outcome,agreement,{outcome['step']},{fmt6(outcome['price'])}"
    else:
        expected = f"# outcome,breakdown,{outcome['at_step']}"
    if lines[-2] != expected:
        return [f"CSV outcome {lines[-2]!r} differs from JSON outcome {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# supply chains

def check_chain(payload: dict) -> list[str]:
    stages = payload["stages"]
    squeeze = payload["squeeze"]
    if not squeeze["complete"]:
        return [] if squeeze["final_settlement_share"] is None else \
            ["incomplete chain reports a terminal share"]
    total = sum(share for _, share in squeeze["margin_shares"]) + squeeze["final_settlement_share"]
    problems = [] if abs(total - 1.0) <= 1e-9 else [f"margin shares sum to {total!r}, not 1"]
    anchor = squeeze["anchor_price"]
    incoming = anchor
    for stage in stages:
        if not close(stage["margin"], incoming - stage["settlement"], 1e-12):
            problems.append(f"stage {stage['name']}: margin is not incoming - settlement")
        incoming = stage["settlement"]
    return problems


def check_squeeze(settlements_by_factor: list[list[float | None]]) -> list[str]:
    """Settlements never rise as the market-facing buyer's power rises.

    Rows are ordered by rising power; None marks a link that did not
    settle, which ranks below any settlement.
    """
    for before, after in zip(settlements_by_factor, settlements_by_factor[1:]):
        for stage, (b, a) in enumerate(zip(before, after)):
            if a is None:
                continue
            if b is None or a > b + 1e-12 * max(1.0, abs(b)):
                return [f"stage {stage} settlement rose from {b!r} to {a!r} with more power"]
    return []


# ---------------------------------------------------------------------------
# money-free exchanges

def nonmarket_expected(body: dict) -> dict:
    p = body["proposal"]
    keep = body["promise_keep_prob"]
    gain_b = p["gain_for_b"] * keep
    m_a = p["gain_for_a"] - p["give_cost_a"]
    m_b = gain_b - p["give_cost_b"]
    ia, ib = body["influence_a"], body["influence_b"]
    m_a_eff = m_a + ia["threat_on_refusal"] * (1.0 - ia["shield"])
    m_b_eff = m_b + ib["threat_on_refusal"] * (1.0 - ib["shield"])
    a_ok, b_ok = m_a_eff > 0.0, m_b_eff > 0.0
    verdict = ("both_accept" if a_ok and b_ok else "b_refuses" if a_ok
               else "a_refuses" if b_ok else "both_refuse")
    return {"m_a": m_a, "m_b_raw": m_b, "k_a": gain_b - p["give_cost_a"],
            "k_b": p["gain_for_a"] - p["give_cost_b"], "m_a_effective": m_a_eff,
            "m_b_effective": m_b_eff, "verdict": verdict}


def check_nonmarket(body: dict, payload: dict, csv_text: str) -> list[str]:
    expected = nonmarket_expected(body)
    problems = [f"{key} is {payload[key]!r}, expected {value!r}"
                for key, value in expected.items()
                if (payload[key] != value if key == "verdict"
                    else not close(payload[key], value, 1e-12))]
    cells = csv_text.split("\n")[1].split(",")
    if cells[-1] != expected["verdict"] or cells[0] != fmt6(expected["m_a"]):
        problems.append(f"CSV row {cells!r} disagrees with the recomputed balance")
    return problems


# ---------------------------------------------------------------------------
# power chains

def increasing_edges(strengths: dict, edges) -> dict[str, list[tuple[str, float]]]:
    """Adjacency restricted to hops that strictly raise strength."""
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for requester, helper, willingness in edges:
        if strengths[helper] > strengths[requester]:
            adjacency.setdefault(requester, []).append((helper, willingness))
    return adjacency


def check_chain_path(path, strengths: dict, edges, threshold) -> list[str]:
    edge_set = {(r, h) for r, h, _ in edges}
    for a, b in zip(path, path[1:]):
        if (a, b) not in edge_set:
            return [f"path hop {a}->{b} is not a trust edge"]
        if not strengths[b] > strengths[a]:
            return [f"path hop {a}->{b} does not raise strength"]
    if not strengths[path[-1]] >= threshold:
        return [f"path ends at strength {strengths[path[-1]]!r} below {threshold!r}"]
    return []


def bfs_hops(strengths: dict, edges, weak: str, threshold: float) -> int | None:
    """Fewest hops to a node with strength >= threshold, over nodes."""
    if strengths[weak] >= threshold:
        return 0
    adjacency = increasing_edges(strengths, edges)
    seen = {weak}
    queue = deque([(weak, 0)])
    while queue:
        node, hops = queue.popleft()
        for helper, _ in adjacency.get(node, ()):
            if helper in seen:
                continue
            if strengths[helper] >= threshold:
                return hops + 1
            seen.add(helper)
            queue.append((helper, hops + 1))
    return None


def best_bottleneck(strengths: dict, edges, weak: str, threshold: float, hops: int) -> float:
    """Largest minimum willingness over hop-exact paths to a qualifying node."""
    adjacency = increasing_edges(strengths, edges)
    layer = {weak: math.inf}
    for _ in range(hops):
        nxt: dict[str, float] = {}
        for node, bottleneck in layer.items():
            for helper, willingness in adjacency.get(node, ()):
                value = min(bottleneck, willingness)
                if value > nxt.get(helper, -1.0):
                    nxt[helper] = value
        layer = nxt
    return max((b for node, b in layer.items() if strengths[node] >= threshold), default=-1.0)


def spec_optimal_chain(strengths: dict, edges, weak: str, threshold: float):
    """Exhaustive enumeration of every simple path, ranked by the spec.

    Fewest hops, then the largest bottleneck willingness, then the
    lexicographically smallest label sequence.  None when nothing qualifies.
    """
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for requester, helper, willingness in edges:
        adjacency.setdefault(requester, []).append((helper, willingness))
    best = None
    stack = [((weak,), math.inf)]
    while stack:
        path, bottleneck = stack.pop()
        values = [strengths[node] for node in path]
        if all(b > a for a, b in zip(values, values[1:])) and values[-1] >= threshold:
            key = (len(path), -bottleneck, path)
            if best is None or key < best:
                best = key
        for helper, willingness in adjacency.get(path[-1], ()):
            if helper not in path:
                stack.append((path + (helper,), min(bottleneck, willingness)))
    return None if best is None else best[2]


# ---------------------------------------------------------------------------
# society

def pairwise_gini(wealth) -> float:
    """Gini by its pairwise definition: sum |x_i - x_j| / (2 n^2 mean).

    Up to 2000 values the double sum is formed block by block; above that
    the same sum over ordered pairs is taken from prefix sums of the
    sorted values, which keeps the check's memory below the program's.
    """
    x = np.asarray(wealth, dtype=float)
    n = x.size
    if n <= 2000:
        total = sum(float(np.abs(x[a:a + 200, None] - x[None, :]).sum())
                    for a in range(0, n, 200))
    else:
        ranked = np.sort(x)
        before = np.concatenate(([0.0], np.cumsum(ranked)[:-1]))
        total = 2.0 * float(np.sum(ranked * np.arange(n) - before))
    return total / (2.0 * n * float(x.sum()))


def reference_society(n, lo, hi, regime, parameter, epochs, pairings, seed, surplus=1.0):
    """Round loop of the society model, on the program's RNG stream.

    Every agent trades once per round; the richer side of each pair takes
    share rho / (1 + rho) of the surplus, with rho the wealth ratio raised
    to the exponent (authoritarian) or capped (institutional).
    Returns the final wealth and the per-epoch pairwise Gini series.
    """
    rng = np.random.default_rng(seed)
    wealth = [float(w) for w in rng.uniform(lo, hi, size=n)]
    ginis = [pairwise_gini(wealth)]
    for _ in range(epochs):
        for _ in range(pairings):
            order = rng.permutation(n).tolist()
            for k in range(0, n - 1, 2):
                i, j = order[k], order[k + 1]
                if wealth[i] < wealth[j]:
                    i, j = j, i
                ratio = wealth[i] / wealth[j]
                rho = ratio ** parameter if regime == "authoritarian" else min(ratio, parameter)
                share = rho / (1.0 + rho)
                wealth[i] += surplus * share
                wealth[j] += surplus * (1.0 - share)
        ginis.append(pairwise_gini(wealth))
    return np.asarray(wealth), ginis


def check_conservation(totals, epochs: int, injected: float, final_wealth) -> list[str]:
    total_initial, total_final = float(totals[0]), float(totals[-1])
    expected = epochs * injected
    problems = []
    if abs((total_final - total_initial) - expected) > 1e-9 * total_final:
        problems.append(f"wealth not conserved: grew {total_final - total_initial!r}, "
                        f"injected {expected!r}")
    if abs(float(np.sum(final_wealth)) - total_final) > 1e-9 * total_final:
        problems.append("final wealth does not sum to the reported final total")
    return problems
