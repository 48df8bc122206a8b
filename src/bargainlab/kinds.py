"""Each scenario kind's renderers: the JSON outcome payload and the CSV
of what its body's ``run()`` returned.  The registry in ``scenario`` names
the two for each kind; a run report calls one only when its output is
asked for.  None imports an engine module.

CSV output is locale-independent and byte-deterministic: prices are
rendered with up to 6 significant digits (a ``.0`` is appended to bare
integers so every price cell stays visibly a decimal).  The trace
renderers format each row a negotiation iterated once; a stall's stated
cycle repeats those strings by position (``NegotiationTrace.expand``).
"""

from __future__ import annotations

from dataclasses import asdict

from .errors import NoChain


def _fmt(x: float) -> str:
    """Float cell: up to 6 significant digits, never locale-dependent."""
    s = format(x, ".6g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def negotiation_payload(body, trace) -> dict:
    cfg = body.config
    return {
        "kind": "negotiation",
        "buyer_reserve_adj": cfg.buyer_reserve_adj,
        "seller_reserve_adj": cfg.seller_reserve_adj,
        "rates": asdict(cfg.rates),
        "steps": [[n, *row] for n, row in enumerate(trace.steps)],
        "outcome": {"kind": type(trace.outcome).__name__.lower(), **asdict(trace.outcome)},
    }


def write_trace_csv(trace) -> str:
    """Offer trace as CSV: step,offer_buyer,offer_seller,gap + outcome row."""
    lines = ["step,offer_buyer,offer_seller,gap"]
    lines += [f"{n},{cells}" for n, cells in enumerate(trace.expand(
        [f"{_fmt(buyer)},{_fmt(seller)},{_fmt(gap)}" for buyer, seller, gap in trace.rows]))]
    if trace.agreed:
        lines.append(f"# outcome,agreement,{trace.outcome.step},{_fmt(trace.outcome.price)}")
    else:
        lines.append(f"# outcome,breakdown,{trace.outcome.at_step}")
    return _csv(lines)


def negotiation_csv(body, trace) -> str:
    return write_trace_csv(trace)


def chain_payload(body, result) -> dict:
    results, report = result
    return {
        "kind": "chain",
        "stages": [asdict(r) for r in results],
        "squeeze": {**asdict(report), "margin_shares": [list(m) for m in report.margin_shares]},
    }


def chain_csv(body, result) -> str:
    results, report = result
    lines = ["stage,name,buyer_reserve_effective,settlement,margin,margin_share"]
    for index, (stage, (_, share)) in enumerate(zip(results, report.margin_shares)):
        cells = [str(index), stage.name]
        for value in (stage.buyer_reserve_effective, stage.settlement, stage.margin):
            cells.append("" if value is None else _fmt(value))
        cells.append(_fmt(share) if stage.settled else "")
        lines.append(",".join(cells))
    if report.complete:
        lines.append(f"# outcome,complete,{_fmt(report.final_settlement_share)}")
    else:
        first_broken = next(i for i, r in enumerate(results) if not r.settled)
        lines.append(f"# outcome,breakdown,{first_broken}")
    return _csv(lines)


def _sheet_record(sheet) -> dict:
    # the payload and the one CSV row are the balance sheet's fields, in order
    return {**asdict(sheet), "verdict": sheet.verdict.value}


def nonmarket_payload(body, sheet) -> dict:
    return {"kind": "nonmarket", **_sheet_record(sheet)}


def nonmarket_csv(body, sheet) -> str:
    record = _sheet_record(sheet)
    cells = ["" if v is None else v if isinstance(v, str) else _fmt(v) for v in record.values()]
    return ",".join(record) + "\n" + ",".join(cells) + "\n"


def power_chain_payload(body, chain) -> dict:
    if isinstance(chain, NoChain):
        return {"kind": "power_chain", "found": False, "reason": str(chain)}
    return {
        "kind": "power_chain",
        "found": True,
        "path": list(chain.path),
        "strengths": [body.graph.strength_vs(node, body.adversary) for node in chain.path],
        "terminal_strength": chain.terminal_strength,
        "hops": len(chain.path) - 1,
    }


def power_chain_csv(body, chain) -> str:
    lines = ["position,subject,strength_vs_adversary"]
    if isinstance(chain, NoChain):
        lines.append("# outcome,no_chain")
        return _csv(lines)
    for position, node in enumerate(chain.path):
        lines.append(f"{position},{node},{_fmt(body.graph.strength_vs(node, body.adversary))}")
    lines.append(f"# outcome,chain,{len(chain.path) - 1},{_fmt(chain.terminal_strength)}")
    return _csv(lines)


def society_payload(body, trace) -> dict:
    wealth = trace.final_wealth
    return {
        "kind": "society",
        "final_gini": trace.final_gini,
        "gini_series": [float(g) for g in trace.gini_series],
        "total_initial": float(trace.totals[0]),
        "total_final": float(trace.totals[-1]),
        "injected_per_epoch": trace.injected_per_epoch,
        "wealth_mean": float(wealth.mean()),
        "wealth_min": float(wealth.min()),
        "wealth_max": float(wealth.max()),
    }


def society_csv(body, trace) -> str:
    lines = ["epoch,gini"]
    for epoch, value in enumerate(trace.gini_series):
        lines.append(f"{epoch},{_fmt(value)}")
    lines.append(f"# outcome,final_gini,{_fmt(trace.final_gini)}")
    return _csv(lines)
