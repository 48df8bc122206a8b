"""Each scenario kind's renderers: the JSON outcome payload and the CSV
of what its body's ``run()`` returned.  The registry in ``scenario`` names
the two for each kind; a run report calls one only when its output is
asked for.  None imports an engine module.

CSV output is locale-independent and byte-deterministic: prices are
rendered with up to 6 significant digits (a ``.0`` is appended to bare
integers so every price cell stays visibly a decimal).  The trace
renderers format each row a negotiation iterated once; a stall's stated
cycle repeats those strings by position (``NegotiationTrace.expand``).
``numbered_rows`` then numbers the rows and joins them into the text
once: one at a time up to the first multiple of 100 past the iterated
rows, and after the last full block, but each full block of 100 steps
as its hundreds laid before the rows of a template of their last two
digits and cells.  The template depends only on the block's phase in the
cycle, so it is made once.
"""

from __future__ import annotations

import math
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


def numbered_rows(trace, cells: list[str], mid: str, sep: str, head: str, tail: str) -> str:
    """``head + sep.join(f"{n}{mid}{c}" for n, c in enumerate(trace.expand(
    cells))) + tail``, built by one join; ``cells`` has one string per
    iterated row.

    Rows are formatted one at a time up to the first multiple of 100 past
    the iterated rows, and after the last full block.  Past the iterated
    rows every step repeats the cycle, so the rows of a full block [b, b +
    100) differ from those of any block with the same phase, b mod
    ``period``, only in ``str(b // 100)``: the block is the phase's
    template ``["00{mid}{cell}", ..., "99{mid}{cell}"]`` with ``sep`` and
    that string laid before each of its rows.  A template is made the
    first time a phase that recurs comes up.  A block whose phase comes up
    only once, and every row of a trace with no cycle, is formatted one
    row at a time.  Rows and what goes before them are separate parts of
    the one join, so the text is the only large string a call allocates.
    """
    steps = trace.expand(cells)
    if not trace.period:
        rows = [f"{n}{mid}{c}" for n, c in enumerate(steps)]
        del cells, steps  # the caller's cells are freed before the join
        rows[0] = head + rows[0]
        rows[-1] += tail
        return sep.join(rows)
    start = -(-len(cells) // 100) * 100  # at least 100: a cycle has a row
    stop = max(start, len(steps) // 100 * 100)
    recur = trace.period // math.gcd(trace.period, 100)  # blocks until a phase recurs
    parts = []

    def lay(before: str, rows: list[str]) -> None:
        block = [before] * (2 * len(rows))
        block[1::2] = rows
        parts.extend(block)

    lay(sep, [f"{n}{mid}{c}" for n, c in enumerate(steps[:start])])
    templates = {}
    for b in range(start, stop, 100):
        template = templates.get(b % trace.period)
        if template is None and recur < (stop - b) // 100:
            template = templates[b % trace.period] = [
                f"{i:02}{mid}{c}" for i, c in enumerate(steps[b:b + 100])]
        if template is None:  # a phase seen once gains nothing from a template
            lay(sep, [f"{n}{mid}{c}" for n, c in enumerate(steps[b:b + 100], b)])
        else:
            lay(f"{sep}{b // 100}", template)
    lay(sep, [f"{n}{mid}{c}" for n, c in enumerate(steps[stop:], stop)])
    parts[0] = head  # in place of the separator before row 0
    parts.append(tail)
    return "".join(parts)


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
    if trace.agreed:
        outcome = f"# outcome,agreement,{trace.outcome.step},{_fmt(trace.outcome.price)}"
    else:
        outcome = f"# outcome,breakdown,{trace.outcome.at_step}"
    return numbered_rows(trace, [f"{_fmt(buyer)},{_fmt(seller)},{_fmt(gap)}"
                                 for buyer, seller, gap in trace.rows], ",", "\n",
                         "step,offer_buyer,offer_seller,gap\n", f"\n{outcome}\n")


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
