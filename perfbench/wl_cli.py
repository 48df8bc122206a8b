"""cli workload: every bundled preset as a fresh ``bargainlab run`` process,
once as CSV and once as JSON, plus malformed documents derived from the
presets.  One process runs at a time; the next starts after it exits.

``python -m bargainlab.cli`` does nothing and the console script may not
be installed, so each process calls ``bargainlab.cli:console_main``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import oracles
from harness import OUT, ROOT, Round, median, mean, run_process

from bargainlab.negotiation import run as negotiation_run
from bargainlab.chain import propagate
from bargainlab.report import report_to_json, run_scenario, write_trace_csv
from bargainlab.scenario import parse_scenario, scenario_document

PRESET_DIR = ROOT / "src" / "bargainlab" / "presets"
ENTRY = "from bargainlab.cli import console_main; console_main()"
SENTINEL = "__perfbench_value__"
MISTAKES = ("unknown_field", "wrong_type", "out_of_range") * 2
# cli_run_ms is the median process of a round, each at its best
UNIT_IS_MEDIAN = True
PROBE_STARTS = 5
PROBE_REPEATS = 20

# Numeric fields each kind's malformed documents may corrupt, with a value
# outside the field's documented range (None: the field has no range).
FIELDS = {
    "negotiation": [(("buyer", "open"), None), (("buyer", "reserve"), -1.0),
                    (("seller", "reserve"), -1.0), (("rates", "r_a"), 1.5),
                    (("rates", "r_b_prime"), 1.0), (("gap_epsilon",), 0.0)],
    "chain": [(("anchor_price",), -1.0), (("stages", 0, "base_seller_reserve"), -1.0),
              (("stages", 1, "margin_floor"), -1.0),
              (("stages", 0, "buyer_view", "own_power"), 0.0),
              (("stages", 1, "rates", "r_b"), 1.0)],
    "nonmarket": [(("proposal", "give_cost_a"), -1.0), (("proposal", "gain_for_b"), None),
                  (("influence_b", "shield"), 1.5), (("promise_keep_prob",), 2.0)],
    "power_chain": [(("threshold",), None), (("edges", 0, "willingness"), 0.0),
                    (("edges", 1, "willingness"), 1.5)],
    "society": [(("n_agents",), 1), (("epochs",), 0), (("regime", "cap"), 0.5),
                (("regime", "power_exponent"), -1.0), (("unit_surplus",), 0.0),
                (("initial_wealth", "hi"), 0.5)],
}
# Objects an unknown field may be added to.
OBJECTS = {
    "negotiation": [(), ("buyer",), ("rates",), ("seller", "view")],
    "chain": [(), ("stages", 0), ("stages", 1, "seller_view")],
    "nonmarket": [(), ("proposal",), ("influence_a",)],
    "power_chain": [(), ("edges", 1)],
    "society": [(), ("regime",), ("initial_wealth",)],
}
# Non-finite numbers, on fixed documents: counted as failed until the
# parser rejects them with exit 1 and the field's path.  Today 1e400 is not
# rejected at parse time, and a NaN literal is refused by the JSON reader
# before any field is read, so its message names no path.
NON_FINITE = [("fig3", ("buyer", "reserve"), "1e400"),
              ("purloined-letter", ("threshold",), "1e400"),
              ("purloined-letter", ("nodes", "dupin", "strength_vs", "minister"), "1e400"),
              ("fig3", ("buyer", "open"), "NaN"),
              ("tomato-south", ("anchor_price",), "NaN")]


def field_path(keys) -> str:
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def _lookup(doc, keys):
    for key in keys:
        if isinstance(key, int):
            if not isinstance(doc, list) or key >= len(doc):
                return None
        elif not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _with_value(doc: dict, keys, value) -> str:
    """Preset document text with one body field replaced by ``value`` text."""
    doc = json.loads(json.dumps(doc))
    target = doc["body"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = SENTINEL
    return json.dumps(doc, indent=2).replace(json.dumps(SENTINEL), value)


def _malformed(presets: dict, rng) -> list[dict]:
    """Two documents per kind of mistake, on presets and fields drawn from
    rng, then the fixed non-finite documents."""
    def pick(candidates):
        return candidates[int(rng.integers(len(candidates)))]

    names = sorted(presets)
    jobs = []
    for mistake in MISTAKES:
        name = pick(names)
        doc = presets[name]
        kind, body = doc["kind"], doc["body"]
        if mistake == "unknown_field":
            keys = pick([k for k in OBJECTS[kind] if isinstance(_lookup(body, k), dict)])
            target = json.loads(json.dumps(doc))
            obj = target["body"]
            for key in keys:
                obj = obj[key]
            obj["perfbench_extra"] = 1
            text = json.dumps(target, indent=2)
            expect = f"{field_path(keys + ('perfbench_extra',))}: unknown field"
        else:
            fields = [(k, bad) for k, bad in FIELDS[kind] if _lookup(body, k) is not None]
            if mistake == "out_of_range":
                fields = [(k, bad) for k, bad in fields if bad is not None]
            keys, bad = pick(fields)
            if mistake == "wrong_type":
                text, expect = _with_value(doc, keys, '"x"'), f"{field_path(keys)}: expected a"
            else:
                text, expect = _with_value(doc, keys, json.dumps(bad)), f"{field_path(keys)}: "
        jobs.append({"name": f"{len(jobs)}-{mistake}-{name}", "text": text, "expect": expect})
    for name, keys, value in NON_FINITE:
        jobs.append({"name": f"non_finite-{name}-{field_path(keys)}-{value}",
                     "text": _with_value(presets[name], keys, value),
                     "expect": f"{field_path(keys)}: "})
    return jobs


def setup(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    texts = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PRESET_DIR.glob("*.json"))}
    presets = {name: json.loads(text) for name, text in texts.items()}
    society_seed = int(rng.integers(0, 2 ** 32))
    work = OUT / f"cli-docs-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    jobs = []
    for name, doc in presets.items():
        extra = ["--seed", str(society_seed)] if doc["kind"] == "society" else []
        for fmt in ("csv", "json"):
            argv = ["run", "--scenario", name] + extra
            if fmt == "csv":
                argv += ["--format", "csv"]
            jobs.append({"name": f"{name}.{fmt}", "preset": name, "format": fmt, "argv": argv})
    for bad in _malformed(presets, rng):
        path = work / f"{bad['name']}.json"
        path.write_text(bad["text"], encoding="utf-8")
        jobs.append({"name": bad["name"], "expect": bad["expect"],
                     "argv": ["run", "--scenario", str(path)]})
    return {"jobs": jobs, "env": env, "texts": texts, "presets": presets, "cpu": []}


# ---------------------------------------------------------------------------
# checks of one preset's CSV and JSON outputs

def check_preset(doc: dict, csv_text: str, json_text: str) -> list[str]:
    report = json.loads(json_text)
    body, out = report["scenario"]["body"], report["outcome"]
    kind = doc["kind"]
    if report["scenario"]["kind"] != kind:
        return ["scenario echo has the wrong kind"]
    if kind == "negotiation":
        reserves = (out["buyer_reserve_adj"], out["seller_reserve_adj"])
        kind_, step, price = oracles.replay_negotiation(
            body["buyer"]["open"], body["seller"]["open"], *reserves, out["rates"],
            body["gap_epsilon"], body["max_steps"])
        problems = oracles.check_trace(out["steps"], body, reserves, out["rates"],
                                       out["outcome"], stall=False)
        got = out["outcome"]
        if kind_ != got["kind"] or step != got.get("step", got.get("at_step")):
            problems.append(f"replay gives {kind_} at step {step}, the report {got}")
        elif price is not None and oracles.fmt6(price) != oracles.fmt6(got["price"]):
            problems.append(f"replayed price {price!r} differs from {got['price']!r}")
        return problems + oracles.check_trace_csv(csv_text, out["steps"], got)
    if kind == "chain":
        problems = oracles.check_chain(out)
        share = out["squeeze"]["final_settlement_share"]
        last = csv_text.rstrip("\n").split("\n")[-1]
        if out["squeeze"]["complete"] and last != f"# outcome,complete,{oracles.fmt6(share)}":
            problems.append(f"CSV outcome {last!r} differs from the JSON terminal share")
        return problems
    if kind == "nonmarket":
        return oracles.check_nonmarket(body, out, csv_text)
    if kind == "power_chain":
        strengths = {label: node["strength_vs"].get(body["adversary"], 0.0)
                     for label, node in body["nodes"].items()}
        edges = [(e["requester"], e["helper"], e["willingness"]) for e in body["edges"]]
        if not out["found"]:
            hops = oracles.bfs_hops(strengths, edges, body["weak"], body["threshold"])
            return [] if hops is None else [f"no chain reported, but one of {hops} hops exists"]
        problems = oracles.check_chain_path(out["path"], strengths, edges, body["threshold"])
        rows = [f"{i},{node},{oracles.fmt6(strengths[node])}" for i, node in enumerate(out["path"])]
        if csv_text.split("\n")[1:1 + len(rows)] != rows:
            problems.append("CSV path rows differ from the JSON path")
        return problems
    # society
    epochs = body["epochs"]
    problems = []
    injected = out["injected_per_epoch"]
    if injected != body["pairings_per_epoch"] * (body["n_agents"] // 2) * body["unit_surplus"]:
        problems.append("injected_per_epoch is not pairings x pairs x surplus")
    grown = out["total_final"] - out["total_initial"]
    if abs(grown - epochs * injected) > 1e-9 * out["total_final"]:
        problems.append(f"society wealth not conserved: grew {grown!r}")
    series = out["gini_series"]
    rows = csv_text.split("\n")[1:-2]
    if len(series) != epochs + 1 or out["final_gini"] != series[-1]:
        problems.append("gini series length or final value is wrong")
    elif rows != [f"{e},{oracles.fmt6(g)}" for e, g in enumerate(series)]:
        problems.append("CSV gini rows differ from the JSON series")
    return problems


def _check_rejected(proc, expect: str) -> bool:
    lines = proc.stderr.splitlines()
    return (proc.returncode == 1 and proc.stdout == "" and len(lines) == 1
            and lines[0].startswith(f"bargainlab: scenario error: {expect}"))


def run_round(state: dict, tr, full_check: bool) -> Round:
    result = Round()
    outputs: dict[str, dict] = {}
    argv0 = [sys.executable, "-c", ENTRY]
    for job in state["jobs"]:
        with tr.span("bench.cli_process", job["name"]):
            with tr.span("cli.process", job["name"]):
                proc = run_process(argv0 + job["argv"], state["env"], str(ROOT))
        result.units.append((job["name"], proc.wall))
        result.work.append((job["name"], 1, proc.wall))
        result.peak_mb.append(proc.peak_mb)
        state["cpu"].append(proc.cpu)
        result.attempted += 1
        if "expect" in job:
            if _check_rejected(proc, job["expect"]):
                result.jobs.append((job["name"], proc.wall))
            else:
                result.failed += 1
            continue
        if proc.returncode != 0:
            result.failed += 1
            continue
        outputs.setdefault(job["preset"], {})[job["format"]] = proc.stdout
        pair = outputs[job["preset"]]
        if len(pair) == 2:
            problems = check_preset(state["presets"][job["preset"]], pair["csv"], pair["json"])
            result.problems += [f"{job['preset']}: {p}" for p in problems]
    return result


# ---------------------------------------------------------------------------
# per-layer figures for the traced run

def _import_numpy_ms(stderr: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "numpy":
            return float(parts[1]) / 1000.0
    return 0.0


def layer_metrics(state: dict, tr) -> dict:
    env, cwd = state["env"], str(ROOT)
    bare, imported, numpy_ms = [], [], []
    for _ in range(PROBE_STARTS):
        with tr.span("cli.interpreter"):
            bare.append(run_process([sys.executable, "-c", "pass"], env, cwd).wall)
        with tr.span("cli.import"):
            imported.append(run_process([sys.executable, "-c", "import bargainlab.cli"],
                                        env, cwd).wall)
        with tr.span("cli.importtime"):
            proc = run_process([sys.executable, "-X", "importtime", "-c", "import bargainlab.cli"],
                               env, cwd)
        numpy_ms.append(_import_numpy_ms(proc.stderr))
    floor = median(bare)

    steps, json_sizes = 0, []
    for _ in range(PROBE_REPEATS):
        for name, text in state["texts"].items():
            with tr.span("scenario.parse_scenario", name):
                scenario = parse_scenario(text)
            with tr.span("scenario.scenario_document", name):
                scenario_document(scenario)
            kind = scenario.kind
            if kind == "society":
                continue
            with tr.span("report.run_scenario", name):
                report = run_scenario(scenario)
            with tr.span("report.report_to_json", name):
                json_sizes.append(len(report_to_json(report)))
            if kind == "negotiation":
                cfg = scenario.body.to_config()
                with tr.span("negotiation.run", name):
                    trace = negotiation_run(cfg)
                steps += len(trace.steps)
                with tr.span("report.write_trace_csv", name):
                    write_trace_csv(trace)
            elif kind == "chain":
                body = scenario.body
                with tr.span("chain.propagate", name):
                    propagate(body.spec, body.gap_epsilon, body.max_steps)
    return {
        "cli.interpreter_ms": 1000 * floor,
        "cli.import_ms": 1000 * (median(imported) - floor),
        "cli.import_numpy_ms": median(numpy_ms),
        "cli.process_cpu_ms": 1000 * median(state["cpu"]),
        "scenario.parse_us": 1e6 * mean(tr.durations("scenario.parse_scenario")),
        "scenario.serialize_us": 1e6 * mean(tr.durations("scenario.scenario_document")),
        "report.run_scenario_us": 1e6 * mean(tr.durations("report.run_scenario")),
        "report.to_json_ms": 1000 * mean(tr.durations("report.report_to_json")),
        "report.json_mb": mean(json_sizes) / 1e6,
        "report.csv_ms": 1000 * mean(tr.durations("report.write_trace_csv")),
        "negotiation.steps_per_s": steps / sum(tr.durations("negotiation.run")),
        "chain.propagate_us": 1e6 * mean(tr.durations("chain.propagate")),
    }
