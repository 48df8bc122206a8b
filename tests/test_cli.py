import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bargainlab import cli
from bargainlab.cli import main
from bargainlab.negotiation import NegotiationScenario
from bargainlab.report import run_scenario
from bargainlab.scenario import (KINDS, MAX_AGENTS, MAX_EXCHANGES, MAX_STEPS, load_preset,
                                 preset_names, preset_text)


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(preset_text("fig3"))
    return path


def test_run_preset_by_name_emits_csv(capsys):
    assert main(["run", "--scenario", "fig3", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "step,offer_buyer,offer_seller,gap"
    assert lines[1] == "0,2.5,4.5,2.0"
    assert lines[-1].startswith("# outcome,agreement,")


def test_run_scenario_file(fig3_file, capsys):
    assert main(["run", "--scenario", str(fig3_file), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,2.5,4.5,2.0"


def test_default_format_is_json_report(capsys):
    assert main(["run", "--scenario", "fig3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"scenario", "outcome", "engine_version", "duration_s"}
    assert report["outcome"]["outcome"]["kind"] == "agreement"


def test_out_writes_file(fig3_file, tmp_path, capsys):
    target = tmp_path / "trace.csv"
    assert main(["run", "--scenario", str(fig3_file), "--format", "csv",
                 "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[1] == "0,2.5,4.5,2.0"


def test_unwritable_out_is_a_runtime_error(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "trace.json"
    assert main(["run", "--scenario", "fig3", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("bargainlab: runtime error: "), lines
    assert not target.parent.exists()


def test_an_engine_error_with_no_field_is_a_runtime_error(monkeypatch, capsys):
    # no input reaches this net: an engine is patched to fail past validation
    def fail(self):
        raise Exception("engine fault")

    monkeypatch.setattr(NegotiationScenario, "run", fail)
    assert main(["run", "--scenario", "fig3"]) == 2  # a negotiation preset
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["bargainlab: runtime error: engine fault"]


def test_missing_file_is_a_scenario_error(capsys):
    assert main(["run", "--scenario", "/no/such/file.json", "--quiet"]) == 1


def test_malformed_json_is_a_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--scenario", str(path), "--quiet"]) == 1


def test_invalid_field_is_a_scenario_error(tmp_path):
    doc = json.loads(preset_text("fig3"))
    doc["body"]["rates"]["r_a"] = 1.5
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--quiet"]) == 1


def test_diagnostics_go_to_stderr_unless_quiet(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    main(["run", "--scenario", str(path)])
    assert "scenario error" in capsys.readouterr().err
    main(["run", "--scenario", str(path), "--quiet"])
    assert capsys.readouterr().err == ""


def test_breakdown_is_success(tmp_path, capsys):
    doc = json.loads(preset_text("fig3"))
    doc["body"]["rates"] = {"r_a": 1e-6, "r_a_prime": 0.0, "r_b": 1e-6, "r_b_prime": 0.0}
    doc["body"]["max_steps"] = 3
    path = tmp_path / "stalled.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# outcome,breakdown,3"


OUT_OF_RANGE = {"version": 1, "kind": "negotiation",
                "body": {"buyer": {"open": -1.7e308, "reserve": 5.0},
                         "seller": {"open": 1.7e308, "reserve": 4.0},
                         "rates": {"r_a": 0.1, "r_a_prime": 0.1, "r_b": 0.1, "r_b_prime": 0.1},
                         "max_steps": 5}}


def _huge_fig3():
    doc = json.loads(preset_text("fig3"))
    for side in ("buyer", "seller"):
        doc["body"][side].update(open=1.7e308, reserve=1.7e308)
    return doc


def _no_non_finite(constant):
    raise AssertionError(f"non-finite number {constant} in the report")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc, code, error", [
    # offers 3.4e308 apart: the gap and the settlement would overflow
    (OUT_OF_RANGE, 1, "buyer.open: the opens and reserves must span a finite range\n"),
    # offers whose sum overflows agree at step 0
    (_huge_fig3(), 0, ""),
], ids=["spread-overflows", "sum-overflows"])
def test_negotiation_numbers_stay_finite(doc, code, error, fmt, tmp_path, capsys):
    """A negotiation document is rejected at a field path or reports only
    finite numbers."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.err == (error and f"bargainlab: scenario error: {error}")
    if code:
        return
    if fmt == "json":
        outcome = json.loads(captured.out, parse_constant=_no_non_finite)["outcome"]
        assert outcome["outcome"] == {"kind": "agreement", "price": 1.7e308, "step": 0}
    else:
        assert "inf" not in captured.out and "nan" not in captured.out
        assert captured.out.splitlines()[-1] == "# outcome,agreement,0,1.7e+308"


def test_no_chain_is_success(tmp_path, capsys):
    doc = {
        "version": 1, "kind": "power_chain",
        "body": {"nodes": {"w": {"strength_vs": {"adv": 0.0}}},
                 "edges": [], "weak": "w", "adversary": "adv", "threshold": 5.0},
    }
    path = tmp_path / "lonely.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--format", "csv"]) == 0
    assert "# outcome,no_chain" in capsys.readouterr().out


def test_dense_power_chain_document_finishes(tmp_path, capsys):
    """A complete strength-ordered graph has 2^39 - 1 strength-raising paths from
    its weakest node; with the threshold out of reach, a search over paths
    would enumerate them all."""
    labels = [f"s{i:02d}" for i in range(40)]
    doc = {
        "version": 1, "kind": "power_chain",
        "body": {"nodes": {lab: {"strength_vs": {"adv": float(i)}}
                           for i, lab in enumerate(labels)},
                 "edges": [{"requester": a, "helper": b, "willingness": 0.5}
                           for i, a in enumerate(labels) for b in labels[i + 1:]],
                 "weak": "s00", "adversary": "adv", "threshold": 100.0},
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# outcome,no_chain"


def test_duplicate_trust_edge_is_a_scenario_error(tmp_path, capsys):
    doc = json.loads(preset_text("purloined-letter"))
    doc["body"]["edges"].append({"requester": "victim", "helper": "prefect",
                                 "willingness": 0.2})
    path = tmp_path / "duplicate.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == (
        "bargainlab: scenario error: edges[2]: duplicate edge 'victim' -> 'prefect'\n")


def test_seed_flag_matches_edited_file(tmp_path, capsys):
    doc = json.loads(preset_text("society-authoritarian"))
    doc["body"]["epochs"] = 20
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(base), "--format", "csv",
                 "--seed", "31337"]) == 0
    via_flag = capsys.readouterr().out

    doc["body"]["seed"] = 31337
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(edited), "--format", "csv"]) == 0
    assert capsys.readouterr().out == via_flag


def test_out_of_range_seed_is_a_scenario_error():
    assert main(["run", "--scenario", "fig3", "--seed", "-1", "--quiet"]) == 1


def test_presets_subcommand_lists_names(capsys):
    assert main(["presets"]) == 0
    names = capsys.readouterr().out.split()
    assert "fig3" in names and len(names) == 14


@given(garbage=st.text(max_size=80))
@settings(max_examples=40, deadline=None)
def test_arbitrary_text_never_crashes_the_cli(garbage, tmp_path_factory):
    """Anything unparseable or invalid must map to exit 1, valid JSON scenarios to 0."""
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(garbage, encoding="utf-8")
    code = main(["run", "--scenario", str(path), "--quiet"])
    assert code in (0, 1)


def test_sub_epsilon_perception_is_a_scenario_error(tmp_path, capsys):
    """A view magnitude a run would divide by is checked at parse time."""
    fig3 = json.loads(preset_text("fig3"))
    fig3["body"]["buyer"]["view"] = {"own_motivation": 1.0, "other_motivation_perceived": 1e-12,
                                     "own_power": 1.0, "other_power_perceived": 1.0}
    kilns = json.loads(preset_text("kilns"))
    kilns["body"]["stages"][0]["buyer_view"]["own_power"] = 1e-12
    for doc, path in ((fig3, "buyer.view.other_motivation_perceived"),
                      (kilns, "stages[0].buyer_view.own_power")):
        target = tmp_path / "tiny.json"
        target.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"bargainlab: scenario error: {path}: ")


@pytest.mark.parametrize("edit, path", [
    ({"initial_wealth": {"kind": "lognormal", "mu": 800.0, "sigma": 1.0}}, "initial_wealth"),
    ({"unit_surplus": 1.7e308}, "unit_surplus"),
    ({"initial_wealth": {"kind": "constant", "value": 1e307}}, "initial_wealth"),
    # draws that underflow to 0 would divide by zero in an exchange
    ({"initial_wealth": {"kind": "lognormal", "mu": -745.0, "sigma": 3.0}}, "initial_wealth"),
])
def test_society_overflow_is_a_scenario_error(edit, path, tmp_path, capsys):
    """Finite inputs whose wealth leaves the float range during a run are
    reported at the field that drove it there, not as NaN in a report."""
    doc = json.loads(preset_text("society-authoritarian"))
    doc["body"].update(edit, epochs=2)
    target = tmp_path / "society.json"
    target.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would fail the run
        assert main(["run", "--scenario", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bargainlab: scenario error: {path}: ")
    assert len(captured.err.splitlines()) == 1


ROOT = Path(__file__).resolve().parents[1]


def _python(*args, **env_vars):
    """Run Python on the repository's ``src``; an ``env_vars`` value of None
    unsets that variable."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("module", ["bargainlab", "bargainlab.cli"])
def test_python_m_runs_the_cli(module):
    proc = _python("-m", module, "run", "--scenario", "fig3", "--format", "csv")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1] == "0,2.5,4.5,2.0"
    assert proc.stdout.splitlines()[-1].startswith("# outcome,agreement,2,")


def test_only_society_runs_load_numpy():
    proc = _python("-c", """if True:
        import contextlib, io, json, sys
        from bargainlab import cli
        from bargainlab.scenario import preset_names, preset_text
        for name in preset_names():
            if json.loads(preset_text(name))["kind"] != "society":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["run", "--scenario", name]) == 0, name
        print("numpy" in sys.modules)
        """)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


#: What ``import bargainlab.cli`` may load into an interpreter started
#: without ``site``: the CLI's own modules and these stdlib packages (as
#: Python 3.11 imports them).  No engine module and no numpy.
CLI_MODULES = {"bargainlab", "bargainlab.cli", "bargainlab.errors", "bargainlab.kinds",
               "bargainlab.report", "bargainlab.scenario"}
CLI_STDLIB = {
    "__future__", "_ast", "_collections", "_collections_abc", "_functools", "_json", "_opcode",
    "_operator", "_sre", "_stat", "_typing", "_weakrefset", "argparse", "ast", "collections",
    "contextlib", "copy", "copyreg", "dataclasses", "dis", "enum", "errno", "fnmatch",
    "functools", "genericpath", "gettext", "importlib", "inspect", "ipaddress", "itertools",
    "json", "keyword", "linecache", "math", "ntpath", "opcode", "operator", "os", "pathlib",
    "posixpath", "re", "reprlib", "stat", "token", "tokenize", "types", "typing", "urllib",
    "warnings", "weakref"}


def test_importing_the_cli_stays_within_its_module_budget():
    assert CLI_STDLIB <= sys.stdlib_module_names
    proc = _python("-S", "-c", """if True:
        import sys
        before = set(sys.modules)
        import bargainlab.cli
        print(*sorted(set(sys.modules) - before))
        """)
    assert (proc.returncode, proc.stderr) == (0, "")
    loaded = set(proc.stdout.split())
    assert "bargainlab.cli" in loaded
    extra = sorted(name for name in loaded - CLI_MODULES
                   if name.startswith("bargainlab") or name.split(".")[0] not in CLI_STDLIB)
    assert not extra, f"import bargainlab.cli loads modules outside its budget: {extra}"


def _refuse(*args):
    raise AssertionError("rendered an output that was not asked for")


@pytest.mark.parametrize("name", preset_names())
def test_each_format_renders_only_its_own_output(name, monkeypatch, capsys):
    """A JSON run never renders the CSV; a CSV run never builds the payload."""
    csv_text = run_scenario(load_preset(name)).csv_text
    kind = json.loads(preset_text(name))["kind"]
    entry = KINDS[kind]
    monkeypatch.setitem(KINDS, kind, dataclasses.replace(entry, csv=_refuse))
    assert main(["run", "--scenario", name, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["kind"] == kind
    monkeypatch.setitem(KINDS, kind, dataclasses.replace(entry, payload=_refuse))
    monkeypatch.setattr(cli, "report_to_json", _refuse)
    assert main(["run", "--scenario", name, "--format", "csv"]) == 0
    assert capsys.readouterr().out == csv_text


@pytest.mark.parametrize("given,after", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(given, after):
    """Importing the library leaves the variable alone; ``main`` sets it
    only when it is unset."""
    proc = _python("-c", """if True:
        import contextlib, io, os
        from bargainlab import cli
        imported = os.environ.get("OPENBLAS_NUM_THREADS")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["presets"]) == 0
        print(imported, os.environ["OPENBLAS_NUM_THREADS"])
        """, OPENBLAS_NUM_THREADS=given)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{given} {after}\n")


SOCIETY_PRESETS = ["society-authoritarian", "society-institutional"]


def _society_reports(**env_vars):
    """Both society presets' JSON reports from one CLI process, without the
    wall-clock ``duration_s`` line."""
    proc = _python("-c", f"""if True:
        import contextlib, io, sys
        from bargainlab import cli
        for name in {SOCIETY_PRESETS!r}:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["run", "--scenario", name]) == 0, name
            sys.stdout.write(out.getvalue())
        """, **env_vars)
    assert (proc.returncode, proc.stderr) == (0, "")
    return [line for line in proc.stdout.splitlines() if '"duration_s":' not in line]


def test_society_reports_do_not_depend_on_the_blas_kernel_or_threads():
    """OpenBLAS picks its kernels by CPU and splits work across threads,
    and either can change how a sum rounds.  No society number may go
    through it."""
    reports = {(core, threads): _society_reports(OPENBLAS_CORETYPE=core,
                                                 OPENBLAS_NUM_THREADS=threads)
               for core in (None, "Haswell", "Sandybridge") for threads in ("1", "2")}
    first = reports[None, "1"]
    assert sum('"gini_series":' in line for line in first) == len(SOCIETY_PRESETS)
    assert {key: report == first for key, report in reports.items()} == dict.fromkeys(reports, True)


# ---------------------------------------------------------------------------
# malformed documents: one field of a preset changed

PRESETS = {name: json.loads(preset_text(name)) for name in preset_names()}
BUDGET = {"max_steps": MAX_STEPS, "n_agents": MAX_AGENTS, "epochs": MAX_EXCHANGES,
          "pairings_per_epoch": MAX_EXCHANGES}
EXCHANGES_RULE = "(n_agents // 2) * epochs * pairings_per_epoch must be <="


def _field_path(keys):
    path = ""
    for key in keys:
        path += f"[{key}]" if isinstance(key, int) else (f".{key}" if path else key)
    return path


def _leaves(value, keys=()):
    """(keys, value) for every object and scalar in a document body."""
    yield keys, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _leaves(child, keys + (key,))


@st.composite
def mutations(draw):
    """(mutation, document text, path the error must name, start of its rule)."""
    doc = json.loads(json.dumps(PRESETS[draw(st.sampled_from(sorted(PRESETS)))]))
    leaves = [(k, v) for k, v in _leaves(doc["body"]) if k]
    scalars = [(k, v) for k, v in leaves if not isinstance(v, (dict, list))]
    numbers = [(k, v) for k, v in scalars if not isinstance(v, (bool, str))]
    budgeted = [k for k, _ in numbers if k[-1] in BUDGET]
    mutation = draw(st.sampled_from(["non_finite", "wrong_type", "unknown_field", "negative"]
                                    + ["over_budget"] * bool(budgeted)))
    if mutation == "unknown_field":
        # node labels and adversaries are data, so those maps take any key
        objects = [k for k, v in leaves if isinstance(v, dict)
                   and k[-1] not in ("nodes", "strength_vs")]
        keys = draw(st.sampled_from([()] + objects)) + ("zz_unknown",)
        literal, path, rule = "1", _field_path(keys), "unknown field"
    elif mutation == "wrong_type":
        keys, old = draw(st.sampled_from(scalars))
        value = draw(st.sampled_from([v for v in ("x", [1.0], True) if type(v) is not type(old)]))
        literal, path, rule = json.dumps(value), _field_path(keys), "expected a"
    elif mutation == "over_budget":
        keys = draw(st.sampled_from(budgeted))
        literal = str(BUDGET[keys[-1]] + draw(st.integers(min_value=1, max_value=10 ** 30)))
        path, rule = _field_path(keys), "must be <="
        if keys[-1] in ("epochs", "pairings_per_epoch"):  # the product is reported at epochs
            path, rule = "epochs", EXCHANGES_RULE
    else:
        keys, _ = draw(st.sampled_from(numbers))
        literal = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]
                                       if mutation == "non_finite" else ["-1", "-1.0", "-1e6"]))
        path, rule = _field_path(keys), ""
    target = doc["body"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = "__literal__"
    return mutation, json.dumps(doc).replace('"__literal__"', literal), path, rule


@given(case=mutations())
@settings(max_examples=100, deadline=None)
def test_malformed_documents_name_the_field(case, tmp_path_factory):
    mutation, text, path, rule = case
    target = tmp_path_factory.mktemp("mutated") / "doc.json"
    target.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--scenario", str(target), "--format", "csv"])
    if mutation == "negative":
        assert code in (0, 1), err.getvalue()
        return
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1, (code, lines)
    assert lines[0].startswith(f"bargainlab: scenario error: {path}: {rule}"), lines


def _edited(name, edit):
    doc = json.loads(preset_text(name))
    edit(doc["body"])
    return doc


RATIO_BELOW_FLOAT_RANGE = {"own_motivation": 1.0, "other_motivation_perceived": 1e-310,
                           "own_power": 1.0, "other_power_perceived": 1.0}


@pytest.mark.parametrize("doc, path", [
    # gains 2e200 and costs 1e200: the equity index would be inf / inf
    (_edited("casting-selection", lambda b: b["proposal"].update(
        gain_for_a=2e200, gain_for_b=2e200, give_cost_a=1e200, give_cost_b=1e200)),
     "proposal.gain_for_b"),  # of the inputs of largest magnitude, the first
    (_edited("casting-selection", lambda b: (
        b["proposal"].update(gain_for_b=1.7e308),
        b["influence_b"].update(threat_on_refusal=1.7e308))), "proposal.gain_for_b"),
    (_edited("casting-selection", lambda b: b["proposal"].update(
        gain_for_a=-1.7e308, give_cost_a=1.7e308)), "proposal.give_cost_a"),
    (_edited("fig3", lambda b: b["buyer"].update(view={
        "own_motivation": 1e200, "other_motivation_perceived": 1e-5,
        "own_power": 1.0, "other_power_perceived": 1e200})), "buyer.view"),
    # a seller divides its rates by its ratio: 1 / 1e-310 overflows
    (_edited("fig3", lambda b: (b["seller"].update(view=RATIO_BELOW_FLOAT_RANGE),
                                b.update(scale_rates_by_imbalance=True))), "seller.view"),
    (_edited("kilns", lambda b: b["stages"][0].update(seller_view=RATIO_BELOW_FLOAT_RANGE)),
     "stages[0].seller_view"),
    (_edited("kilns", lambda b: b["stages"][0]["seller_view"].update(own_power=1.7e308)),
     "stages[0].base_seller_reserve"),
], ids=["nonmarket-equity", "nonmarket-threat", "nonmarket-motivation", "buyer-ratio",
        "seller-reciprocal", "chain-ratio", "chain-seller-reserve"])
def test_out_of_range_inputs_are_rejected_at_a_document_path(doc, path, tmp_path, capsys):
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"bargainlab: scenario error: {path}: ")


@pytest.mark.parametrize("divisor, code", [(1e-9, 0), (math.nextafter(1e-9, 0), 1)])
def test_a_view_divisor_at_the_epsilon_floor_is_used(divisor, code, tmp_path, capsys):
    """A perceived magnitude exactly at the 1e-9 floor is a divisor a run
    uses; the float just below it is rejected at its path."""
    doc = _edited("fig3", lambda b: b["buyer"].update(reserve=5e-9, view={
        "own_motivation": 1.0, "other_motivation_perceived": divisor,
        "own_power": 1.0, "other_power_perceived": 1.0}))
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(target), "--format", "csv"]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err == ("bargainlab: scenario error: buyer.view.other_motivation_perceived: "
                       f"must be >= the epsilon floor 1e-09, got {divisor!r}\n")


FLOOR_RULE = "must be >= the epsilon floor 1e-09, got "
RATIO_RULE = "imbalance ratio and its reciprocal must be finite and > 0"
# (magnitudes changed from 1.0, field the error names, rule) per role: each
# divisor below the floor, a ratio past the float maximum, and a ratio so
# small that its reciprocal is
BAD_VIEWS = {
    "buyer": [({"other_motivation_perceived": 1e-12}, ".other_motivation_perceived",
               FLOOR_RULE + "1e-12"),
              ({"own_power": 5e-10}, ".own_power", FLOOR_RULE + "5e-10"),
              ({"own_motivation": 1e200, "other_power_perceived": 1e200}, "", RATIO_RULE),
              ({"own_motivation": 1e-160, "other_power_perceived": 1e-160}, "", RATIO_RULE)],
    "seller": [({"own_motivation": 1e-12}, ".own_motivation", FLOOR_RULE + "1e-12"),
               ({"other_power_perceived": 5e-10}, ".other_power_perceived",
                FLOOR_RULE + "5e-10"),
               ({"other_motivation_perceived": 1e200, "own_power": 1e200}, "", RATIO_RULE),
               ({"other_motivation_perceived": 1e-160, "own_power": 1e-160}, "", RATIO_RULE)],
}
VIEW_SLOTS = [("fig3", ("buyer", "view"), "buyer"), ("fig3", ("seller", "view"), "seller"),
              ("tomato-south", ("stages", 1, "buyer_view"), "buyer"),
              ("tomato-south", ("stages", 1, "seller_view"), "seller")]


@pytest.mark.parametrize("name, keys, edit, suffix, rule", [
    (name, keys, edit, suffix, rule)
    for name, keys, role in VIEW_SLOTS for edit, suffix, rule in BAD_VIEWS[role]])
def test_a_bad_view_is_rejected_at_its_path(name, keys, edit, suffix, rule, tmp_path, capsys):
    """A view whose divisor is below the floor, or whose imbalance ratio
    leaves the float range, is one error line at the view's path."""
    doc = json.loads(preset_text(name))
    slot = doc["body"]
    for key in keys[:-1]:
        slot = slot[key]
    slot[keys[-1]] = {"own_motivation": 1.0, "other_motivation_perceived": 1.0,
                      "own_power": 1.0, "other_power_perceived": 1.0, **edit}
    target = tmp_path / "doc.json"
    target.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(target), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bargainlab: scenario error: {_field_path(keys)}{suffix}: {rule}\n"


# ---------------------------------------------------------------------------
# huge and tiny values: one numeric field of a preset set to an extreme

EXTREMES = ["1.7e308", "-1.7e308", "1e200", "5e-324"]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_extreme_values_run_finite_or_name_a_document_path(name, tmp_path):
    """Every number of a preset set to each extreme either runs to a report
    of finite numbers or is rejected with one line naming a document path."""
    paths = {_field_path(keys) for keys, _ in _leaves(PRESETS[name]["body"])}
    numbers = [k for k, v in _leaves(PRESETS[name]["body"])
               if k and isinstance(v, (int, float)) and not isinstance(v, bool)]
    target = tmp_path / "doc.json"
    failures = []
    for keys in numbers:
        for literal in EXTREMES:
            doc = json.loads(json.dumps(PRESETS[name]))
            parent = doc["body"]
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = "__literal__"
            target.write_text(json.dumps(doc).replace('"__literal__"', literal))
            for fmt in ("json", "csv"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["run", "--scenario", str(target), "--format", fmt])
                problem = _extreme_problem(code, out.getvalue(), err.getvalue(), fmt, paths)
                if problem:
                    failures.append(f"{_field_path(keys)}={literal} ({fmt}): {problem}")
    assert not failures, "\n".join(failures)


def _extreme_problem(code, out, err, fmt, paths):
    """What is wrong with one run's exit code and output, or None."""
    if code == 0:
        if fmt == "json":
            try:
                json.loads(out, parse_constant=_no_non_finite)
            except AssertionError as exc:
                return str(exc)
        elif any(cell.strip("-") in ("inf", "inf.0", "nan", "nan.0")
                 for line in out.splitlines() for cell in line.split(",")):
            return "non-finite CSV cell"
        return None
    lines = err.splitlines()
    prefix = "bargainlab: scenario error: "
    if code != 1 or len(lines) != 1 or not lines[0].startswith(prefix):
        return f"exit {code}: {lines}"
    path = lines[0][len(prefix):].split(": ", 1)[0]
    return None if path in paths else f"path not in the document: {lines[0]}"
