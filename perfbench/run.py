#!/usr/bin/env python3
"""The bargainlab benchmark.

    python3 perfbench/run.py --workload cli|society|search|trace \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed``.  Whole rounds of the workload's
operations repeat until ``--seconds`` have passed; the first round's
outputs are checked in full and later rounds must reproduce them.

With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Results and spans are also written to
``perfbench/out/``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
import time

from harness import OUT, ROOT, Best, Tracer, median

# BENCHMARK.json names the workloads and every metric with its unit; a
# per-layer metric of a layer the workload does not call reads 0
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_SAMPLES = 11

# the names the end-to-end figures go by on the workload they were made for
ALIASES = {
    ("cli", "unit_ms"): "cli_run_ms", ("cli", "peak_mb"): "cli_rss_mb",
    ("society", "job_s"): "regime_sweep_s", ("society", "work_per_s"): "society_exchanges_per_s",
    ("society", "peak_mb"): "society_peak_mb",
    ("search", "job_s"): "search_dense_s", ("search", "unit_ms"): "search_sparse_ms",
    ("search", "peak_mb"): "search_peak_mb",
    ("trace", "work_per_s"): "trace_steps_per_s", ("trace", "peak_mb"): "trace_peak_mb",
    ("trace", "job_s"): "squeeze_sweep_s",
}


def _args(argv=None):
    parser = argparse.ArgumentParser(description="bargainlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child mode: time set-up once, print it
    return parser.parse_args(argv)


def _setup_seconds(args) -> float:
    """Set-up (import of bargainlab plus input generation) timed once in a
    fresh interpreter, so it starts cold."""
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--setup-probe", "--workload", args.workload,
                          "--seed", str(args.seed)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _end_to_end(workload, best: Best, setup, child_peaks, peak_mb) -> dict:
    """Best of the run: each piece of an operation at its fastest, summed,
    or for a workload whose unit is one typical operation, the median
    piece.  On a VM that shares its host, everything can run up to 2x
    slower for seconds to minutes at a time; a median moves with that,
    the best of a run much less."""
    unit = median if getattr(workload, "UNIT_IS_MEDIAN", False) else sum
    return {
        "setup_s": median(setup),
        "unit_ms": 1000 * unit(best.units.values()),
        "job_s": sum(best.jobs.values()),
        "work_per_s": sum(best.work.values()) / sum(best.work_seconds.values()),
        "peak_mb": median(child_peaks) if child_peaks else peak_mb,
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "bargainlab" / "__init__.py").is_file():
        print(f"perfbench: no bargainlab sources under {ROOT / 'src'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        start = time.perf_counter()
        importlib.import_module(f"wl_{args.workload}").setup(args.seed)
        print(time.perf_counter() - start)
        return 0

    workload = importlib.import_module(f"wl_{args.workload}")
    state = workload.setup(args.seed)
    tracer, best = Tracer(), Best()
    rounds, traced, timed, setup = [], [], [], []
    elapsed = 0.0
    while True:
        # a traced run alternates traced and untraced rounds after an
        # untraced first round, which also carries the full checks
        tracer.enabled = bool(args.trace) and len(rounds) % 2 == 1
        tracer.round = len(rounds) if tracer.enabled else None
        start = time.perf_counter()
        rounds.append(workload.run_round(state, tracer, full_check=not rounds))
        elapsed += time.perf_counter() - start
        traced.append(tracer.enabled)
        timed.append(rounds[-1].timed)
        best.add(rounds[-1])
        # set-up samples are spread between rounds over the whole run, so
        # their median speaks for the run and not for its first seconds;
        # their time does not count towards --seconds
        while not args.trace and len(setup) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            setup.append(_setup_seconds(args))
        if elapsed >= args.seconds and (not args.trace or len(rounds) >= 5):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        plain = [s for s, t in zip(timed[1:], traced[1:]) if not t]
        with_spans = [s for s, t in zip(timed, traced) if t]
        tracer.enabled, tracer.round = True, None
        values = workload.layer_metrics(state, tracer)
        n_traced = sum(traced)
        for layer, seconds in tracer.self_seconds_by_layer().items():
            values[f"{layer}.self_ms"] = 1000 * seconds / n_traced
        values["bench.trace_overhead_pct"] = 100 * (min(with_spans) / min(plain) - 1)
    else:
        values = _end_to_end(workload, best, setup, [p for r in rounds for p in r.peak_mb], peak_mb)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    best_times = {"setup": setup, "units": best.units, "jobs": best.jobs, "work": best.work_seconds}
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "rounds": len(rounds), "problems": problems, "best": best_times}) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed")
    for name, metric in metrics.items():
        alias = ALIASES.get((args.workload, name), "")
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']:4s} {alias}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
