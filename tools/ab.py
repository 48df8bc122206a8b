"""A/B and A/A benchmark records from one loop (stdlib only).

    python3 tools/ab.py --base REV --workload W --pairs K --seconds S \\
        --seed N --out BENCH_<topic>.json [--other W2,W3]
    python3 tools/ab.py --check FILE [FILE ...]

Run from a checkout.  The parent side is ``REV`` extracted with ``git
archive``; the change side is a copy of the working tree's files (tracked
and untracked, but not ignored).  Both go into new directories under the
system's temporary directory, are byte-compiled there, and are removed
afterwards; the record's ``change`` names HEAD and the paths ``git
status`` lists as uncommitted.  Each side runs its own ``perfbench/run.py --trace 0``, so the
tool refuses a ``REV`` whose ``perfbench/`` or ``BENCHMARK.json`` differ
from this checkout's: the two sides would not share a harness.

Pair i runs seed N + i on both sides, the parent first on even pairs and
the change first on odd ones.  ``--other`` adds one pair, parent first,
of each named workload at seed N.  ``--base HEAD`` on a clean tree makes
an A/A record: the spread of its paired ratios is the noise floor a gain
must clear.

The record holds, per end-to-end metric of ``BENCHMARK.json``, each
side's min, quartiles (``statistics.quantiles``, inclusive) and max, the
per-pair values and ratios, and ``change_wins``: the pairs where the
change is better, ties counting for neither.  ``--check`` validates
records made by this tool; exit status 1 names the first fault of each.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIDES = ("parent", "change")
SUMMARY = ("min", "q1", "median", "q3", "max")
PAIR_KEYS = ("workload", "command", "seeds", "runs_correct", "failed_operations",
             "attempted_operations", "metrics")
TOP_KEYS = ("parent_sha", "change", "environment", *PAIR_KEYS)


def git(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=check)


def refuse_unless_same_harness(rev: str) -> None:
    """Exit unless ``rev``, HEAD and the working tree share ``perfbench/``
    and ``BENCHMARK.json``."""
    paths = ("perfbench", "BENCHMARK.json")
    same = (git("diff", "--quiet", rev, "HEAD", "--", *paths, check=False).returncode == 0
            and git("diff", "--quiet", rev, "--", *paths, check=False).returncode == 0
            and not git("ls-files", "--others", "--exclude-standard", *paths).stdout)
    if not same:
        sys.exit(f"ab: {rev} and this checkout differ in perfbench/ or BENCHMARK.json; "
                 "the two sides would not share a harness")


def extract(rev: str, where: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive.stdout, check=True)


def copy_working_tree(where: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (where / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, where / name)


def blas() -> dict:
    """numpy's bundled OpenBLAS: its core and thread count, where found."""
    import numpy
    found = {"openblas_core": None, "openblas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        corename = getattr(lib, "scipy_openblas_get_corename64_", None)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            found["openblas_core"] = corename().decode()
        if threads is not None:
            threads.restype = ctypes.c_int
            found["openblas_threads"] = threads()
    return found


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), **blas(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "bytecode_cache": "none" if os.environ.get("PYTHONDONTWRITEBYTECODE")
            else "both sides byte-compiled before the first run"}


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    print(f"ab: {side.name}: {' '.join(command[1:])}", file=sys.stderr, flush=True)
    done = subprocess.run(command, cwd=side, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"ab: {side.name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(SUMMARY, values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "max": max(values)}


def record(workload: str, seeds: list[int], seconds: float, results: list[dict],
           firsts: list[str]) -> dict:
    """The record of one workload's pairs; ``results[i]`` maps each side to
    pair i's run result."""
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {s: [r[s]["metrics"][name]["value"] for r in results] for s in SIDES}
        per_pair = [{"seed": seed, "first": first, "parent": p, "change": c,
                     "ratio": c / p if p else None}
                    for seed, first, p, c in zip(seeds, firsts, *values.values())]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(*values.values()))
        stats = {s: summary(values[s]) for s in SIDES}
        ratios = [p["ratio"] for p in per_pair if p["ratio"] is not None]
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], **stats,
            "change_wins": f"{wins}/{len(per_pair)}",
            "median_shift": stats["change"]["median"] - stats["parent"]["median"],
            "parent_quartile_distance": stats["parent"]["q3"] - stats["parent"]["q1"],
            "change_quartile_distance": stats["change"]["q3"] - stats["change"]["q1"],
            "paired_ratio_median": statistics.median(ratios) if ratios else None,
            "per_pair": per_pair,
        }
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                   f"--seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "runs_correct": {s: all(r[s]["correct"] for r in results) for s in SIDES},
        "failed_operations": {s: sum(r[s]["failed"] for r in results) for s in SIDES},
        "attempted_operations": {s: sum(r[s]["attempted"] for r in results) for s in SIDES},
        "metrics": metrics,
    }


def pairs(dirs: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    results, firsts = [], []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results.append({s: run(dirs[s], workload, seed, seconds) for s in order})
        firsts.append(order[0])
    return record(workload, seeds, seconds, results, firsts)


def measure(args) -> None:
    if args.pairs < 1 or args.seconds <= 0:
        sys.exit("ab: --pairs must be >= 1 and --seconds > 0")
    resolved = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}", check=False)
    if resolved.returncode != 0:
        sys.exit(f"ab: {args.base} names no commit")
    parent_sha = resolved.stdout.strip()
    refuse_unless_same_harness(parent_sha)
    change = {"head": git("rev-parse", "HEAD").stdout.strip(),
              "uncommitted": git("status", "--porcelain").stdout.splitlines()}
    scratch = Path(tempfile.mkdtemp(prefix="bargainlab-ab-"))
    try:
        dirs = {s: scratch / s for s in SIDES}
        for path in dirs.values():
            path.mkdir()
        extract(parent_sha, dirs["parent"])
        copy_working_tree(dirs["change"])
        if not os.environ.get("PYTHONDONTWRITEBYTECODE"):
            for path in dirs.values():
                compileall.compile_dir(path, quiet=1)
        seeds = [args.seed + i for i in range(args.pairs)]
        out = {"parent_sha": parent_sha,
               "change": change,
               "environment": environment(),
               **pairs(dirs, args.workload, seeds, args.seconds)}
        if args.other:
            out["other_workloads"] = {w: pairs(dirs, w, [args.seed], args.seconds)
                                      for w in args.other}
    finally:
        shutil.rmtree(scratch)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    problems = check_record(out, top=True)
    if problems:
        sys.exit("ab: the record fails its own check: " + "; ".join(problems))


def check_record(rec: dict, top: bool) -> list[str]:
    """The faults of one record; ``top`` records carry the environment and
    may hold ``other_workloads``."""
    keys = TOP_KEYS if top else PAIR_KEYS
    problems = [f"missing {k!r}" for k in keys if k not in rec]
    if problems:
        return problems
    seeds = rec["seeds"]
    if not seeds or not all(isinstance(s, int) for s in seeds):
        problems.append("seeds must be a non-empty list of integers")
    for key, kind in (("runs_correct", bool), ("failed_operations", int),
                      ("attempted_operations", int)):
        if set(rec[key]) != set(SIDES) or not all(type(v) is kind for v in rec[key].values()):
            problems.append(f"{key} must give a {kind.__name__} per side")
    names = [spec["name"] for spec in SPEC["end_to_end"]]
    if sorted(rec["metrics"]) != sorted(names):
        problems.append(f"metrics must be exactly {names}")
    for name, metric in rec["metrics"].items():
        per_pair = metric.get("per_pair", [])
        if [p.get("seed") for p in per_pair] != seeds:
            problems.append(f"{name}: per_pair must hold one entry per seed, in order")
            continue
        for side in SIDES:
            stats = metric.get(side, {})
            values = [stats.get(k) for k in SUMMARY]
            if None in values or values != sorted(values):
                problems.append(f"{name}: {side} needs min <= q1 <= median <= q3 <= max")
            elif summary([p[side] for p in per_pair]) != stats:
                problems.append(f"{name}: {side}'s summary does not match its per_pair values")
        lower = metric.get("better") == "lower"
        wins = sum((p["change"] < p["parent"]) if lower else (p["change"] > p["parent"])
                   for p in per_pair)
        if metric.get("change_wins") != f"{wins}/{len(per_pair)}":
            problems.append(f"{name}: change_wins must be {wins}/{len(per_pair)}")
    if top:
        for workload, other in rec.get("other_workloads", {}).items():
            problems += [f"other_workloads.{workload}: {p}"
                         for p in check_record(other, top=False)]
    return problems


def check(files: list[str]) -> int:
    status = 0
    for name in files:
        try:
            rec = json.loads(Path(name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems = [str(exc)]
        else:
            problems = check_record(rec, top=True) if isinstance(rec, dict) else ["not an object"]
        print(f"{name}: {'ok' if not problems else problems[0]}")
        if problems:
            status = 1
    return status


def workloads(names: str) -> list[str]:
    listed = [w for w in names.split(",") if w]
    if not set(listed) <= set(WORKLOADS):
        raise argparse.ArgumentTypeError(f"workloads are {', '.join(WORKLOADS)}")
    return listed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="+", metavar="FILE", help="validate records")
    parser.add_argument("--base", help="the parent revision")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other", type=workloads, default=[],
                        help="comma-separated workloads to run one pair each of")
    parser.add_argument("--out", help="the record to write")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if not (args.base and args.workload and args.out):
        parser.error("--base, --workload and --out are required unless --check is given")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
