"""Shared pieces of the benchmark: the span tracer, the round record and
process timing.

Spans are recorded by the benchmark's own code around each call into a
bargainlab layer, never inside the program.  A span's layer is the part
of its name before the first dot (``report.run_scenario`` belongs to
``report``), so self times can be summed per module.
"""

from __future__ import annotations

import contextlib
import os
import selectors
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


class Tracer:
    """Keeps spans in memory: name, start, end, parent index, operation id.

    A disabled tracer hands out one shared no-op context, so the timed
    rounds of an untraced run pay nothing for the span calls.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_op = 0
        self.round: int | None = None

    def span(self, name: str, tag: str = ""):
        return self._span(name, tag) if self.enabled else self._NULL

    @contextlib.contextmanager
    def _span(self, name: str, tag: str):
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        record = {"name": name, "tag": tag, "start": time.perf_counter(), "end": None,
                  "parent": parent, "op": op, "round": self.round}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (tag is None or s["tag"] == tag)]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Self time per layer over the spans recorded inside timed rounds."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            if s["round"] is None:
                continue
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s["end"] - s["start"]) - covered
        return totals


@dataclass
class Round:
    """What one round of a workload did and how long its timed parts took.

    Timings are (piece, seconds) pairs: ``units`` for the unit operation,
    ``jobs`` for the workload's second job, ``work`` (piece, amount,
    seconds) for operations that do countable work.  Pieces with the same
    name are repeats of one operation.  ``problems`` lists every check that
    failed.
    """

    units: list[tuple[str, float]] = field(default_factory=list)
    jobs: list[tuple[str, float]] = field(default_factory=list)
    work: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    peak_mb: list[float] = field(default_factory=list)

    @property
    def timed(self) -> float:
        return sum(s for _, s in self.units) + sum(s for _, s in self.jobs)


def median(values):
    return statistics.median(values) if values else 0.0


class Best:
    """Fastest time of every piece seen so far, and each piece's work.

    ``add`` folds a round in and empties its sample lists, so samples do
    not pile up between rounds in the memory the program's peak is
    measured in.
    """

    def __init__(self) -> None:
        self.units: dict[str, float] = {}
        self.jobs: dict[str, float] = {}
        self.work_seconds: dict[str, float] = {}
        self.work: dict[str, float] = {}

    @staticmethod
    def _fold(best: dict[str, float], samples) -> None:
        for piece, seconds in samples:
            best[piece] = min(seconds, best.get(piece, seconds))

    def add(self, r: Round) -> None:
        self._fold(self.units, r.units)
        self._fold(self.jobs, r.jobs)
        self._fold(self.work_seconds, ((piece, s) for piece, _, s in r.work))
        self.work.update((piece, amount) for piece, amount, _ in r.work)
        r.units, r.jobs, r.work = [], [], []


def mean(values):
    return sum(values) / len(values) if values else 0.0


@dataclass
class Process:
    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    peak_mb: float


def run_process(argv: list[str], env: dict, cwd: str) -> Process:
    """Run one child to completion; time it and read its peak RSS.

    Both pipes are drained with a selector before the child is reaped
    with ``wait4``, which is what yields the child's own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for pipe in chunks:
            selector.register(pipe, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(returncode=proc.returncode,
                   stdout=b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
                   stderr=b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
                   wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                   peak_mb=usage.ru_maxrss / 1024.0)
