"""Spans and profile grouping for the whole-job benchmark.

Spans are recorded by the benchmark around its own calls into the program
(never inside the program): each has a name, a host-clock start and end, the
span that encloses it and the job it belongs to. They stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Packages of the program whose self time a traced run reports on its own;
#: every other function (stdlib, builtins, numpy, the benchmark) is "external".
PACKAGES = ("netsim", "core", "dataplane", "transport")

_PACKAGE_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


class SpanRecorder:
    """In-memory span log; one recorder per benchmark process."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job_id = -1

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (nested spans get a parent)."""
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "job": self.job_id,
        }
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        """Write every span (times relative to the recorder's origin) as JSON."""
        origin = self.origin
        spans = [
            {
                "id": index,
                "name": span["name"],
                "start_s": span["start"] - origin,
                "end_s": span["end"] - origin,
                "parent": span["parent"],
                "job": span["job"],
            }
            for index, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}, indent=1) + "\n")


def self_time_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Share of profiled self time spent in each program package.

    Self time is cProfile's ``tottime``: time in a function minus the time in
    the functions it called. Builtins count where they are defined, so a
    ``dict.get`` called from ``repro.netsim`` is "external".
    """
    totals: dict[str, float] = defaultdict(float)
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        match = _PACKAGE_RE.search(filename)
        package = match.group(1) if match else "external"
        totals[package if package in PACKAGES else "external"] += row[2]
    whole = sum(totals.values()) or 1.0
    return {name: totals[name] / whole for name in (*PACKAGES, "external")}
