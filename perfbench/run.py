"""Whole-job benchmark of the DAIET reproduction.

Runs one named workload as a closed loop of whole jobs -- one job at a time,
from this single-threaded process -- for ``--seconds`` seconds after one
untimed warm-up job, checks every job against ground truth the benchmark
computes itself, and prints one metric per line followed by a JSON result
line::

    python3 perfbench/run.py --workload rack_wordcount --seed 2017 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

``--trace 0`` reports the end-to-end metrics; host times are scaled by the
machine-speed probe of ``probe.py``, sampled between jobs. ``--trace 1``
reports the per-layer metrics: span medians (raw host seconds) and program
counters from plain jobs, the raw job and set-up medians next to the probe's
slowdown, then cProfile self time per ``repro`` package from profiled jobs,
the profiler's overhead, and how much of each job the top-level spans cover.
It also writes every span to ``perfbench/out/trace-<workload>-<seed>.json``.

Simulated outputs (events, packets, bytes, simulated time, retransmissions,
result digest) are deterministic. They must repeat in every job of a run and
match ``perfbench/fingerprints.json`` where that file has the seed; a
mismatch is a change in simulated behaviour, reported as a failure and never
as a speed result. When a behaviour change is intended, copy the printed
``# fingerprint`` line into that file. The command exits non-zero when any
job or check failed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Single-threaded: keep numpy's math libraries from starting worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__" and not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no program source under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402

import probe  # noqa: E402
from tracing import SpanRecorder, self_time_shares  # noqa: E402
from workloads import (  # noqa: E402
    LAYER_COUNTS,
    PHASES,
    SETUP_PHASES,
    WORKLOADS,
    result_digest,
)

FINGERPRINTS = HERE / "fingerprints.json"
PHASE_METRICS = tuple(dict.fromkeys(PHASES.values()))

#: Fingerprint fields reported as end-to-end metrics, with their units. The
#: others are printed only: their spread over seeds is too wide to bound (the
#: crash workload's failover outcome, and with it ``reducer_packets``, is
#: bimodal across seeds); the fingerprint check still pins each one.
SIMULATED_METRICS = {"link_bytes": "B"}


@dataclass
class Job:
    """Measurements and verdict of one job.

    Host times are raw; ``slowdown`` is how much slower than its reference
    the speed probe ran right before and right after the job (1.0 for the
    warm-up job, which is not probed).
    """

    wall_s: float
    phases: dict
    fingerprint: dict | None
    counts: dict | None
    failure: str | None
    slowdown: float = 1.0

    @property
    def setup_s(self) -> float:
        return sum(self.phases[name] for name in SETUP_PHASES)

    @property
    def coverage(self) -> float:
        """Share of the job's wall time its top-level spans account for."""
        return sum(self.phases.values()) / self.wall_s


def run_job(workload, spans: SpanRecorder, profile: cProfile.Profile | None = None) -> Job:
    """Run, time and check one job; its counters are read after its span."""
    spans.job_id += 1
    job_index = len(spans.spans)
    outcome = None
    failure = None
    if profile is not None:
        profile.enable()
    try:
        with spans.span("job") as job_span:
            outcome = workload.job(spans)
    except Exception:  # a failing job is counted, the run goes on
        traceback.print_exc()
        failure = "raised"
    finally:
        if profile is not None:
            profile.disable()

    phases = dict.fromkeys(PHASE_METRICS, 0.0)
    for span in spans.spans[job_index + 1 :]:
        if span["parent"] == job_index:
            phases[PHASES[span["name"]]] += span["end"] - span["start"]
    fingerprint = counts = None
    if outcome is not None:
        try:
            simulated, counts = outcome.read()
        except Exception:
            traceback.print_exc()
            failure = "raised"
        else:
            fingerprint = {**simulated, "result_digest": result_digest(outcome.result)}
            if not outcome.complete:
                failure = "incomplete: the reducer did not see every END"
            elif outcome.result != workload.corpus.truth:
                failure = "wrong result"
            else:
                failure = workload.check(counts)
    return Job(job_span["end"] - job_span["start"], phases, fingerprint, counts, failure)


def run_loop(
    workload,
    spans: SpanRecorder,
    seconds: float,
    profile: cProfile.Profile | None = None,
) -> list[Job]:
    """Closed loop: start jobs one after another until ``seconds`` elapsed.

    Between two jobs the last job's garbage is collected and the speed probe
    sampled; each job's slowdown is that of the samples around it.
    """
    jobs: list[Job] = []
    gc.collect()
    samples = [probe.measure()]
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        job = run_job(workload, spans, profile)
        gc.collect()
        samples.append(probe.measure())
        job.slowdown = probe.slowdown(samples[-2] + samples[-1])
        jobs.append(job)
    return jobs


def end_to_end(workload, jobs: list[Job], fingerprint: dict) -> dict:
    """End-to-end metrics of the timed (untraced) jobs.

    Host times are medians over the warm jobs, each scaled by the speed
    probe's slowdown around that job (see ``probe.py``): seconds at the
    probe's reference speed.
    """
    wall = statistics.median(job.wall_s / job.slowdown for job in jobs)
    metrics = {
        "pairs_per_s": (workload.corpus.pairs / wall, "pairs/s"),
        "job_wall_s": (wall, "s"),
        "setup_s": (statistics.median(job.setup_s / job.slowdown for job in jobs), "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, unit in SIMULATED_METRICS.items():
        metrics[name] = (fingerprint.get(name, 0), unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(plain: list[Job], profiled: list[Job], profile: cProfile.Profile) -> dict:
    """Per-layer metrics: spans and counts of plain jobs, shares of profiled ones."""
    metrics = {
        name: (statistics.median(job.phases[name] for job in plain), "s")
        for name in PHASE_METRICS
    }
    counted = [job.counts for job in plain if job.counts is not None]
    for name, unit in LAYER_COUNTS.items() if counted else ():
        metrics[name] = (statistics.median(counts[name] for counts in counted), unit)
    for package, share in self_time_shares(profile).items():
        metrics[f"self_share.{package}"] = (share, "share")
    metrics["raw.job_wall_s"] = (statistics.median(job.wall_s for job in plain), "s")
    metrics["raw.setup_s"] = (statistics.median(job.setup_s for job in plain), "s")
    metrics["probe.slowdown"] = (statistics.median(job.slowdown for job in plain), "ratio")
    traced = statistics.median(job.wall_s / job.slowdown for job in profiled)
    untraced = statistics.median(job.wall_s / job.slowdown for job in plain)
    metrics["trace.overhead_share"] = (traced / untraced - 1, "share")
    metrics["trace.span_coverage"] = (min(job.coverage for job in plain), "share")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def describe_timing(name: str, values: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    line = f"  {name}: median {statistics.median(values):.6g} s over {len(values)} jobs"
    if len(values) >= 20:
        q = 1 - 10 / len(values)
        ordered = sorted(values)
        line += f", p{100 * q:.0f} {ordered[int(q * len(ordered))]:.6g} s"
    return line


def load_fingerprints() -> dict:
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}


def run_workload(args) -> int:
    env = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
    }
    print("# " + " ".join(f"{key}={value}" for key, value in env.items()))
    workload = WORKLOADS[args.workload](args.seed)
    gc.collect()
    # Inputs and truth live for the whole run: keep the collector off them.
    gc.freeze()
    spans = SpanRecorder()
    warmup = run_job(workload, spans)
    if args.trace:
        plain = run_loop(workload, spans, args.seconds / 2)
        profile = cProfile.Profile()
        profiled = run_loop(workload, spans, args.seconds / 2, profile)
    else:
        plain = run_loop(workload, spans, args.seconds)
        profiled = []
    jobs = [warmup, *plain, *profiled]

    failures = [job.failure for job in jobs if job.failure]
    reference = warmup.fingerprint
    if reference is not None and any(job.fingerprint != reference for job in jobs):
        failures.append("simulated outputs differ between jobs of one run")
    recorded = load_fingerprints().get(args.workload, {}).get(str(args.seed))
    if reference is not None and recorded is not None and recorded != reference:
        failures.append(
            "simulated behaviour changed: fingerprint differs from "
            f"fingerprints.json (recorded {recorded}, measured {reference})"
        )
    print(f"# fingerprint {json.dumps(reference, sort_keys=True)}")
    if args.trace:
        metrics = per_layer(plain, profiled, profile)
        coverage = metrics["trace.span_coverage"]["value"]
        if coverage < 0.95:
            failures.append(f"top-level spans cover only {coverage:.1%} of a job")
        out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        spans.write(out, env)
        print(f"# spans written to {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(workload, plain, reference or {})
        print(describe_timing("raw job_wall_s", [job.wall_s for job in plain]))
        print(describe_timing("raw setup_s", [job.setup_s for job in plain]))
        median_slowdown = statistics.median(job.slowdown for job in plain)
        print(f"  probe slowdown: median {median_slowdown:.3f}")
        failed = sum(1 for job in jobs if job.failure)
        print(f"  failed_job_share {failed / len(jobs):g} ({failed} of {len(jobs)} jobs)")
        for name in ("reducer_packets", "sim_job_us", "retransmissions"):
            print(f"  {name} {(reference or {}).get(name)} (simulated)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for reason in dict.fromkeys(failures):
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": sum(1 for job in jobs if job.failure),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
