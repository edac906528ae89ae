"""Closed-loop benchmark of the jointbell command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sweep-fit,validate,cli-cold} \
        --seed N --seconds S --trace {0,1}

One client runs the workload's jobs back to back for S seconds, then
checks every job's output (see ``workloads.py``).  Job inputs come only
from ``--seed``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``correct`` is false
when any job exits non-zero, raises or fails its check.  The line before
it records provenance: versions, CPU count, seed, job count, the tail
percentile and its sample count, and the unscaled times.

With ``--trace 0`` the metrics are end to end, measured untraced:

- ``setup_s``: from spawning a fresh interpreter until ``jointbell.cli``
  is imported, the median of SETUP_SAMPLES interpreters;
- ``job_p50_ms`` and ``job_tail_ms``: the median job latency and the
  highest percentile with TAIL_BEYOND samples beyond it;
- ``jobs_per_s``: jobs completed per second of job time;
- ``peak_rss_mb``: the largest resident set of the process that ran the
  jobs (this one when warm, the job interpreters when cold).

With ``--trace 1`` jobs alternate untraced and traced, and the metrics are
per-layer means per traced job (see ``tracing.py``), the import split of
``python -X importtime`` and the tracing overhead.  Every time is scaled
to a reference machine speed (see REFERENCE_NS).  Work files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from importlib import metadata
from pathlib import Path

import numpy as np

from tracing import LAYERS, WRAPPED, Tracer, clock, self_times
from workloads import WORKLOADS, Job, Step

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 60
#: Fresh interpreters per run for the set-up figures, which are their medians.
SETUP_SAMPLES = 15
IMPORTTIME_SAMPLES = 5
#: The tail percentile is the highest one with this many samples beyond it.
TAIL_BEYOND = 10
COMMANDS = ("simulate", "counts", "analyze", "sweep", "fit", "figures", "validate")
SUITES = (
    "povm_positivity", "povm_completeness", "uncertainty_boundary", "observable_algebra",
    "werner_linearity", "distribution_normalization", "marginal_consistency",
    "theta45_degeneracy", "visibility_scaling", "flip_convolution", "line_consistency",
    "flip_floor", "minimal_outcome_monotonicity", "visibility_circle", "count_roundtrip",
)
_READY = "import jointbell.cli; import time; print(time.monotonic_ns())"
#: On a shared 2-vCPU virtual machine the CPU speed was seen to drift by a
#: third over minutes, moving every wall time alike.  So before and after
#: each job and each set-up sample the benchmark times a fixed task of small
#: complex matrix products in numpy, which no jointbell code takes part in,
#: and scales the time between by REFERENCE_NS over the mean of the two
#: task times.  Scaled times read as on a host where the task takes
#: REFERENCE_NS; the unscaled medians are in the provenance line.
#: The benchmark and every interpreter it starts run pinned to one CPU, the
#: one the reference task times, because the CPUs of such a machine drift
#: apart: unpinned, the scaled times spread five times wider.  Pinned, the
#: import of numpy also takes less time, about 100 ms instead of 165 ms on
#: that machine, so ``setup_s`` reads lower than a user on two CPUs sees.
REFERENCE_NS = 10_000_000
REFERENCE_REPS = 250
_REFERENCE_MATRIX = (np.arange(16.0).reshape(4, 4) + 1j) / 16.0


def reference_ns() -> int:
    """Time the reference task takes now."""
    m = _REFERENCE_MATRIX
    start = clock()
    for _ in range(REFERENCE_REPS):
        np.trace(np.kron(m[:2, :2], m[2:, 2:]) @ m)
    return clock() - start


def scales(refs: list[int]) -> list[float]:
    """Scale factors of the intervals between consecutive reference times."""
    return [2 * REFERENCE_NS / (before + after) for before, after in zip(refs, refs[1:])]


class JobFailed(Exception):
    """A command exited non-zero."""


class Runner:
    """Runs one step warm (``jointbell.cli.main`` in this process) or cold
    (a fresh interpreter).  Traced cold steps leave their span files in
    ``pending`` for the caller to adopt once the job's span has closed."""

    def __init__(self, cold: bool, env: dict, workdir: Path) -> None:
        self.cold, self.env, self.workdir = cold, env, workdir
        self.pending: list[Path] = []
        if not cold:
            import jointbell.cli

            self.main = jointbell.cli.main

    def __call__(self, step: Step, tracer: Tracer | None) -> str:
        if not self.cold:
            out = io.StringIO()
            span = tracer.span(f"cli.{step.command}") if tracer else nullcontext()
            with redirect_stdout(out), span:
                self.main(list(step.args), standalone_mode=False)
            return out.getvalue()
        if tracer is None:
            cmd = [sys.executable, "-m", "jointbell.cli", *step.args]
        else:
            spans = self.workdir / f"spans-{len(tracer.spans)}.json"
            self.pending.append(spans)
            cmd = [sys.executable, str(BENCH / "boot.py"), str(spans), str(clock()), *step.args]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise JobFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return proc.stdout


def run_job(job: Job, runner: Runner, tracer: Tracer | None, index: int):
    """Run every step of ``job``; returns (latency_ns, stdouts, error)."""
    stdouts: list[str] = []
    error = None
    uninstall = None
    if tracer is not None:
        tracer.job = index
        if not runner.cold:
            uninstall = tracer.install()
    start = clock()
    try:
        with tracer.span("job", start) if tracer else nullcontext() as root:
            for step in job.steps:
                stdouts.append(runner(step, tracer))
    except (Exception, SystemExit) as exc:  # validate exits through SystemExit
        error = f"{type(exc).__name__}: {exc}"
    latency = clock() - start
    if uninstall is not None:
        uninstall()
    for path in runner.pending:
        if path.exists():
            tracer.adopt(json.loads(path.read_text()), root)
            path.unlink()
    runner.pending.clear()
    return latency, stdouts, error


def spawn_ready_s(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until jointbell.cli is imported."""
    start = clock()
    out = subprocess.run([sys.executable, "-c", _READY], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=JOB_TIMEOUT_S).stdout
    return (int(out.split()[-1]) - start) / 1e9


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c 'import jointbell.cli'`` output into
    the cumulative import time of numpy, of click, and of everything else
    that importing jointbell.cli pulls in, in milliseconds."""
    cumulative: dict[str, int] = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative.setdefault(fields[2].strip(), int(fields[1]))
    numpy, click = cumulative.get("numpy", 0), cumulative.get("click", 0)
    return {
        "setup.numpy_ms": numpy / 1e3,
        "setup.click_ms": click / 1e3,
        "setup.jointbell_ms": (cumulative["jointbell.cli"] - numpy - click) / 1e3,
    }


def import_split(env: dict) -> dict[str, float]:
    samples = []
    refs = [reference_ns()]
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import jointbell.cli"],
                              cwd=ROOT, env=env, check=True, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        samples.append(parse_importtime(proc.stderr))
        refs.append(reference_ns())
    samples = [{k: v * scale for k, v in sample.items()} for sample, scale in zip(samples, scales(refs))]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def tail(latencies: list[int]) -> tuple[int, float]:
    """The latency with TAIL_BEYOND samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def bytes_out(step: Step, stdout: str) -> int:
    return len(stdout.encode()) + sum(p.stat().st_size for p in step.files if p.exists())


def per_layer(tracer: Tracer, records: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    calls: Counter = Counter()
    own_ns: Counter = Counter()
    span_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, job = span
        scale = records[job]["scale"]
        calls[name] += 1
        own_ns[name] += own * scale
        span_ns[name] += (end - start) * scale
        layer_ns[name.split(".", 1)[0]] += own * scale
    job_ns = sum(layer_ns.values())
    out_bytes: Counter = Counter()
    for r in records:
        for step, stdout in zip(r["job"].steps, r["stdouts"]):
            out_bytes[step.command] += bytes_out(step, stdout)
    metrics = {}
    for module, names in WRAPPED.items():
        for fn in names:
            metrics[f"{module}.{fn}.calls"] = (calls[f"{module}.{fn}"] / n, "count")
            metrics[f"{module}.{fn}.self_ms"] = (own_ns[f"{module}.{fn}"] / n / 1e6, "ms")
    for suite in SUITES:
        metrics[f"selfcheck.{suite}.ms"] = (span_ns[f"selfcheck.{suite}"] / n / 1e6, "ms")
    for command in COMMANDS:
        metrics[f"cli.{command}.self_ms"] = (own_ns[f"cli.{command}"] / n / 1e6, "ms")
        metrics[f"cli.{command}.bytes_out"] = (out_bytes[command] / len(records), "B")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (layer_ns[layer] / n / 1e6, "ms")
        metrics[f"{layer}.share"] = (layer_ns[layer] / job_ns, "frac")
    p50 = statistics.median
    metrics["trace.overhead_frac"] = (p50(map(scaled, traced)) / p50(map(scaled, untraced)) - 1.0,
                                      "frac")
    return metrics


def scaled(record: dict) -> float:
    return record["latency"] * record["scale"]


def end_to_end(records: list[dict], setup: list[tuple[float, float]], cold: bool):
    """Metrics from scaled times, and the unscaled medians and tail size
    for the provenance line.  ``setup`` holds (seconds, scale) pairs."""
    latencies = [scaled(r) for r in records]
    tail_ns, percentile = tail(latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    completed = sum(r["error"] is None for r in records)
    metrics = {
        "setup_s": (statistics.median(s * k for s, k in setup), "s"),
        "job_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
        "job_tail_ms": (tail_ns / 1e6, "ms"),
        "jobs_per_s": (completed / (sum(latencies) / 1e9), "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "tail_percentile": round(percentile, 2),
        "tail_samples": len(latencies),
        "tail_beyond": TAIL_BEYOND,
        "unscaled_job_p50_ms": statistics.median(r["latency"] for r in records) / 1e6,
        "unscaled_setup_s": statistics.median(s for s, _ in setup),
        "mean_scale": statistics.fmean(r["scale"] for r in records),
    }
    return metrics, info


def provenance(args, records: list[dict], nproc: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(records),
        "traced_jobs": sum(r["traced"] for r in records),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jointbell" / "cli.py").is_file():
        print(f"bench: no jointbell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    spawn_ready_s(env)  # compiles bytecode and warms the file cache; not counted
    if args.trace:
        setup_split = import_split(env)
    else:
        refs = [reference_ns()]
        seconds = []
        for _ in range(SETUP_SAMPLES):
            seconds.append(spawn_ready_s(env))
            refs.append(reference_ns())
        setup = list(zip(seconds, scales(refs)))
    runner = Runner(workload.cold, env, workdir)
    tracer = Tracer() if args.trace else None
    jobs = workload.jobs(random.Random(args.seed), workdir)
    records = []
    # Stop on a whole cycle, and in a traced run on a whole pair of an
    # untraced and a traced cycle, so every run has the same command mix.
    period = workload.cycle * (2 if args.trace else 1)
    deadline = clock() + int(args.seconds * 1e9)
    refs = [reference_ns()]
    while clock() < deadline or len(records) % period:
        job = next(jobs)
        traced = bool(args.trace) and len(records) // workload.cycle % 2 == 1
        latency, stdouts, error = run_job(job, runner, tracer if traced else None, len(records))
        refs.append(reference_ns())
        records.append({"job": job, "latency": latency, "stdouts": stdouts,
                        "error": error, "traced": traced})
    for record, scale in zip(records, scales(refs)):
        record["scale"] = scale

    for i, r in enumerate(records):
        if r["error"] is None:
            try:
                r["job"].check(r["stdouts"])
            except Exception as exc:  # any oracle failure fails the job, not the run
                r["error"] = f"check: {type(exc).__name__}: {exc}"
        if r["error"] is not None:
            print(f"bench: job {i} failed: {r['error']}", file=sys.stderr)
    failed = sum(r["error"] is not None for r in records)

    info = provenance(args, records, nproc)
    if args.trace:
        metrics = per_layer(tracer, records)
        metrics.update({k: (v, "ms") for k, v in setup_split.items()})
        spans_file = workdir.parent / f"{workload.name}-spans.json"
        spans_file.write_text(json.dumps(tracer.spans))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics, tail_info = end_to_end(records, setup, workload.cold)
        info.update(tail_info)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
