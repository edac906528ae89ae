"""Workloads of the jointbell benchmark: generated jobs and output oracles.

A job is one or more ``jointbell`` command lines run back to back.  Every
input a job carries is drawn from the workload's ``random.Random`` stream,
so one seed always yields the same jobs.  Each job comes with a check of
its outputs against values the benchmark derives itself (closed forms,
exit codes, format round trips), never against a second run of the code
being timed.

Why each workload exists:

- ``sweep-fit`` (warm, in-process) is kernel-bound: ``joint_distribution``
  with its ``build_joint_povm`` calls, ``pbflip_outcome`` and
  ``sample_counts`` take most of a job; CSV emit and parse in ``cli`` take
  the rest.  Visibility, angles and seed are random per job, so memoising
  by state or by angle across jobs cannot win a gain a one-shot command
  line user would never see.
- ``validate`` (cold) is half interpreter start and import, half the
  invariant work of ``core``, ``sim`` and ``analysis``, with no sampling
  and no file I/O.  Its inputs are fixed inside ``selfcheck``; it runs in
  a fresh interpreter because that is how a CI gate runs it.
- ``cli-cold`` (cold) is dominated by start-up, so kernel changes should
  not move it.  It writes a count file and reads it back, and emits JSON
  and SVG reports.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import random
import re
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

MEAN_TOTAL = "568352"
SWEEP_ANGLES = 181
#: Werner mixing parameters stay below 0.99 so that no sampled outcome
#: mean comes near zero and every fit point has a positive standard error.
V_RANGE = (0.90, 0.99)
#: Largest accepted deviation of a sampled estimate, in standard errors.
PULL_LIMIT = 5.0
MIN_SUITES = 15
_SVG_ROOT = "{http://www.w3.org/2000/svg}svg"


class CheckFailed(Exception):
    """A job's output contradicts its oracle."""


@dataclass(frozen=True)
class Step:
    """One ``jointbell`` command line and the files it writes."""

    args: tuple[str, ...]
    files: tuple[Path, ...] = ()

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Job:
    steps: tuple[Step, ...]
    #: Called with the standard output of each step; raises CheckFailed.
    check: Callable[[list[str]], None]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Cold jobs run each step in a fresh interpreter; warm jobs call
    #: ``jointbell.cli.main`` in the benchmark's own process.
    cold: bool
    jobs: Callable[[random.Random, Path], Iterator[Job]]
    #: Jobs per cycle of distinct commands; traced runs alternate whole cycles.
    cycle: int = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def exact_mean_b(v: float, theta_a_deg: float, theta_b_deg: float) -> float:
    """<b> of the Werner state v at trade-off angles theta_A, theta_B.

    Each singlet correlation of the four observable pairs is -1/sqrt(2) up
    to the CHSH sign, and the joint measurement scales them by cos/sin of
    the angles, so <b> = -(v/sqrt(2)) (cos a + sin a)(cos b + sin b).
    """
    a, b = math.radians(theta_a_deg), math.radians(theta_b_deg)
    return -(v / math.sqrt(2.0)) * (math.cos(a) + math.sin(a)) * (math.cos(b) + math.sin(b))


# --------------------------------------------------------------------------
# sweep-fit
# --------------------------------------------------------------------------


def sweep_fit_jobs(rng: random.Random, workdir: Path) -> Iterator[Job]:
    for index in itertools.count():
        v = rng.uniform(*V_RANGE)
        thetas = sorted(rng.uniform(0.0, 90.0) for _ in range(SWEEP_ANGLES))
        seed = rng.randrange(2**31)
        path = workdir / f"sweep-{index}.csv"
        sweep = Step(
            ("sweep", "--state", f"werner:{v!r}", "--thetas", ",".join(map(repr, thetas)),
             "--sample", "--mean-total", MEAN_TOTAL, "--seed", str(seed), "--out", str(path)),
            (path,),
        )
        fit = Step(("fit", str(path)))
        yield Job((sweep, fit), functools.partial(check_sweep_fit, v, thetas, path))


def check_sweep_fit(v: float, thetas: list[float], path: Path, stdouts: list[str]) -> None:
    """16 rows per angle in input order, p_theory summing to one at each
    angle, and a fitted |<B>| within PULL_LIMIT errors of 2 sqrt(2) v."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == 16 * len(thetas), f"{len(rows)} rows for {len(thetas)} angles")
    for i, theta in enumerate(thetas):
        block = rows[16 * i:16 * i + 16]
        _require(all(float(r["theta_deg"]) == theta for r in block), f"rows of angle {theta!r} out of place")
        signs = {(r["x_a"], r["y_a"], r["x_b"], r["y_b"]) for r in block}
        _require(len(signs) == 16, f"angle {theta!r}: {len(signs)} distinct outcomes")
        total = math.fsum(float(r["p_theory"]) for r in block)
        _require(abs(total - 1.0) <= 1e-10, f"angle {theta!r}: p_theory sums to {total!r}")
    fit = strict_json(stdouts[1])
    sigma = fit["bell_magnitude_std_err"]
    _require(0.0 < sigma < math.inf, f"bell_magnitude_std_err {sigma!r}")
    pull = abs(fit["bell_magnitude"] - 2.0 * math.sqrt(2.0) * v) / sigma
    _require(pull <= PULL_LIMIT, f"bell_magnitude is {pull:.2f} sigma from 2 sqrt(2) v")


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------


def validate_jobs(rng: random.Random, workdir: Path) -> Iterator[Job]:
    job = Job((Step(("validate",)),), check_validate)
    return itertools.repeat(job)


def check_validate(stdouts: list[str]) -> None:
    lines = stdouts[0].strip().splitlines()
    match = re.fullmatch(r"(\d+)/(\d+) suites passed", lines[-1] if lines else "")
    _require(match is not None, "no suite summary line")
    passed, total = int(match[1]), int(match[2])
    _require(passed == total >= MIN_SUITES, f"{passed}/{total} suites passed")


# --------------------------------------------------------------------------
# cli-cold
# --------------------------------------------------------------------------


def cli_cold_jobs(rng: random.Random, workdir: Path) -> Iterator[Job]:
    """Cycles counts -> analyze (of that count file) -> simulate -> figures."""
    for cycle in itertools.count():
        v = rng.uniform(*V_RANGE)
        theta_a, theta_b = rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)
        seed = rng.randrange(2**31)
        state = f"werner:{v!r}"
        angles = ("--theta-a", repr(theta_a), "--theta-b", repr(theta_b))
        mean_b = exact_mean_b(v, theta_a, theta_b)
        counts = workdir / f"counts-{cycle}.csv"
        analyzed = workdir / f"analyze-{cycle}.json"
        simulated = workdir / f"simulate-{cycle}.json"
        figure_dir = workdir / f"figures-{cycle}"
        yield Job(
            (Step(("counts", "--state", state, *angles, "--mean-total", MEAN_TOTAL,
                   "--seed", str(seed), "--out", str(counts)), (counts,)),),
            functools.partial(check_counts, counts),
        )
        yield Job(
            (Step(("analyze", str(counts), *angles, "--out", str(analyzed)), (analyzed,)),),
            functools.partial(check_analyze, analyzed, mean_b),
        )
        yield Job(
            (Step(("simulate", "--state", state, *angles, "--out", str(simulated)), (simulated,)),),
            functools.partial(check_simulate, simulated, mean_b),
        )
        svg = figure_dir / "figure9.svg"
        yield Job(
            (Step(("figures", "--which", "9", "--sample", "--format", "svg", "--state", state,
                   "--seed", str(seed), "--out-dir", str(figure_dir)), (svg,)),),
            functools.partial(check_svg, svg),
        )


def check_counts(path: Path, stdouts: list[str]) -> None:
    from jointbell.sim import CountFileError, format_count_table, parse_count_table

    text = path.read_text()
    try:
        table = parse_count_table(text)
    except CountFileError as exc:
        raise CheckFailed(f"count file does not parse: {exc}") from None
    _require(format_count_table(table) == text, "count file does not round-trip")
    _require(table.total() > 0, "count file is empty")


def check_analyze(path: Path, mean_b: float, stdouts: list[str]) -> None:
    report = strict_json(path.read_text())
    _require(len(report["outcomes"]) == 16, "analyze report lacks 16 outcomes")
    pull = abs(report["mean_b"] - mean_b) / report["mean_b_std_err"]
    _require(pull <= PULL_LIMIT, f"mean_b is {pull:.2f} sigma from its exact value")


def check_simulate(path: Path, mean_b: float, stdouts: list[str]) -> None:
    report = strict_json(path.read_text())
    total = math.fsum(row["probability"] for row in report["outcomes"])
    _require(len(report["outcomes"]) == 16 and abs(total - 1.0) <= 1e-10,
             f"simulate probabilities sum to {total!r}")
    _require(abs(report["mean_b"] - mean_b) <= 1e-9,
             f"mean_b {report['mean_b']!r} differs from exact {mean_b!r}")


def check_svg(path: Path, stdouts: list[str]) -> None:
    try:
        root = ElementTree.fromstring(path.read_text())
    except ElementTree.ParseError as exc:
        raise CheckFailed(f"SVG is not XML: {exc}") from None
    _require(root.tag == _SVG_ROOT, f"root element {root.tag!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sweep-fit", cold=False, jobs=sweep_fit_jobs),
        Workload("validate", cold=True, jobs=validate_jobs),
        Workload("cli-cold", cold=True, jobs=cli_cold_jobs, cycle=4),
    )
}
