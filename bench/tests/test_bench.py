"""Tests of the benchmark itself.  Run from the root of a checkout with

    python3 -m pytest bench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jointbell.cli  # noqa: E402,F401  (loads every jointbell module)
from jointbell import selfcheck  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import WRAPPED, Tracer, self_times, suite_name  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Job, Step  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that end before they start, or that do not lie inside their
    parent, in the parent's job, after the parent and after every earlier
    sibling ends."""
    errors = []
    last_child_end: dict[int, int] = {}
    for i, (name, start, end, parent, job) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} {name}: bad interval {start}..{end}")
        if parent is None:
            continue
        p_name, p_start, p_end, _, p_job = spans[parent]
        if not (parent < i and p_start <= start and p_end is not None and end <= p_end):
            errors.append(f"span {i} {name} is not inside its parent {parent} {p_name}")
        if job != p_job:
            errors.append(f"span {i} {name} is in job {job}, its parent in {p_job}")
        if start < last_child_end.get(parent, start):
            errors.append(f"span {i} {name} overlaps an earlier sibling")
        last_child_end[parent] = end
    return errors


def _jointbell_modules():
    return [m for n, m in sys.modules.items() if n == "jointbell" or n.startswith("jointbell.")]


def test_every_binding_of_a_wrapped_name_is_wrapped_then_restored():
    originals = [getattr(sys.modules[f"jointbell.{m}"], fn) for m, fns in WRAPPED.items() for fn in fns]
    bound = [
        (module, attr, value)
        for module in _jointbell_modules()
        for attr, value in vars(module).items()
        if any(value is fn for fn in originals)
    ]
    names = {(module.__name__, attr) for module, attr, _ in bound}
    # Bindings imported by name, not only the defining ones.
    assert {("jointbell.cli", "pbflip_outcome"), ("jointbell.figures", "joint_distribution"),
            ("jointbell.selfcheck", "flip_convolve"), ("jointbell.sim", "build_joint_povm")} <= names
    checks = selfcheck.ALL_CHECKS
    uninstall = Tracer().install()
    try:
        for module, attr, original in bound:
            wrapper = getattr(module, attr)
            assert wrapper is not original and wrapper.__wrapped__ is original, (module, attr)
        assert [c.__wrapped__ for c in selfcheck.ALL_CHECKS] == list(checks)
    finally:
        uninstall()
    for module, attr, original in bound:
        assert getattr(module, attr) is original
    assert selfcheck.ALL_CHECKS is checks


def _sweep_job(tmp_path: Path) -> Job:
    rng = random.Random(3)
    job = next(workloads.sweep_fit_jobs(rng, tmp_path))
    sweep, fit = job.steps
    args = list(sweep.args)
    args[args.index("--thetas") + 1] = "5.5,22.5,47.25,80.0"
    return Job((Step(tuple(args), sweep.files), fit), lambda stdouts: None)


def _run_traced(jobs, cold: bool, tmp_path: Path):
    runner = run.Runner(cold, ENV, tmp_path)
    tracer = Tracer()
    latencies = []
    for index, job in enumerate(jobs):
        latency, stdouts, error = run.run_job(job, runner, tracer, index)
        assert error is None
        job.check(stdouts)
        latencies.append(latency)
    return tracer, latencies


def _check_job_accounting(tracer: Tracer, latencies: list[int]) -> None:
    assert nesting_errors(tracer.spans) == []
    own = self_times(tracer.spans)
    for index, latency in enumerate(latencies):
        roots = [s for s in tracer.spans if s[3] is None and s[4] == index]
        assert len(roots) == 1 and roots[0][0] == "job"
        root_ns = roots[0][2] - roots[0][1]
        assert sum(o for s, o in zip(tracer.spans, own) if s[4] == index) == root_ns
        assert 0 <= latency - root_ns < 5_000_000


def _parent_names(tracer: Tracer, name: str) -> set[str]:
    return {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == name}


def test_warm_spans_nest_and_self_times_add_up_to_the_job(tmp_path):
    validate = Job((Step(("validate",)),), workloads.check_validate)
    tracer, latencies = _run_traced([_sweep_job(tmp_path), validate], cold=False, tmp_path=tmp_path)
    _check_job_accounting(tracer, latencies)
    assert _parent_names(tracer, "cli.sweep") == {"job"}
    assert "cli.sweep" in _parent_names(tracer, "analysis.pbflip_outcome")
    assert "sim.joint_distribution" in _parent_names(tracer, "core.build_joint_povm")
    suites = {s[0] for s in tracer.spans if s[0].startswith("selfcheck.")}
    assert suites == {f"selfcheck.{name}" for name in run.SUITES}
    assert _parent_names(tracer, "selfcheck.flip_convolution") == {"cli.validate"}


def test_cold_spans_are_adopted_under_the_job(tmp_path):
    jobs = list(zip(range(4), workloads.cli_cold_jobs(random.Random(5), tmp_path)))
    tracer, latencies = _run_traced([job for _, job in jobs], cold=True, tmp_path=tmp_path)
    _check_job_accounting(tracer, latencies)
    assert _parent_names(tracer, "setup") == {"job"}
    assert _parent_names(tracer, "cli.counts") == {"job"}
    assert _parent_names(tracer, "sim.write_count_table") == {"cli.counts"}
    assert _parent_names(tracer, "figures.scatter_svg") == {"cli.figures"}
    for name, start, end, parent, job in tracer.spans:
        if name == "setup":
            assert tracer.spans[parent][1] <= start  # spawned after the job began
    assert not list(tmp_path.glob("spans-*.json"))


def test_nesting_errors_reports_a_child_outside_its_parent():
    spans = [["job", 0, 10, None, 0], ["cli.fit", 2, 12, 0, 0]]
    assert nesting_errors(spans)
    spans = [["job", 0, 10, None, 0], ["a", 1, 5, 0, 0], ["b", 4, 6, 0, 0]]
    assert nesting_errors(spans) == ["span 2 b overlaps an earlier sibling"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def first_jobs(seed):
        jobs = WORKLOADS[name].jobs(random.Random(seed), tmp_path)
        return [[step.args for step in next(jobs).steps] for _ in range(2 * WORKLOADS[name].cycle)]

    assert first_jobs(11) == first_jobs(11)
    if name != "validate":
        assert first_jobs(11) != first_jobs(12)


def test_exact_mean_b_matches_the_package():
    from jointbell.core import werner_state
    from jointbell.sim import aggregate_b, joint_distribution

    for v, a, b in ((0.93, 12.3, 77.1), (0.9, 45.0, 45.0), (0.99, 3.0, 60.0)):
        got = aggregate_b(joint_distribution(werner_state(v), a, b)).mean_b
        assert abs(got - workloads.exact_mean_b(v, a, b)) < 1e-12


def test_oracles_reject_wrong_outputs(tmp_path):
    with pytest.raises(CheckFailed):
        workloads.strict_json('{"mean_b": NaN}')
    with pytest.raises(CheckFailed):
        workloads.check_validate(["PASS  x: y\n14/15 suites passed\n"])
    workloads.check_validate(["15/15 suites passed\n"])
    job = next(workloads.sweep_fit_jobs(random.Random(2), tmp_path))
    stdouts = [run.Runner(False, ENV, tmp_path)(step, None) for step in job.steps]
    job.check(stdouts)
    fit = json.loads(stdouts[1])
    fit["bell_magnitude"] += 6 * fit["bell_magnitude_std_err"]
    with pytest.raises(CheckFailed):
        job.check([stdouts[0], json.dumps(fit)])
    path = job.steps[0].files[0]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(CheckFailed):
        job.check(stdouts)


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check = Job((), lambda stdouts: None)
    records = [{"job": check, "latency": 10, "scale": 1.0, "stdouts": [], "error": None,
                "traced": t} for t in (False, True)]
    tracer = Tracer()
    tracer.spans.append(["job", 0, 10, None, 1])
    names = set(run.per_layer(tracer, records)) | set(run.parse_importtime(IMPORTTIME))
    assert names == {m["name"] for m in spec["per_layer"]}
    metrics, _ = run.end_to_end(records, [(0.3, 1.0)], cold=False)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_suite_names_follow_selfcheck():
    assert [suite_name(c) for c in selfcheck.ALL_CHECKS] == list(run.SUITES)


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:      1593 |     155747 |       numpy
import time:      8072 |     173305 |     jointbell.core
import time:       698 |     187007 |   jointbell
import time:       379 |      10242 |   click
import time:      7834 |     243205 | jointbell.cli
"""


def test_parse_importtime_splits_numpy_click_and_the_rest():
    assert run.parse_importtime(IMPORTTIME) == {
        "setup.numpy_ms": 155.747,
        "setup.click_ms": 10.242,
        "setup.jointbell_ms": 77.216,
    }


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail(list(range(50)))
    assert value == 39 and percentile == 80.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
