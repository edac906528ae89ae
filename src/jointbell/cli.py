"""Command-line front end.

Subcommands: ``simulate`` (exact distribution and aggregates), ``counts``
(Poisson coincidence tables), ``analyze`` (count-table ingestion),
``sweep`` (per-angle tables feeding the fit), ``fit`` (Bell-magnitude
line fit), ``figures`` (plot-ready csv/svg) and ``validate`` (invariant
suites).  Reports are JSON by default, comma-separated tables on request.
Angles are degrees everywhere.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, TextIO

import click
import numpy as np

from . import figures as figmod
from . import selfcheck
from .analysis import MINIMAL_OUTCOMES, FitResult, fit_sweep, pbflip_outcome
from .analysis import read_sweep, write_sweep
from .core import (
    CIRELSON_BOUND,
    TwoQubitState,
    VisibilityPair,
    bell_expectation,
    singlet_state,
    unit_circle_grid,
    werner_state,
)
from .sim import (
    ALL_OUTCOMES,
    B_COLUMNS,
    SIGN_COLUMNS,
    aggregate_b,
    joint_distribution,
    probabilities_from_counts,
    read_count_table,
    sample_counts,
    sweep_grid,
    write_count_table,
    _is_number,
)

#: Environment variable naming the directory for outputs written without
#: an explicit --out / --out-dir.
OUTPUT_DIR_ENV = "JOINTBELL_OUTPUT_DIR"

_SEED = click.IntRange(min=0)
_FORMAT = click.Choice(["json", "csv"])

#: The keys of a ``--config`` file and their converters.  The key ``format`` sets ``--format``.
_CONFIG_FIELDS = {
    "state": str,
    "theta_a": float,
    "theta_b": float,
    "mean_total": float,
    "seed": _SEED,
    "out": str,
    "format": _FORMAT,
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into typed config values."""
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"config line {lineno}: duplicate key {key!r} "
                             f"(first on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = _CONFIG_FIELDS[key](value)
        except (ValueError, click.BadParameter):
            raise ValueError(f"config line {lineno}: bad value {value!r} for {key!r}") from None
    return values


def parse_state_spec(spec: str) -> TwoQubitState:
    """Resolve 'singlet', 'werner:<v>' or a 4x4 matrix file path."""
    if spec == "singlet":
        return singlet_state()
    if spec.startswith("werner:"):
        v = spec.split(":", 1)[1]
        if not _is_number(v):
            raise ValueError(f"bad mixing parameter in state spec {spec!r}")
        return werner_state(float(v))
    path = Path(spec)
    if not path.exists() or path.is_dir():  # a pipe such as <(cat m.txt) is read as a file
        raise ValueError(
            f"state must be 'singlet', 'werner:<v>' or a matrix file path; {spec!r} is none"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(path, dtype=complex, encoding="utf-8")
    except Exception as exc:
        raise ValueError(f"cannot read matrix file {spec!r}: {exc}") from None
    return TwoQubitState(rho=matrix)


def _output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _resolve_out(out: str | None, default_name: str) -> Path:
    return Path(out) if out is not None else _output_dir() / default_name


def _echo(message: str, nl: bool = True) -> None:
    """``click.echo`` to the current ``sys.stdout``.  Without ``file=``, click caches a writer
    for each ``sys.stdout`` it meets, keyed weakly but holding the stream itself, so a
    redirected stdout (an in-process caller's buffer) would never be freed."""
    click.echo(message, nl=nl, file=sys.stdout)


@contextmanager
def _usage_errors(prefix: str = ""):
    """Turn a ValueError or OSError raised in the block into a one-line error, exit 1."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"{prefix}{exc}") from None


def _pbflip_table(theta_a: float, theta_b: float) -> dict[str, float] | None:
    if not (0.0 <= theta_a <= 90.0 and 0.0 <= theta_b <= 90.0):
        return None
    vis_a, vis_b = VisibilityPair.from_theta(theta_a), VisibilityPair.from_theta(theta_b)
    flips = pbflip_outcome(SIGN_COLUMNS, vis_a, vis_b).tolist()
    return {m.label(): p for m, p in zip(ALL_OUTCOMES, flips)}


def _write_json(fh: TextIO, report: dict) -> None:
    """Write ``report`` as JSON, each top-level string as the UTF-8 text of the bytes a CSV
    report writes for it (U+FFFD for a byte that is not UTF-8): the same on every locale."""
    report = {key: value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
              if isinstance(value, str) else value for key, value in report.items()}
    fh.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _write_csv(fh: TextIO, rows: list[dict]) -> None:
    """Write dict rows to ``fh`` with the keys of ``rows[0]`` as the columns."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _write_output(out: Path | None, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on the file ``out`` and echo ``wrote <out>``, or echo what it writes to
    stdout when ``out`` is None.  The file is UTF-8 on every locale, and command-line text
    decoded with surrogate escapes is written back byte for byte.  ``out``'s directory is
    made, and a new or regular ``out`` is written through a temporary file beside it, moved
    onto it only if ``write`` succeeds, so a failed command leaves no partial file."""
    if out is None:
        buffer = io.StringIO()
        write(buffer)
        _echo(buffer.getvalue(), nl=False)
        return
    with _usage_errors():
        out.parent.mkdir(parents=True, exist_ok=True)
        target = Path(os.path.realpath(out))
        tmp = (None if target.exists() and not target.is_file()
               else target.with_name(f".{target.name}.{os.getpid()}.tmp"))
        try:
            with open(tmp or out, "w", encoding="utf-8", errors="surrogateescape",
                      newline="") as fh:
                write(fh)
            if tmp:
                os.replace(tmp, target)
        finally:
            if tmp:
                tmp.unlink(missing_ok=True)
    _echo(f"wrote {out}")


def _emit_report(report: dict, out: Path | None, fmt: str) -> None:
    def write_csv(fh: TextIO) -> None:
        _write_csv(fh, report["outcomes"])
        for key, value in report.items():
            if key != "outcomes" and not isinstance(value, (dict, list)):
                fh.write(f"# {key}={value}\n")

    _write_output(out, (lambda fh: _write_json(fh, report)) if fmt == "json" else write_csv)


@click.group(context_settings={"show_default": True})
def main() -> None:
    """Joint-measurement simulator and Bell-correlation analysis for
    polarization-entangled photon pairs."""


def _read_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make the entries of the config file at ``path`` the command's defaults, so that click
    takes a flag over a file value over a built-in default."""
    if path is not None:
        with _usage_errors(f"{path}: "):
            values = parse_config_text(Path(path).read_text(encoding="utf-8"))
        ctx.default_map = {("fmt" if k == "format" else k): v for k, v in values.items()}


_config_option = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
    expose_value=False, callback=_read_config,
    help="Key-value config file; explicit flags override its entries.",
)
_state_option = click.option(
    "--state", default="singlet", help="singlet | werner:<v> | path to a 4x4 matrix file."
)


def _theta_option(side: str):
    return click.option(f"--theta-{side.lower()}", type=float, default=45.0,
                        help=f"Trade-off angle for side {side} (degrees).")


_mean_total_option = click.option(
    "--mean-total", type=float, default=100000.0, help="Expected total coincidences."
)
_seed_option = click.option("--seed", type=_SEED, default=1)
_format_option = click.option("--format", "fmt", type=_FORMAT, default="json",
                              help="Report format.")


@main.command()
@_config_option
@_state_option
@_theta_option("A")
@_theta_option("B")
@click.option("--out", default=None, help="Output file (default: stdout).")
@_format_option
def simulate(state, theta_a, theta_b, out, fmt) -> None:
    """Compute the sixteen-outcome distribution and b-value aggregates."""
    with _usage_errors():
        prepared = parse_state_spec(state)
        dist = joint_distribution(prepared, theta_a, theta_b)
    agg = aggregate_b(dist)
    vx, vy = unit_circle_grid([theta_a, theta_b]).tolist()
    report = {
        "state": state,
        "theta_a_deg": theta_a,
        "theta_b_deg": theta_b,
        "visibilities": {side: {"vx": x, "vy": y} for side, x, y in zip("ab", vx, vy)},
        "bell_expectation": bell_expectation(prepared),
        "p_b_plus": agg.p_plus,
        "p_b_minus": agg.p_minus,
        "mean_b": agg.mean_b,
        "p_bflip": _pbflip_table(theta_a, theta_b),
        "outcomes": figmod.outcome_rows(probability=dist.probs),
    }
    _emit_report(report, Path(out) if out else None, fmt)


@main.command()
@_config_option
@_state_option
@_theta_option("A")
@_theta_option("B")
@_mean_total_option
@_seed_option
@click.option("--duration-s", type=float, default=10.0, help="Accumulation time metadata.")
@click.option("--out", default=None, help="Output file (default: counts.csv in the output dir).")
def counts(state, theta_a, theta_b, mean_total, seed, duration_s, out) -> None:
    """Sample a Poisson coincidence-count table and write it."""
    with _usage_errors():
        dist = joint_distribution(parse_state_spec(state), theta_a, theta_b)
        table = sample_counts(dist, mean_total, seed=seed, duration_s=duration_s)
    _write_output(_resolve_out(out, "counts.csv"), lambda fh: write_count_table(fh, table))


@main.command()
@click.argument("countfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--theta-a", type=float, required=True, help="Declared side-A angle (degrees).")
@click.option("--theta-b", type=float, required=True, help="Declared side-B angle (degrees).")
@click.option("--out", default=None, help="Output file (default: stdout).")
@_format_option
def analyze(countfile, theta_a, theta_b, out, fmt) -> None:
    """Estimate probabilities and b statistics from a count table."""
    if not (math.isfinite(theta_a) and math.isfinite(theta_b)):
        raise click.ClickException(f"declared angles must be finite, got {theta_a}, {theta_b}")
    with _usage_errors(f"{countfile}: "):
        table = read_count_table(countfile)
        dist, errors = probabilities_from_counts(table)
    agg = aggregate_b(dist)
    total = table.total()
    n_plus = int(table.counts[B_COLUMNS[2]].sum())
    report = {
        "count_file": str(countfile),
        "total_counts": total,
        "duration_s": table.duration_s,
        "theta_a_deg": theta_a,
        "theta_b_deg": theta_b,
        "p_b_plus": agg.p_plus,
        "p_b_plus_std_err": math.sqrt(n_plus) / total,
        "p_b_minus": agg.p_minus,
        "p_b_minus_std_err": math.sqrt(total - n_plus) / total,
        "mean_b": agg.mean_b,
        "mean_b_std_err": 2.0 / math.sqrt(total),
        "p_bflip": _pbflip_table(theta_a, theta_b),
        "outcomes": figmod.outcome_rows(counts=table.counts, probability=dist.probs,
                                        std_err=errors),
    }
    _emit_report(report, Path(out) if out else None, fmt)


def _line_report(result: FitResult) -> dict[str, float]:
    """The fitted line and |<B>|: all of ``figure9_fit.json``, the head of ``fit``'s report."""
    keys = ("slope", "slope_std_err", "intercept", "intercept_std_err", "bell_magnitude")
    return {key: getattr(result, key) for key in keys}


@main.command()
@_config_option
@_state_option
@click.option("--thetas", default=None, help="Comma-separated trade-off angles in degrees.")
@click.option("--sample/--no-sample", default=False,
              help="Add Poisson-sampled counts per angle, all drawn on one stream from --seed.")
@_mean_total_option
@_seed_option
@click.option("--out", default=None, help="Output file (default: sweep.csv in the output dir).")
def sweep(state, thetas, sample, mean_total, seed, out) -> None:
    """Tabulate per-(angle, outcome) probabilities and flip probabilities."""
    if thetas is None:
        raise click.ClickException("--thetas is required (comma-separated degrees)")
    fields = [t for t in thetas.split(",") if t.strip()]
    if not all(map(_is_number, fields)):
        raise click.ClickException(f"bad theta list {thetas!r}")
    theta_list = list(map(float, fields))
    if not theta_list:
        raise click.ClickException("theta list is empty")
    if any(not 0.0 <= t <= 90.0 for t in theta_list):
        raise click.ClickException("sweep angles must lie in [0, 90] degrees")
    with _usage_errors():
        grid = sweep_grid(parse_state_spec(state), theta_list, mean_total if sample else None,
                          seed if sample else None)
    _write_output(_resolve_out(out, "sweep.csv"), lambda fh: write_sweep(fh, grid))


@main.command()
@click.argument("sweepfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, help="Output file (default: stdout).")
def fit(sweepfile, out) -> None:
    """Fit the minimal-outcome line from a sweep table and report |<B>|."""
    with _usage_errors(f"{sweepfile}: "):
        grid = read_sweep(sweepfile)
        result = fit_sweep(grid, rows=True)
    report = {
        "sweep_file": str(sweepfile),
        "n_points": len(MINIMAL_OUTCOMES) * len(grid.thetas),
        **_line_report(result),
        "bell_magnitude_std_err": result.bell_magnitude_std_err,
        "p_int_low": result.intercept,
        "p_int_low_std_err": result.intercept_std_err,
        "cirelson_ratio": result.bell_magnitude / CIRELSON_BOUND,
        "cirelson_ratio_std_err": result.bell_magnitude_std_err / CIRELSON_BOUND,
    }
    _write_output(Path(out) if out else None, lambda fh: _write_json(fh, report))


@main.command()
@click.option("--which", type=click.Choice(["6", "7", "8", "9"]), required=True,
              help="Preset view id.")
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv")
@click.option("--state", default="werner:0.9716")
@click.option("--sample/--no-sample", default=False)
@click.option("--mean-total", type=float, default=568352.0)
@click.option("--seed", type=_SEED, default=1)
@click.option("--out-dir", default=None, help="Target directory (default: output dir).")
def figures(which, fmt, state, sample, mean_total, seed, out_dir) -> None:
    """Emit plot-ready data (csv) or vector graphics (svg) for a preset view."""
    directory = Path(out_dir) if out_dir else _output_dir()
    mean_total, seed = (mean_total, seed) if sample else (None, None)
    with _usage_errors():
        grid = sweep_grid(parse_state_spec(state), figmod.FIGURE_THETAS[int(which)],
                          mean_total, seed)
        if which == "9":
            result = fit_sweep(grid)
    if which != "9":
        for theta, rows in zip(grid.thetas, figmod.distribution_rows(grid)):
            stem = directory / f"figure{which}_theta{theta:g}"
            if fmt == "csv":
                _write_output(stem.with_suffix(".csv"), lambda fh: _write_csv(fh, rows))
            else:
                svg = figmod.bars_svg(rows)
                _write_output(stem.with_suffix(".svg"), lambda fh: fh.write(svg))
        return
    points = figmod.line_points(grid)
    if fmt == "svg":
        svg = figmod.scatter_svg(points, result)
        _write_output(directory / "figure9.svg", lambda fh: fh.write(svg))
        return
    _write_output(directory / "figure9.csv", lambda fh: _write_csv(fh, points))
    _write_output(directory / "figure9_fit.json", lambda fh: _write_json(fh, _line_report(result)))


@main.command()
def validate() -> None:
    """Run the invariant suites one by one, printing each line as it finishes; a suite
    that raises fails without stopping the rest.  Exit nonzero on any failure."""
    passed = 0
    for check in selfcheck.ALL_CHECKS:
        name = check.__name__.removeprefix("check_").replace("_", "-")
        try:
            r = check()
        except Exception as exc:
            _echo(f"FAIL  {name}: raised {type(exc).__name__}: {exc}")
            continue
        _echo(f"{'PASS' if r.passed else 'FAIL'}  {name}: {r.detail}")
        passed += r.passed
    _echo(f"{passed}/{len(selfcheck.ALL_CHECKS)} suites passed")
    if passed < len(selfcheck.ALL_CHECKS):
        raise SystemExit(1)


def run() -> None:
    """Process entry point of the ``jointbell`` console script and ``python -m jointbell.cli``:
    move everything the imports built into the permanent generation, which the collections
    at interpreter exit then skip, and run ``main``.  ``main`` itself never freezes, so an
    in-process caller's garbage stays collectable."""
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
