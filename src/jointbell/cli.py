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
import io
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path
from typing import Callable, TextIO

import click
import numpy as np

from . import figures as figmod
from . import selfcheck
from .analysis import MINIMAL_OUTCOMES, FitResult, fit_bell_magnitude, pbflip_grid, pbflip_outcome
from .core import (
    CIRELSON_BOUND,
    MeasurementSetting,
    TwoQubitState,
    VisibilityPair,
    bell_expectation,
    singlet_state,
    werner_state,
)
from .sim import (
    ALL_OUTCOMES,
    B_COLUMNS,
    SIGN_COLUMNS,
    aggregate_b,
    b_value,
    joint_distribution,
    probabilities_from_counts,
    read_count_table,
    sample_counts,
    sweep_grid,
    write_count_table,
)

#: Environment variable naming the directory for outputs written without
#: an explicit --out / --out-dir.
OUTPUT_DIR_ENV = "JOINTBELL_OUTPUT_DIR"

_CONFIG_FIELDS = {
    "state": str,
    "theta_a": float,
    "theta_b": float,
    "mean_total": float,
    "seed": int,
    "out": str,
    "format": str,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration: built-in defaults, overlaid by a config
    file, overlaid by explicit command-line flags."""

    state: str = "singlet"
    theta_a: float = 45.0
    theta_b: float = 45.0
    mean_total: float = 100000.0
    seed: int = 1
    out: str | None = None
    format: str = "json"


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into typed config values."""
    values: dict = {}
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
        try:
            values[key] = _CONFIG_FIELDS[key](value)
        except ValueError:
            raise ValueError(f"config line {lineno}: bad value {value!r} for {key!r}") from None
    return values


def build_config(file_values: dict | None = None, **overrides) -> RunConfig:
    config = RunConfig()
    if file_values:
        config = replace(config, **file_values)
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if config.format not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {config.format!r}")
    return config


def parse_state_spec(spec: str) -> TwoQubitState:
    """Resolve 'singlet', 'werner:<v>' or a 4x4 matrix file path."""
    if spec == "singlet":
        return singlet_state()
    if spec.startswith("werner:"):
        try:
            v = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad mixing parameter in state spec {spec!r}") from None
        return werner_state(v)
    path = Path(spec)
    if not path.is_file():
        raise ValueError(
            f"state must be 'singlet', 'werner:<v>' or a matrix file path; {spec!r} is none"
        )
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(path, dtype=complex)
    except Exception as exc:
        raise ValueError(f"cannot read matrix file {spec!r}: {exc}") from None
    return TwoQubitState(rho=matrix)


def _output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _resolve_out(out: str | None, default_name: str) -> Path:
    return Path(out) if out is not None else _output_dir() / default_name


@contextmanager
def _usage_errors(prefix: str = ""):
    """Turn a ValueError or OSError raised in the block into a one-line error, exit 1."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise click.ClickException(f"{prefix}{exc}") from None


@contextmanager
def _writing(out: Path):
    """Make the directory of ``out``, yield the path a block writes ``out`` through, then
    echo ``wrote <out>``.  That path is a temporary file beside a new or regular ``out``,
    moved onto it only if the block succeeds, so a failed command leaves no partial file."""
    with _usage_errors():
        out.parent.mkdir(parents=True, exist_ok=True)
        target = Path(os.path.realpath(out))
        if target.exists() and not target.is_file():
            yield out
        else:
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            try:
                yield tmp
                os.replace(tmp, target)
            finally:
                tmp.unlink(missing_ok=True)
    click.echo(f"wrote {out}")


def _load_config(config_path: str | None, **overrides) -> RunConfig:
    file_values = None
    if config_path is not None:
        with _usage_errors(f"{config_path}: "):
            file_values = parse_config_text(Path(config_path).read_text(encoding="utf-8"))
    with _usage_errors():
        return build_config(file_values, **overrides)


def _state_or_fail(spec: str) -> TwoQubitState:
    with _usage_errors():
        return parse_state_spec(spec)


def _pbflip_table(theta_a: float, theta_b: float) -> dict[str, float] | None:
    if not (0.0 <= theta_a <= 90.0 and 0.0 <= theta_b <= 90.0):
        return None
    vis_a, vis_b = VisibilityPair.from_theta(theta_a), VisibilityPair.from_theta(theta_b)
    flips = pbflip_outcome(SIGN_COLUMNS, vis_a, vis_b).tolist()
    return {m.label(): p for m, p in zip(ALL_OUTCOMES, flips)}


def _write_json(fh: TextIO, report: dict) -> None:
    fh.write(json.dumps(report, indent=2, allow_nan=False) + "\n")


def _write_csv(fh: TextIO, rows: list[dict]) -> None:
    """Write dict rows to ``fh`` with the keys of ``rows[0]`` as the columns."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _write_output(out: Path | None, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on the file ``out`` and echo ``wrote <out>``, or echo
    what it writes to stdout when ``out`` is None."""
    if out is None:
        buffer = io.StringIO()
        write(buffer)
        click.echo(buffer.getvalue(), nl=False)
        return
    with _writing(out) as path, open(path, "w", newline="") as fh:
        write(fh)


def _emit_report(report: dict, rows_key: str, out: Path | None, fmt: str) -> None:
    def write_csv(fh: TextIO) -> None:
        _write_csv(fh, report[rows_key])
        for key, value in report.items():
            if key != rows_key and not isinstance(value, (dict, list)):
                fh.write(f"# {key}={value}\n")

    _write_output(out, (lambda fh: _write_json(fh, report)) if fmt == "json" else write_csv)


@click.group()
def main() -> None:
    """Joint-measurement simulator and Bell-correlation analysis for
    polarization-entangled photon pairs."""


_config_option = click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Key-value config file; explicit flags override its entries.",
)
_state_option = click.option(
    "--state", default=None, help="singlet | werner:<v> | path to a 4x4 matrix file."
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default=None,
    help="Report format (default json).",
)


@main.command()
@_config_option
@_state_option
@click.option("--theta-a", type=float, default=None, help="Trade-off angle for side A (degrees).")
@click.option("--theta-b", type=float, default=None, help="Trade-off angle for side B (degrees).")
@click.option("--out", default=None, help="Output file (default: stdout).")
@_format_option
def simulate(config_path, state, theta_a, theta_b, out, fmt) -> None:
    """Compute the sixteen-outcome distribution and b-value aggregates."""
    cfg = _load_config(
        config_path, state=state, theta_a=theta_a, theta_b=theta_b, out=out, format=fmt
    )
    prepared = _state_or_fail(cfg.state)
    with _usage_errors():
        dist = joint_distribution(prepared, cfg.theta_a, cfg.theta_b)
    agg = aggregate_b(dist)
    rows = [
        {**m._asdict(), "b": b_value(m), "probability": p}
        for m, p in zip(ALL_OUTCOMES, dist.probs.tolist())
    ]
    report = {
        "state": cfg.state,
        "theta_a_deg": cfg.theta_a,
        "theta_b_deg": cfg.theta_b,
        "visibilities": {
            side.lower(): dict(zip(("vx", "vy"), MeasurementSetting(theta, side).visibilities))
            for side, theta in (("A", cfg.theta_a), ("B", cfg.theta_b))
        },
        "bell_expectation": bell_expectation(prepared),
        "p_b_plus": agg.p_plus,
        "p_b_minus": agg.p_minus,
        "mean_b": agg.mean_b,
        "p_bflip": _pbflip_table(cfg.theta_a, cfg.theta_b),
        "outcomes": rows,
    }
    _emit_report(report, "outcomes", Path(cfg.out) if cfg.out else None, cfg.format)


@main.command()
@_config_option
@_state_option
@click.option("--theta-a", type=float, default=None)
@click.option("--theta-b", type=float, default=None)
@click.option("--mean-total", type=float, default=None, help="Expected total coincidences.")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--duration-s", type=float, default=10.0, help="Accumulation time metadata.")
@click.option("--out", default=None, help="Output file (default: counts.csv in the output dir).")
def counts(config_path, state, theta_a, theta_b, mean_total, seed, duration_s, out) -> None:
    """Sample a Poisson coincidence-count table and write it."""
    cfg = _load_config(
        config_path, state=state, theta_a=theta_a, theta_b=theta_b,
        mean_total=mean_total, seed=seed, out=out,
    )
    prepared = _state_or_fail(cfg.state)
    with _usage_errors():
        dist = joint_distribution(prepared, cfg.theta_a, cfg.theta_b)
        table = sample_counts(dist, cfg.mean_total, seed=cfg.seed, duration_s=duration_s)
    path = _resolve_out(cfg.out, "counts.csv")
    with _writing(path) as tmp:
        write_count_table(table, tmp)


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
    rows = [
        {**m._asdict(), "b": b_value(m), "counts": n, "probability": p, "std_err": e}
        for m, n, p, e in zip(
            ALL_OUTCOMES, table.counts.tolist(), dist.probs.tolist(), errors.tolist()
        )
    ]
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
        "outcomes": rows,
    }
    _emit_report(report, "outcomes", Path(out) if out else None, fmt or "json")


def _line_report(result: FitResult) -> dict[str, float]:
    """The fitted line and |<B>|: all of ``figure9_fit.json``, the head of ``fit``'s report."""
    keys = ("slope", "slope_std_err", "intercept", "intercept_std_err", "bell_magnitude")
    return {key: getattr(result, key) for key in keys}


_SWEEP_COLUMNS = (
    "theta_deg", "x_a", "y_a", "x_b", "y_b", "b",
    "p_theory", "p_bflip", "counts", "p_obs", "std_err",
)
#: The sign and b fields of a sweep's sixteen rows per angle, in ALL_OUTCOMES order.
_OUTCOME_FIELDS = [",".join(map(str, (*m, b_value(m)))) for m in ALL_OUTCOMES]
#: A sweep row, exact or sampled.  No field needs CSV quoting, and floats are written as
#: their repr, as ``csv`` writes them.
_SWEEP_ROW = {False: "%s,%s,%r,%r,,,\n", True: "%s,%s,%r,%r,%d,%r,%r\n"}
#: The columns ``fit`` reads from every row.
_FIT_COLUMNS = ("x_a", "y_a", "x_b", "y_b", "p_theory", "p_bflip", "p_obs", "std_err")


@main.command()
@_config_option
@_state_option
@click.option("--thetas", default=None, help="Comma-separated trade-off angles in degrees.")
@click.option("--sample/--no-sample", default=False,
              help="Add Poisson-sampled counts per angle, all drawn on one stream from --seed.")
@click.option("--mean-total", type=float, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", default=None, help="Output file (default: sweep.csv in the output dir).")
def sweep(config_path, state, thetas, sample, mean_total, seed, out) -> None:
    """Tabulate per-(angle, outcome) probabilities and flip probabilities."""
    cfg = _load_config(config_path, state=state, mean_total=mean_total, seed=seed, out=out)
    if thetas is None:
        raise click.ClickException("--thetas is required (comma-separated degrees)")
    try:
        theta_list = [float(t) for t in thetas.split(",") if t.strip()]
    except ValueError:
        raise click.ClickException(f"bad theta list {thetas!r}") from None
    if not theta_list:
        raise click.ClickException("theta list is empty")
    if any(not 0.0 <= t <= 90.0 for t in theta_list):
        raise click.ClickException("sweep angles must lie in [0, 90] degrees")
    prepared = _state_or_fail(cfg.state)
    with _usage_errors():
        grid = sweep_grid(
            prepared, theta_list, cfg.mean_total if sample else None, cfg.seed if sample else None
        )
    columns = (grid.p_theory, pbflip_grid(grid.thetas), grid.counts, grid.p_obs, grid.std_err)
    columns = [c for c in columns if c is not None]
    row_format = _SWEEP_ROW[grid.counts is not None]

    def write(fh: TextIO) -> None:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for theta, *values in zip(map(repr, grid.thetas), *(c.tolist() for c in columns)):
            rows = zip(_OUTCOME_FIELDS, *values)
            fh.write("".join([row_format % ((theta,) + row) for row in rows]))

    _write_output(_resolve_out(cfg.out, "sweep.csv"), write)


@main.command()
@click.argument("sweepfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None, help="Output file (default: stdout).")
def fit(sweepfile, out) -> None:
    """Fit the minimal-outcome line from a sweep table and report |<B>|."""
    minimal = set(MINIMAL_OUTCOMES)
    points = []
    with _usage_errors(f"{sweepfile}: "), open(sweepfile, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _SWEEP_COLUMNS[:8] if c not in header]
        if missing:
            raise click.ClickException(f"{sweepfile}: missing columns {missing}")
        # A column missing from the header, like a field missing from a row, reads as blank.
        column = {name: i for i, name in enumerate(header)}
        fields = itemgetter(*(column.get(c, len(header)) for c in _FIT_COLUMNS))
        for row in filter(None, reader):
            row += [""] * (len(header) + 1 - len(row))
            *signs, theory, flip, obs, err = fields(row)
            if tuple(map(int, signs)) in minimal:
                x = float(flip)
                points.append((x, float(obs), float(err)) if obs else (x, float(theory)))
        if len({len(p) for p in points}) > 1:
            raise click.ClickException(f"{sweepfile}: mixes sampled and exact rows")
        result = fit_bell_magnitude(points)
    report = {
        "sweep_file": str(sweepfile),
        "n_points": len(points),
        **_line_report(result),
        "bell_magnitude_std_err": result.bell_magnitude_std_err,
        "p_int_low": result.p_int_low,
        "p_int_low_std_err": result.intercept_std_err,
        "cirelson_ratio": result.bell_magnitude / CIRELSON_BOUND,
        "cirelson_ratio_std_err": result.bell_magnitude_std_err / CIRELSON_BOUND,
    }
    _write_output(Path(out) if out else None, lambda fh: _write_json(fh, report))


@main.command()
@click.option("--which", type=click.Choice(["6", "7", "8", "9"]), required=True,
              help="Preset view id.")
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]), default="csv")
@click.option("--state", default="werner:0.9716", show_default=True)
@click.option("--sample/--no-sample", default=False)
@click.option("--mean-total", type=float, default=568352.0, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--out-dir", default=None, help="Target directory (default: output dir).")
def figures(which, fmt, state, sample, mean_total, seed, out_dir) -> None:
    """Emit plot-ready data (csv) or vector graphics (svg) for a preset view."""
    prepared = _state_or_fail(state)
    directory = Path(out_dir) if out_dir else _output_dir()
    mean_total, seed = (mean_total, seed) if sample else (None, None)
    if which != "9":
        with _usage_errors():
            grid = sweep_grid(prepared, figmod.FIGURE_THETAS[int(which)], mean_total, seed)
        for theta, rows in zip(grid.thetas, figmod.distribution_rows(grid)):
            stem = directory / f"figure{which}_theta{theta:g}"
            if fmt == "csv":
                _write_output(stem.with_suffix(".csv"), lambda fh: _write_csv(fh, rows))
            else:
                svg = figmod.bars_svg(rows, f"joint distribution at theta = {theta:g} deg")
                _write_output(stem.with_suffix(".svg"), lambda fh: fh.write(svg))
        return
    with _usage_errors():
        points, result = figmod.line_points(prepared, figmod.FIT_GRID, mean_total, seed)
    if fmt == "svg":
        svg = figmod.scatter_svg(points, result, "observed probability vs flip probability")
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
        try:
            r = check()
        except Exception as exc:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            click.echo(f"FAIL  {name}: raised {type(exc).__name__}: {exc}")
            continue
        click.echo(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        passed += r.passed
    click.echo(f"{passed}/{len(selfcheck.ALL_CHECKS)} suites passed")
    if passed < len(selfcheck.ALL_CHECKS):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
