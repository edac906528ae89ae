"""Plot-ready datasets for the four preset figure views.

Views 6, 7 and 8 are per-angle sixteen-bar outcome tables (6: theta = 45;
7: theta in {0, 20, 40}; 8: theta in {50, 70, 90}).  View 9 is the scatter
of observed probability against flip probability for the four minimal
outcomes over a theta grid, together with its straight-line fit.  Output is
CSV data or a small self-contained SVG; both are deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

from .core import TwoQubitState
from .sim import ALL_OUTCOMES, Outcome, SweepGrid, b_value, sweep_grid
from .sim import joint_distribution  # noqa: F401  (bench/tests/test_bench.py traces this binding)
from .analysis import MINIMAL_COLUMNS, MINIMAL_OUTCOMES, FitResult, fit_bell_magnitude, pbflip_grid

FIGURE_THETAS: dict[int, tuple[float, ...]] = {
    6: (45.0,),
    7: (0.0, 20.0, 40.0),
    8: (50.0, 70.0, 90.0),
}

FIT_GRID: tuple[float, ...] = tuple(float(t) for t in range(0, 91, 10))


def distribution_rows(grid: SweepGrid) -> list[list[dict]]:
    """The sixteen outcome rows of each angle of a sweep, with sampled counts and
    count-derived probabilities when the sweep was sampled."""
    columns = {"probability": grid.p_theory, "counts": grid.counts, "p_obs": grid.p_obs}
    columns = {key: c.tolist() for key, c in columns.items() if c is not None}
    return [
        [
            {"theta_deg": theta, **m._asdict(), "b": b_value(m), **dict(zip(columns, values))}
            for m, *values in zip(ALL_OUTCOMES, *per_outcome)
        ]
        for theta, *per_outcome in zip(grid.thetas, *columns.values())
    ]


def line_points(
    state: TwoQubitState,
    mean_total: float | None = None,
    seed: int | None = None,
) -> tuple[list[dict], FitResult]:
    """(p_bflip, probability) points for the minimal outcomes over FIT_GRID plus their
    straight-line fit (view 9)."""
    grid = sweep_grid(state, FIT_GRID, mean_total, seed)
    columns = {"p_bflip": pbflip_grid(grid.thetas), "probability": grid.p_theory,
               "p_obs": grid.p_obs, "std_err": grid.std_err}
    columns = {key: c[:, MINIMAL_COLUMNS] for key, c in columns.items() if c is not None}
    points = [
        {"theta_deg": theta, **m._asdict(), **dict(zip(columns, values))}
        for theta, *per_outcome in zip(grid.thetas, *(c.tolist() for c in columns.values()))
        for m, *values in zip(MINIMAL_OUTCOMES, *per_outcome)
    ]
    flips = columns["p_bflip"].ravel()
    if grid.counts is None:
        return points, fit_bell_magnitude(flips, columns["probability"].ravel())
    if not columns["std_err"].all():
        i, j = divmod(int(columns["std_err"].argmin()), len(MINIMAL_OUTCOMES))
        raise ValueError(f"outcome {MINIMAL_OUTCOMES[j].label()} at theta_deg {grid.thetas[i]!r} "
                         "has 0 counts, so its std_err is 0")
    return points, fit_bell_magnitude(flips, columns["p_obs"].ravel(), columns["std_err"].ravel())


# ---------------------------------------------------------------------------
# Minimal deterministic SVG rendering (bars and scatter).
# ---------------------------------------------------------------------------

_W, _H = 640, 400
_MARGIN = 55
_BAR_FILL = {2: "#e6b800", -2: "#3a9d46"}  # b=+2 amber, b=-2 green


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities: ``html.escape(text, quote=False)``
    without importing the entity tables of ``html``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_document(body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    caption = (
        f'<text x="{_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
    )
    return "\n".join([head, caption, *body, "</svg>"]) + "\n"


def _axes(x_label: str, y_label: str) -> list[str]:
    return [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 15}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_MARGIN}" y2="30" stroke="black"/>',
        f'<text x="{_W / 2}" y="{_H - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>',
        f'<text x="14" y="{_H / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_H / 2})">{_escape(y_label)}</text>',
    ]


def bars_svg(rows: list[dict], title: str) -> str:
    values = [row.get("p_obs", row["probability"]) for row in rows]
    top = max(max(values), 1e-12)
    plot_w = _W - _MARGIN - 15
    plot_h = _H - _MARGIN - 30
    slot = plot_w / len(rows)
    body = _axes("outcome (x_A, y_A; x_B, y_B)", "probability")
    body.append(
        f'<text x="{_MARGIN - 5}" y="34" text-anchor="end" font-family="sans-serif" '
        f'font-size="10">{top:.4g}</text>'
    )
    for i, (row, value) in enumerate(zip(rows, values)):
        h = max(value, 0.0) / top * plot_h
        x = _MARGIN + i * slot + 0.15 * slot
        y = _H - _MARGIN - h
        label = Outcome(row["x_a"], row["y_a"], row["x_b"], row["y_b"]).label()
        body.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{0.7 * slot:.2f}" height="{h:.2f}" '
            f'fill="{_BAR_FILL[row["b"]]}"><title>{_escape(label)}</title></rect>'
        )
        cx = _MARGIN + (i + 0.5) * slot
        body.append(
            f'<text x="{cx:.2f}" y="{_H - _MARGIN + 10}" text-anchor="end" '
            f'font-family="sans-serif" font-size="8" '
            f'transform="rotate(-60 {cx:.2f} {_H - _MARGIN + 10})">{_escape(label)}</text>'
        )
    return _svg_document(body, title)


def scatter_svg(points: list[dict], fit: FitResult, title: str) -> str:
    xs = [p["p_bflip"] for p in points]
    ys = [p.get("p_obs", p["probability"]) for p in points]
    x_lo, x_hi = 0.0, max(xs) * 1.05
    y_lo, y_hi = min(0.0, min(ys), fit.intercept) * 1.1, max(ys) * 1.1
    plot_w = _W - _MARGIN - 15
    plot_h = _H - _MARGIN - 30

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    body = _axes("p_bflip", "probability")
    for x, label in ((x_lo, f"{x_lo:.2g}"), (x_hi, f"{x_hi:.3g}")):
        body.append(
            f'<text x="{px(x):.2f}" y="{_H - _MARGIN + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_escape(label)}</text>'
        )
    for y in (y_lo, 0.0, y_hi):
        body.append(
            f'<text x="{_MARGIN - 5}" y="{py(y):.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y:.3g}</text>'
        )
    if y_lo < 0.0 < y_hi:
        body.append(
            f'<line x1="{_MARGIN}" y1="{py(0.0):.2f}" x2="{_W - 15}" y2="{py(0.0):.2f}" '
            f'stroke="#999999" stroke-dasharray="4 3"/>'
        )
    body.append(
        f'<line x1="{px(x_lo):.2f}" y1="{py(fit.intercept + fit.slope * x_lo):.2f}" '
        f'x2="{px(x_hi):.2f}" y2="{py(fit.intercept + fit.slope * x_hi):.2f}" '
        f'stroke="#1f5bd8" stroke-width="1.5"/>'
    )
    for x, y in zip(xs, ys):
        body.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="#c03028"/>')
    body.append(
        f'<text x="{_W - 20}" y="40" text-anchor="end" font-family="sans-serif" '
        f'font-size="11">slope {fit.slope:.5f}, intercept {fit.intercept:.5f}</text>'
    )
    return _svg_document(body, title)
