"""Plot-ready datasets for the four preset figure views.

Views 6, 7 and 8 are per-angle sixteen-bar outcome tables (6: theta = 45;
7: theta in {0, 20, 40}; 8: theta in {50, 70, 90}).  View 9 is the scatter
of observed probability against flip probability for the four minimal
outcomes over a theta grid, together with its straight-line fit, which is
``fit``'s fit of that grid (``analysis.fit_sweep``).  Output is CSV data or
a small self-contained SVG; both are deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

from .sim import ALL_OUTCOMES, Outcome, SweepGrid, b_value
from .sim import joint_distribution  # noqa: F401  (bench/tests/test_bench.py traces this binding)
from .analysis import MINIMAL_COLUMNS, MINIMAL_OUTCOMES, FitResult, pbflip_grid

FIT_GRID: tuple[float, ...] = tuple(float(t) for t in range(0, 91, 10))

FIGURE_THETAS: dict[int, tuple[float, ...]] = {
    6: (45.0,),
    7: (0.0, 20.0, 40.0),
    8: (50.0, 70.0, 90.0),
    9: FIT_GRID,
}


def outcome_rows(**columns) -> list[dict]:
    """The sixteen report rows {x_a, y_a, x_b, y_b, b, **columns} in ALL_OUTCOMES order, each
    column a (16,) array of one value per outcome."""
    values = zip(ALL_OUTCOMES, *(c.tolist() for c in columns.values()))
    return [{**m._asdict(), "b": b_value(m), **dict(zip(columns, v))} for m, *v in values]


def distribution_rows(grid: SweepGrid) -> list[list[dict]]:
    """The sixteen outcome rows of each angle of a sweep, with sampled counts and
    count-derived probabilities when the sweep was sampled."""
    columns = {"probability": grid.p_theory, "counts": grid.counts, "p_obs": grid.p_obs}
    columns = {key: c for key, c in columns.items() if c is not None}
    return [
        [{"theta_deg": theta, **row} for row in outcome_rows(**dict(zip(columns, per_angle)))]
        for theta, *per_angle in zip(grid.thetas, *columns.values())
    ]


def line_points(grid: SweepGrid) -> list[dict]:
    """The (p_bflip, probability) points of view 9: the minimal outcomes of each angle of a
    sweep in MINIMAL_OUTCOMES order, with flip probabilities ``pbflip_grid`` of the angles."""
    columns = {"p_bflip": pbflip_grid(grid.thetas), "probability": grid.p_theory,
               "p_obs": grid.p_obs, "std_err": grid.std_err}
    columns = {key: c[:, MINIMAL_COLUMNS].tolist() for key, c in columns.items() if c is not None}
    return [
        {"theta_deg": theta, **m._asdict(), **dict(zip(columns, values))}
        for theta, *per_outcome in zip(grid.thetas, *columns.values())
        for m, *values in zip(MINIMAL_OUTCOMES, *per_outcome)
    ]


# ---------------------------------------------------------------------------
# Minimal deterministic SVG rendering (bars and scatter).
# ---------------------------------------------------------------------------

_W, _H = 640, 400
_MARGIN = 55
_BAR_FILL = {2: "#e6b800", -2: "#3a9d46"}  # b=+2 amber, b=-2 green


def _text(x, y, anchor: str, size: int, body: str, rotate: int | None = None) -> str:
    """One SVG text element at (x, y), written as given, turned ``rotate`` degrees about it."""
    turn = "" if rotate is None else f' transform="rotate({rotate} {x} {y})"'
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="{size}"{turn}>{body}</text>')


def _svg_document(body: list[str], title: str) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    return "\n".join([head, _text(_W / 2, 20, "middle", 14, title), *body, "</svg>"]) + "\n"


def _axes(x_label: str, y_label: str) -> list[str]:
    return [
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - 15}" y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_MARGIN}" y2="30" stroke="black"/>',
        _text(_W / 2, _H - 8, "middle", 12, x_label),
        _text(14, _H / 2, "middle", 12, y_label, rotate=-90),
    ]


def bars_svg(rows: list[dict]) -> str:
    values = [row.get("p_obs", row["probability"]) for row in rows]
    top = max(max(values), 1e-12)
    plot_w = _W - _MARGIN - 15
    plot_h = _H - _MARGIN - 30
    slot = plot_w / len(rows)
    body = _axes("outcome (x_A, y_A; x_B, y_B)", "probability")
    body.append(_text(_MARGIN - 5, 34, "end", 10, f"{top:.4g}"))
    for i, (row, value) in enumerate(zip(rows, values)):
        h = max(value, 0.0) / top * plot_h
        x = _MARGIN + i * slot + 0.15 * slot
        y = _H - _MARGIN - h
        label = Outcome(row["x_a"], row["y_a"], row["x_b"], row["y_b"]).label()
        body.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{0.7 * slot:.2f}" height="{h:.2f}" '
            f'fill="{_BAR_FILL[row["b"]]}"><title>{label}</title></rect>'
        )
        cx = _MARGIN + (i + 0.5) * slot
        body.append(_text(f"{cx:.2f}", _H - _MARGIN + 10, "end", 8, label, rotate=-60))
    return _svg_document(body, f"joint distribution at theta = {rows[0]['theta_deg']:g} deg")


def scatter_svg(points: list[dict], fit: FitResult) -> str:
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
        body.append(_text(f"{px(x):.2f}", _H - _MARGIN + 14, "middle", 10, label))
    for y in (y_lo, 0.0, y_hi):
        body.append(_text(_MARGIN - 5, f"{py(y):.2f}", "end", 10, f"{y:.3g}"))
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
    body.append(_text(_W - 20, 40, "end", 11,
                      f"slope {fit.slope:.5f}, intercept {fit.intercept:.5f}"))
    return _svg_document(body, "observed probability vs flip probability")
