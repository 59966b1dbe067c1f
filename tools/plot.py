"""Render the SVG plots of one parvqe run from its CSV tables.

    python tools/plot.py RUN_DIR

RUN_DIR is the output directory of one parvqe command. The tool reads its
record.json (the command and the metrics the titles quote) and the CSVs
that command wrote, and writes into RUN_DIR the SVGs of that command's
entry in PLOTS. Every plot is rendered before the first file is written:
a run directory without record.json, an unknown command or a missing or
unreadable CSV exits with status 2 and writes nothing.

The plots are conveniences for eyeballing a run; the CSVs are the
normative output. Each SVG is plain text with no timestamps or generated
ids, and the CSVs hold every float as its repr, so the same tables give
the same SVG bytes every time.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from parvqe.hubbard import exact_ground_energy

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

# 8-stop viridis-like gradient (dark blue -> yellow)
_GRADIENT = [
    (68, 1, 84), (70, 50, 127), (54, 92, 141), (39, 127, 142),
    (31, 161, 135), (74, 194, 109), (159, 218, 58), (253, 231, 37),
]


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.parts: list[str] = []
        self.xlim, self.ylim = xlim, ylim
        self.parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        self.parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        self.parts.append(
            f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>')
        self.parts.append(
            f'<text x="{WIDTH/2:.1f}" y="{HEIGHT-10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_esc(xlabel)}</text>')
        self.parts.append(
            f'<text x="16" y="{HEIGHT/2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT/2:.1f})">{_esc(ylabel)}</text>')

    def x_px(self, x: float) -> float:
        lo, hi = self.xlim
        span = (hi - lo) or 1.0
        return MARGIN_L + (x - lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y_px(self, y: float) -> float:
        lo, hi = self.ylim
        span = (hi - lo) or 1.0
        return HEIGHT - MARGIN_B - (y - lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def axes(self):
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(f'<path d="M{x0} {y1} L{x0} {y0} L{x1} {y0}" '
                          f'stroke="black" fill="none"/>')
        for t in _ticks(*self.xlim):
            px = self.x_px(t)
            self.parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                              f'y2="{y0+4}" stroke="black"/>')
            self.parts.append(f'<text x="{px:.1f}" y="{y0+16}" text-anchor="middle" '
                              f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')
        for t in _ticks(*self.ylim):
            py = self.y_px(t)
            self.parts.append(f'<line x1="{x0-4}" y1="{py:.1f}" x2="{x0}" '
                              f'y2="{py:.1f}" stroke="black"/>')
            self.parts.append(f'<text x="{x0-6}" y="{py+3:.1f}" text-anchor="end" '
                              f'font-family="sans-serif" font-size="10">{_fmt(t)}</text>')

    def legend(self, labels: list[str]):
        for i, label in enumerate(labels):
            y = MARGIN_T + 14 + 14 * i
            x = WIDTH - MARGIN_R - 150
            color = PALETTE[i % len(PALETTE)]
            self.parts.append(f'<line x1="{x}" y1="{y-4}" x2="{x+18}" y2="{y-4}" '
                              f'stroke="{color}" stroke-width="2"/>')
            self.parts.append(f'<text x="{x+22}" y="{y}" font-family="sans-serif" '
                              f'font-size="11">{_esc(label)}</text>')

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _limits(values, pad=0.05):
    vals = [v for v in values if v is not None and math.isfinite(v)]
    if not vals:
        return (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    return lo - pad * span, hi + pad * span


def xy_plot(series: dict[str, tuple[list[float], list[float]]], title: str, xlabel: str,
            ylabel: str, hlines: dict[str, float] | None = None, dots: bool = False) -> str:
    """One polyline per named series, x padded by 2 %, with labelled
    horizontal lines; or with dots, one set of dots per series, x padded
    by 5 %, and the horizontal lines unlabelled."""
    hlines = hlines or {}
    xs = [x for pts in series.values() for x in pts[0]]
    ys = [y for pts in series.values() for y in pts[1]] + list(hlines.values())
    canvas = _Canvas(title, xlabel, ylabel, _limits(xs, 0.05 if dots else 0.02), _limits(ys))
    canvas.axes()
    for i, (sx, sy) in enumerate(series.values()):
        color = PALETTE[i % len(PALETTE)]
        pts = [(canvas.x_px(x), canvas.y_px(y)) for x, y in zip(sx, sy)]
        if dots:
            canvas.parts.extend(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}" '
                                f'fill-opacity="0.7"/>' for px, py in pts)
        else:
            line = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            canvas.parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                                f'stroke-width="1.5"/>')
    for label, y in hlines.items():
        py = canvas.y_px(y)
        canvas.parts.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" '
                            f'x2="{WIDTH-MARGIN_R}" y2="{py:.2f}" stroke="gray" '
                            f'stroke-dasharray="5,4"/>')
        if not dots:
            canvas.parts.append(f'<text x="{WIDTH-MARGIN_R-4}" y="{py-4:.2f}" '
                                f'text-anchor="end" font-family="sans-serif" '
                                f'font-size="10" fill="gray">{_esc(label)}</text>')
    canvas.legend(list(series))
    return canvas.render()


def gradient_colors(frac: np.ndarray) -> np.ndarray:
    """'#rrggbb' colours interpolated from the fixed 8-stop gradient at each
    fraction, clipped to [0, 1]; channels round half to even, as round()
    does, and each distinct colour is formatted once."""
    stops = np.array(_GRADIENT)
    pos = np.clip(frac, 0.0, 1.0) * (len(_GRADIENT) - 1)
    i = np.minimum(pos.astype(np.int64), len(_GRADIENT) - 2)
    w = (pos - i)[..., None]
    rgb = np.round((1 - w) * stops[i] + w * stops[i + 1]).astype(np.int64)
    packed = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    distinct, inverse = np.unique(packed.ravel(), return_inverse=True)
    text = np.array([f"#{c:06x}" for c in distinct.tolist()], dtype=object)
    return text[inverse.ravel()].reshape(packed.shape)


def heatmap(grid, title: str, xlabel: str, ylabel: str,
            extent: tuple[float, float, float, float]) -> str:
    """Colour-mapped cells of the 2-D array grid; grid[i, j] is the cell at
    the i-th x and the j-th y. A NaN cell, or an infinite one, is a
    ValueError."""
    grid = np.asarray(grid, dtype=float)
    nx, ny = grid.shape
    flat = grid.ravel()
    # the first extreme in row-major order, as min() and max() pick it
    lo, hi = flat[flat.argmin()].item(), flat[flat.argmax()].item()
    with np.errstate(invalid="ignore"):
        frac = (grid - lo) / ((hi - lo) or 1.0)
    if np.isnan(frac).any():
        raise ValueError("heatmap cells must be finite")
    colours = gradient_colors(frac)
    canvas = _Canvas(title, xlabel, ylabel, (extent[0], extent[1]), (extent[2], extent[3]))
    cell_w = (WIDTH - MARGIN_L - MARGIN_R) / nx
    cell_h = (HEIGHT - MARGIN_T - MARGIN_B) / ny
    size = f'width="{cell_w+0.5:.2f}" height="{cell_h+0.5:.2f}" fill="'
    ys = [f'" y="{HEIGHT - MARGIN_B - (j + 1) * cell_h:.2f}" {size}' for j in range(ny)]
    xs = [f'\n<rect x="{MARGIN_L + i * cell_w:.2f}' for i in range(nx)]
    head = "\n".join(canvas.parts)
    cells = "".join(f'{x}{y}{colour}"/>' for x, column in zip(xs, colours)
                    for y, colour in zip(ys, column))
    canvas.parts = []       # the head is done; the axes go over the cells
    canvas.axes()
    canvas.parts.append(f'<text x="{WIDTH-MARGIN_R}" y="{MARGIN_T-6}" text-anchor="end" '
                        f'font-family="sans-serif" font-size="10">'
                        f'range [{_fmt(lo)}, {_fmt(hi)}]</text>')
    return head + cells + "\n" + canvas.render()


# --- one spec per command: its run's tables -> {SVG name: SVG text} ---------------

LEVELS = ("raw", "ni", "tflo", "tflo_ni")


def _benchmark_pairs(record, table):
    indiv, sweep = table("individual_pairs.csv"), table("parallel_sweep.csv")
    return {
        "individual_pairs.svg": xy_plot(
            {m: (indiv["fidelity"], indiv[f"e_{m}"]) for m in LEVELS},
            "energy vs CZ fidelity (individual pairs)", "CZ fidelity", "energy",
            {"exact ground": record["metrics"]["exact_ground_energy"]}, dots=True),
        "parallel_sweep.svg": xy_plot(
            {m: (sweep["p"], sweep[f"mean_abs_err_{m}"]) for m in LEVELS},
            "mean |error| vs pairs in parallel", "pairs in parallel", "mean |error|"),
    }


def _heatmap(record, table):
    n = record["metrics"]["grid"]
    exact, simulated = table("heatmap_exact.csv"), table("heatmap_simulated.csv")
    panels = (("exact", exact["e_exact"], "exact energy landscape"),
              ("simulated", simulated["e_corrected"], "simulated energy landscape"),
              ("error", simulated["abs_err"], "absolute error"))
    return {f"heatmap_{name}.svg": heatmap(np.reshape(values, (n, n)), title, "phi", "theta",
                                           (-math.pi, math.pi, -math.pi, math.pi))
            for name, values, title in panels}


def _vqe(record, table):
    trace, metrics = table("trace_rep0.csv"), record["metrics"]
    its = trace["iteration"]
    return {"trace_rep0.svg": xy_plot(
        {"estimate": (its, trace["e_ni"]), "raw": (its, trace["e_raw"]),
         "exact at params": (its, trace["e_exact"])},
        f"{metrics['optimizer']} on {metrics['pairs']} pair(s)", "iteration", "energy",
        {"exact ground": metrics["exact_ground_energy"]})}


def _speedup_sweep(record, table):
    sweep = table("speedup_sweep.csv")
    return {"speedup_sweep.svg": xy_plot(
        {name: (sweep["p"], sweep[f"{name}_speedup"]) for name in ("spsa", "mgd")},
        "modelled speedup vs pairs", "pairs in parallel", "speedup")}


def _shots_sweep(record, table):
    # the ground energy is not in shots-sweep's record: it comes from the oracle
    traces = {shots: table(f"trace_shots{shots}.csv")
              for shots in record["config"]["shots_list"]}
    return {"shots_sweep.svg": xy_plot(
        {f"{shots} shots": (t["iteration"], t["e_exact"]) for shots, t in traces.items()},
        f"SPSA on {record['metrics']['pairs']} pairs: exact energy at iterates",
        "iteration", "exact energy", {"exact ground": exact_ground_energy()})}


def _optimizer_compare(record, table):
    summary = table("compare_summary.csv")
    rows = list(zip(summary["optimizer"], summary["p"], summary["median_abs_err"]))
    return {"compare_summary.svg": xy_plot(
        {name: ([p for o, p, _ in rows if o == name], [e for o, _, e in rows if o == name])
         for name in ("spsa", "mgd")},
        "median final |error| vs pairs", "pairs in parallel", "median |error|")}


PLOTS = {"benchmark-pairs": _benchmark_pairs, "heatmap": _heatmap, "vqe": _vqe,
         "speedup-sweep": _speedup_sweep, "shots-sweep": _shots_sweep,
         "optimizer-compare": _optimizer_compare}


class PlotError(Exception):
    """A run directory the tool cannot plot."""


class _Table(dict):
    """A CSV's text columns by header name. Indexing one parses it, as
    floats or else as names, so the columns no plot reads stay text."""

    def __getitem__(self, name: str) -> list:
        texts = dict.__getitem__(self, name)
        try:
            return list(map(float, texts))
        except ValueError:
            return list(texts)


def read_table(path: Path) -> _Table:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return _Table(zip(header, zip(*rows)))


def render(run_dir: Path) -> dict[str, str]:
    """{SVG name: SVG text} of every plot of the run in run_dir."""
    try:
        record = json.loads((run_dir / "record.json").read_text())
        spec = PLOTS.get(record["command"])
        if spec is None:
            raise PlotError(f"unknown command {record['command']!r} in "
                            f"{run_dir / 'record.json'}")
        return spec(record, lambda name: read_table(run_dir / name))
    except (OSError, ValueError, LookupError, csv.Error) as exc:
        raise PlotError(f"cannot plot {run_dir}: {type(exc).__name__}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path, help="the output directory of one parvqe run")
    run_dir = parser.parse_args(argv).run_dir
    try:
        plots = render(run_dir)
    except PlotError as exc:
        print(f"plot.py: {exc}", file=sys.stderr)
        return 2
    for name, text in plots.items():
        (run_dir / name).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
