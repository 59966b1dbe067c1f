"""Tiny deterministic SVG plot writer.

Plots are conveniences for eyeballing experiment output; the CSV files
are the normative artifacts. Output is plain SVG with no timestamps or
generated ids, so files are byte-identical across runs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

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


def line_plot(path: str | Path, series: dict[str, tuple[list[float], list[float]]],
              title: str, xlabel: str, ylabel: str,
              hlines: dict[str, float] | None = None) -> None:
    """One polyline per named series; optional labelled horizontal lines."""
    xs = [x for pts in series.values() for x in pts[0]]
    ys = [y for pts in series.values() for y in pts[1]]
    if hlines:
        ys = ys + list(hlines.values())
    canvas = _Canvas(title, xlabel, ylabel, _limits(xs, 0.02), _limits(ys))
    canvas.axes()
    for i, (label, (sx, sy)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{canvas.x_px(x):.2f},{canvas.y_px(y):.2f}"
                       for x, y in zip(sx, sy))
        canvas.parts.append(f'<polyline points="{pts}" fill="none" '
                            f'stroke="{color}" stroke-width="1.5"/>')
    for label, y in (hlines or {}).items():
        py = canvas.y_px(y)
        canvas.parts.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" '
                            f'x2="{WIDTH-MARGIN_R}" y2="{py:.2f}" stroke="gray" '
                            f'stroke-dasharray="5,4"/>')
        canvas.parts.append(f'<text x="{WIDTH-MARGIN_R-4}" y="{py-4:.2f}" '
                            f'text-anchor="end" font-family="sans-serif" '
                            f'font-size="10" fill="gray">{_esc(label)}</text>')
    canvas.legend(list(series))
    Path(path).write_text(canvas.render())


def scatter_plot(path: str | Path, series: dict[str, tuple[list[float], list[float]]],
                 title: str, xlabel: str, ylabel: str,
                 hlines: dict[str, float] | None = None) -> None:
    xs = [x for pts in series.values() for x in pts[0]]
    ys = [y for pts in series.values() for y in pts[1]]
    if hlines:
        ys = ys + list(hlines.values())
    canvas = _Canvas(title, xlabel, ylabel, _limits(xs), _limits(ys))
    canvas.axes()
    for i, (label, (sx, sy)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(sx, sy):
            canvas.parts.append(f'<circle cx="{canvas.x_px(x):.2f}" '
                                f'cy="{canvas.y_px(y):.2f}" r="2.5" fill="{color}" '
                                f'fill-opacity="0.7"/>')
    for label, y in (hlines or {}).items():
        py = canvas.y_px(y)
        canvas.parts.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" '
                            f'x2="{WIDTH-MARGIN_R}" y2="{py:.2f}" stroke="gray" '
                            f'stroke-dasharray="5,4"/>')
    canvas.legend(list(series))
    Path(path).write_text(canvas.render())


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


def heatmap(path: str | Path, grid, title: str, xlabel: str, ylabel: str,
            extent: tuple[float, float, float, float]) -> None:
    """Colour-mapped cells of the 2-D array grid; grid[i, j] is the cell at
    the i-th x and the j-th y. The cells go to the file a column at a
    time. A NaN cell, or an infinite one, is a ValueError."""
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
    with open(path, "w") as fh:
        fh.write("\n".join(canvas.parts))
        for i in range(nx):
            x = f'\n<rect x="{MARGIN_L + i * cell_w:.2f}'
            fh.write("".join(f'{x}{y}{colour}"/>' for y, colour in zip(ys, colours[i])))
        canvas.parts = []       # the head is out; the axes go over the cells
        canvas.axes()
        canvas.parts.append(f'<text x="{WIDTH-MARGIN_R}" y="{MARGIN_T-6}" text-anchor="end" '
                            f'font-family="sans-serif" font-size="10">'
                            f'range [{_fmt(lo)}, {_fmt(hi)}]</text>')
        fh.write("\n" + canvas.render())
