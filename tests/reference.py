"""Slow reference implementations that the package's fast paths are tested
against: a gate-by-gate density-matrix simulator for the closed-form batch
kernel, and cell-by-cell CSV and heatmap writers for the columnar ones.
"""

import csv
import io

import numpy as np

from parvqe import svgplot
from parvqe.circuits import NativeCircuit, gate_matrix
from parvqe.simulator import NOISELESS, PairNoiseSpec

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = -1e-10


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise if rho is not Hermitian, unit-trace and positive (within tolerance)."""
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < EIGENVALUE_TOL:
        raise ValueError("density matrix has a negative eigenvalue")


def depolarize(rho: np.ndarray, p: float) -> np.ndarray:
    """Two-qubit depolarizing channel rho -> (1-p) rho + p I/4."""
    return (1.0 - p) * rho + p * np.eye(4) / 4.0


def run_circuit(circuit: NativeCircuit, noise: PairNoiseSpec = NOISELESS,
                crosstalk_active: bool = False) -> np.ndarray:
    """Simulate the circuit on |00><00| and return the final density matrix.

    Gates are applied as exact conjugations; the depolarizing event fires
    immediately after the CZ with probability depol_p (plus crosstalk_p if
    the caller flags a simultaneously active neighbouring pair). Readout
    error is not applied here; it belongs to the measurement step.
    """
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    p_eff = noise.effective_p(crosstalk_active)
    for gate in circuit.gates:
        u = gate_matrix(gate)
        rho = u @ rho @ u.conj().T
        if gate.kind == "CZ" and p_eff > 0.0:
            rho = depolarize(rho, p_eff)
    return rho


def csv_text(header, rows) -> str:
    """The CSV file csv.writer writes for the rows, floats as repr, None as
    an empty cell and anything else as str."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


def gradient_color(frac: float) -> str:
    """Interpolated colour from the fixed 8-stop gradient, frac in [0, 1]."""
    stops = svgplot._GRADIENT
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    w = pos - i
    rgb = [round((1 - w) * a + w * b) for a, b in zip(stops[i], stops[i + 1])]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap_svg(grid, title, xlabel, ylabel, extent) -> str:
    """The heatmap SVG of a nested list grid[i][j], one cell at a time."""
    W, H = svgplot.WIDTH, svgplot.HEIGHT
    nx, ny = len(grid), len(grid[0])
    flat = [v for row in grid for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0
    canvas = svgplot._Canvas(title, xlabel, ylabel, (extent[0], extent[1]),
                             (extent[2], extent[3]))
    cell_w = (W - svgplot.MARGIN_L - svgplot.MARGIN_R) / nx
    cell_h = (H - svgplot.MARGIN_T - svgplot.MARGIN_B) / ny
    for i in range(nx):
        for j in range(ny):
            color = gradient_color((grid[i][j] - lo) / span)
            x = svgplot.MARGIN_L + i * cell_w
            y = H - svgplot.MARGIN_B - (j + 1) * cell_h
            canvas.parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                                f'width="{cell_w+0.5:.2f}" height="{cell_h+0.5:.2f}" '
                                f'fill="{color}"/>')
    canvas.axes()
    canvas.parts.append(f'<text x="{W-svgplot.MARGIN_R}" y="{svgplot.MARGIN_T-6}" '
                        f'text-anchor="end" font-family="sans-serif" font-size="10">'
                        f'range [{svgplot._fmt(lo)}, {svgplot._fmt(hi)}]</text>')
    return canvas.render()
