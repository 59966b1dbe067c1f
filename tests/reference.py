"""Slow reference implementations that the package's fast paths are tested
against: a gate-by-gate density-matrix simulator and the unsplit closed
form for the batch kernel, the dense Hungarian method for the sparse
assignment behind pair matching, a one-pair energy estimator for the columnar
one, a one-pair confusion measurement for the stacked one, a one-repeat
surrogate fit for the batched one, the stacked-design surrogate fit and
the per-call shot broadcast estimate for the in-place fit and the
plan-broadcast estimate, the per-step SPSA loop that reads full Estimates
every step for the lockstep core that reads only values, cell-by-cell CSV and heatmap writers
for the columnar ones (the heatmap's is in tools/plot.py, loaded here as
`plot`), a csv.writer serializer for an optimizer trace's CSV, and a
dataclasses twin of every record class. It also holds the per-pair noise
helpers that only tests call: a topology edge's PairNoiseSpec and its
CZ's depolarizing probability, with and without crosstalk.
"""

import csv
import dataclasses
import io

import numpy as np

from conftest import load_tool
from parvqe import circuits, device, executor, harness, hubbard, mitigation, optimizers
from parvqe import simulator
from parvqe.circuits import NativeCircuit, gate_matrix
from parvqe.executor import Estimates, setting_coefficients
from parvqe.hubbard import HubbardParams
from parvqe.mitigation import CONDITION_LIMIT, ConfusionMatrix, IllConditionedConfusion
from parvqe.optimizers import N_SURROGATE_FEATURES, UnderDeterminedFit
from parvqe.simulator import NOISELESS, PairNoiseSpec, ShotHistogram, fidelity_to_depolarizing

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = -1e-10

plot = load_tool("plot")


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


def depol_p(noise: PairNoiseSpec) -> float:
    """Depolarizing probability of the pair's CZ."""
    return float(fidelity_to_depolarizing(noise.cz_fidelity))


def effective_p(noise: PairNoiseSpec, crosstalk_active: bool = False) -> float:
    """Depolarizing probability of the CZ, plus crosstalk_p (capped at
    1) when a neighbouring pair is active in the same batch."""
    if crosstalk_active:
        return min(depol_p(noise) + noise.crosstalk_p, 1.0)
    return depol_p(noise)


def noise_spec_for_pair(topology: device.DeviceTopology, pair: device.Pair,
                        crosstalk_p: float = 0.0) -> PairNoiseSpec:
    """Noise channel parameters for one edge: CZ fidelity plus the two
    endpoints' readout rates (DeviceTopology.pair_readout)."""
    return PairNoiseSpec(cz_fidelity=topology.fidelity(pair),
                         readout=topology.pair_readout(pair), crosstalk_p=crosstalk_p)


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
    p_eff = effective_p(noise, crosstalk_active)
    for gate in circuit.gates:
        u = gate_matrix(gate)
        rho = u @ rho @ u.conj().T
        if gate.kind == "CZ" and p_eff > 0.0:
            rho = depolarize(rho, p_eff)
    return rho


def batch_distributions(phi: np.ndarray, theta: np.ndarray, p: np.ndarray,
                        confusion: np.ndarray) -> np.ndarray:
    """The closed-form kernel in one piece: confusion @ ((1-p) ideal + p/4),
    the ideal distributions filled in entry by entry (onsite [a, 1/2 - a,
    1/2 - a, a], hopping [cos^2 phi, 0, 0, sin^2 phi])."""
    a = 0.25 * (1.0 + np.sin(4.0 * theta) * np.sin(2.0 * phi))
    ideal = np.zeros((len(phi), 2, 4))
    ideal[:, 0, 0] = ideal[:, 0, 3] = a
    ideal[:, 0, 1] = ideal[:, 0, 2] = 0.5 - a
    ideal[:, 1, 0] = np.cos(phi) ** 2
    ideal[:, 1, 3] = np.sin(phi) ** 2
    p = p[:, None, None]
    mixed = (1.0 - p) * ideal + p / 4.0
    return np.einsum("nij,nkj->nki", confusion, mixed)


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of an (m, n) matrix,
    m <= n, where np.inf marks a forbidden cell and every row has a finite
    one. The Hungarian method in its shortest-augmenting-path form: each row
    in turn is added by a Dijkstra search over reduced costs, keeping row
    and column potentials; the inner loop runs over all columns at once."""
    m, n = cost.shape
    u = np.zeros(m)
    v = np.zeros(n + 1)
    owner = np.full(n + 1, -1)     # row holding each column; column n is the search root
    for i in range(m):
        owner[n] = i
        j0 = n
        dist = np.full(n, np.inf)
        via = np.full(n, n)
        done = np.zeros(n + 1, dtype=bool)
        while owner[j0] != -1:
            done[j0] = True
            i0 = owner[j0]
            reduced = cost[i0] - u[i0] - v[:n]
            closer = ~done[:n] & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = j0
            frontier = np.where(done[:n], np.inf, dist)
            j0 = int(np.argmin(frontier))
            delta = frontier[j0]
            u[owner[done]] += delta
            v[done] -= delta
            dist[~done[:n]] -= delta
        while j0 != n:             # flip the augmenting path back to the root
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    assigned = np.empty(m, dtype=int)
    held = np.flatnonzero(owner[:n] >= 0)
    assigned[owner[held]] = held
    return assigned


def _as_distribution(measured) -> tuple[np.ndarray, int | None]:
    if measured is None:
        raise ValueError("both measurement settings are required")
    if isinstance(measured, ShotHistogram):
        return measured.frequencies(), measured.shots
    arr = np.asarray(measured, dtype=float)
    if arr.shape != (4,):
        raise ValueError(f"expected a length-4 distribution, got shape {arr.shape}")
    return arr, None


def _plugin_variance(coeffs: np.ndarray, freqs: np.ndarray, shots: int) -> float:
    """The plug-in variance of one setting, 0 within rounding of zero (at
    most 1e-14 of the second moment)."""
    mean = float(coeffs @ freqs)
    second = float((coeffs ** 2) @ freqs)
    var = second - mean ** 2
    return var / shots if var > 1e-14 * second else 0.0


def estimate_energy(onsite, hopping, h: HubbardParams = HubbardParams(),
                    confusion: ConfusionMatrix | None = None) -> Estimates:
    """Combine the two settings' distributions into an energy estimate, an
    Estimates of floats (raw is the estimate before readout inversion).

    value = (u/2) (1 + <ZZ>) - t (<X(x)I> + <I(x)X>) under the frozen
    sign map. Inputs are ShotHistograms or plain probability vectors
    (exact-expectation mode, std_err = 0). With a confusion matrix the
    distributions are noise-inverted first and the standard error is
    propagated through the inversion.
    """
    p_on, shots_on = _as_distribution(onsite)
    p_hop, shots_hop = _as_distribution(hopping)
    if (shots_on is None) != (shots_hop is None):
        raise ValueError("cannot mix exact distributions with histograms")
    if shots_on is not None and shots_on != shots_hop:
        raise ValueError(f"shot mismatch between settings: {shots_on} vs {shots_hop}")

    c_on, c_hop = setting_coefficients(h)

    def combine(con, chop):
        return h.u / 2.0 + float(con @ p_on) + float(chop @ p_hop)

    raw = combine(c_on, c_hop)
    if confusion is None:
        value, eff_on, eff_hop = raw, c_on, c_hop
    else:
        eff_on = confusion.inverse.T @ c_on
        eff_hop = confusion.inverse.T @ c_hop
        value = combine(eff_on, eff_hop)

    if shots_on is None:
        std_err = 0.0
    else:
        var = _plugin_variance(eff_on, p_on, shots_on) \
            + _plugin_variance(eff_hop, p_hop, shots_hop)
        std_err = float(np.sqrt(var))
    return Estimates(value=value, std_err=std_err, raw=raw)


def measure_confusion(noise: PairNoiseSpec, shots: int | None,
                      stream: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """One pair's confusion matrix and its inverse, measured and checked on
    its own: one multinomial per basis-state column on stream (the exact
    map with shots=None), then the matrix's own checks, condition number
    and inverse. Raises ValueError or IllConditionedConfusion on a matrix
    that fails a check."""
    exact = noise.confusion_map()
    matrix = exact if shots is None else np.column_stack(
        [stream.multinomial(shots, exact[:, j]) / shots for j in range(4)])
    if np.any(matrix < -1e-12) or np.any(matrix > 1.0 + 1e-12):
        raise ValueError("confusion entries must lie in [0, 1]")
    if np.max(np.abs(matrix.sum(axis=0) - 1.0)) > 1e-9:
        raise ValueError("confusion columns must sum to 1")
    cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedConfusion(f"condition number {cond:.3g}")
    return matrix, np.linalg.inv(matrix)


def fit_surrogate(offsets: np.ndarray, values: np.ndarray, weights: np.ndarray,
                  ridge: float) -> np.ndarray:
    """One repeat's quadratic surrogate: (m, 2) offsets, (m,) values and
    weights, a scalar ridge; returns its 6 coefficients."""
    design = np.column_stack([
        np.ones(len(offsets)), offsets[:, 0], offsets[:, 1],
        offsets[:, 0] ** 2, offsets[:, 0] * offsets[:, 1], offsets[:, 1] ** 2,
    ])
    wx = design * weights[:, None]
    normal = wx.T @ design + ridge * np.eye(N_SURROGATE_FEATURES)
    if ridge == 0.0 and np.linalg.matrix_rank(normal) < N_SURROGATE_FEATURES:
        raise UnderDeterminedFit(
            f"{len(offsets)} points cannot determine {N_SURROGATE_FEATURES} "
            "surrogate coefficients without regularisation")
    return np.linalg.solve(normal, wx.T @ values)


def stacked_fit_surrogate(offsets: np.ndarray, values: np.ndarray, weights: np.ndarray,
                          ridge: np.ndarray) -> np.ndarray:
    """The batched surrogate fit with its (R, m, 6) design stacked from six
    column arrays and a fresh identity for the ridge; optimizers'
    _fit_surrogate, which writes its design in place, takes the same
    arguments and must return the same bits."""
    x, y = offsets[..., 0], offsets[..., 1]
    design = np.stack([np.ones_like(x), x, y, x ** 2, x * y, y ** 2], axis=-1)
    wx_t = (design * weights[..., None]).transpose(0, 2, 1)
    normal = wx_t @ design + ridge[:, None, None] * np.eye(N_SURROGATE_FEATURES)
    unregularised = ridge == 0.0
    if unregularised.any() and np.any(
            np.linalg.matrix_rank(normal[unregularised]) < N_SURROGATE_FEATURES):
        raise UnderDeterminedFit(
            f"{offsets.shape[1]} points cannot determine {N_SURROGATE_FEATURES} "
            "surrogate coefficients without regularisation")
    return np.linalg.solve(normal, wx_t @ values[..., None])[..., 0]


def estimate_rows(offset: float, raw_coeffs: np.ndarray | None, coeffs: np.ndarray,
                  coeffs_sq: np.ndarray, shots: np.ndarray, counts: np.ndarray) -> Estimates:
    """The columnar estimate of n rows with their shots as an (n,) array,
    broadcast over the counts on each call; executor's _estimate, which
    reads a plan's (n, 1, 1) broadcast, must return the same bits."""
    freqs = counts / shots[:, None, None]
    mean = np.einsum("nkj,nkj->nk", coeffs, freqs)
    second = np.einsum("nkj,nkj->nk", coeffs_sq, freqs)
    value = offset + mean.sum(axis=1)
    var = second - mean ** 2
    std_err = np.sqrt(np.where(var > 1e-14 * second, var, 0.0).sum(axis=1) / shots)
    raw = value if raw_coeffs is None else offset + np.einsum("kj,nkj->n", raw_coeffs, freqs)
    return Estimates(value=value, std_err=std_err, raw=raw)


def spsa_lockstep(cfg, evaluate, starts, streams, exact):
    """One-stage SPSA on R repeats in lockstep, each step reading the full
    Estimates of evaluate(points) into per-step arrays: the core's loop
    before its steps read only values."""
    repeats, steps = len(starts), cfg.iterations
    directions = optimizers._SIGNS[np.array([stream.integers(0, 2, size=(steps, 2))
                                             for stream in streams],
                                            dtype=int).reshape(repeats, steps, 2)]
    batch = np.empty((steps, repeats, 3, 2))
    values, std_err = np.empty((steps, 2, repeats, 3)), np.empty((steps, repeats, 3))
    centres = np.empty((steps + 1, repeats, 2))
    centres[0] = [[s.phi, s.theta] for s in starts]
    gains = [cfg.gains(k) for k in range(1, steps + 1)]
    shifts = np.array([c_k for _, c_k in gains])[:, None] * directions
    for k, (a_k, c_k) in enumerate(gains):
        delta, theta, points = directions[:, k], centres[k], batch[k]
        points[:, 0] = theta
        np.add(theta, shifts[:, k], out=points[:, 1])
        np.subtract(theta, shifts[:, k], out=points[:, 2])
        est = evaluate(points)
        values[k, 0], std_err[k], values[k, 1] = est
        e_diff = est.value[:, 1] - est.value[:, 2]
        grad = (e_diff / (2.0 * c_k))[:, None] * delta   # 1/delta_i == delta_i
        np.subtract(theta, a_k * grad, out=centres[k + 1])
    return optimizers._traces(batch, Estimates(values[:, 0], std_err, values[:, 1]), centres,
                              values[:, 0, :, 0], values[:, 1, :, 0], exact)


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


TRACE_HEADER = ("iteration", "phi", "theta", "e_raw", "e_ni", "e_exact")


def trace_csv(trace) -> str:
    """An OptTrace's CSV, row by row from its records through csv.writer."""
    return csv_text(TRACE_HEADER, trace.records)


def gradient_color(frac: float) -> str:
    """Interpolated colour from the fixed 8-stop gradient, frac in [0, 1]."""
    stops = plot._GRADIENT
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    w = pos - i
    rgb = [round((1 - w) * a + w * b) for a, b in zip(stops[i], stops[i + 1])]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def heatmap_svg(grid, title, xlabel, ylabel, extent) -> str:
    """The heatmap SVG of a nested list grid[i][j], one cell at a time."""
    W, H = plot.WIDTH, plot.HEIGHT
    nx, ny = len(grid), len(grid[0])
    flat = [v for row in grid for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0
    canvas = plot._Canvas(title, xlabel, ylabel, (extent[0], extent[1]),
                          (extent[2], extent[3]))
    cell_w = (W - plot.MARGIN_L - plot.MARGIN_R) / nx
    cell_h = (H - plot.MARGIN_T - plot.MARGIN_B) / ny
    for i in range(nx):
        for j in range(ny):
            color = gradient_color((grid[i][j] - lo) / span)
            x = plot.MARGIN_L + i * cell_w
            y = H - plot.MARGIN_B - (j + 1) * cell_h
            canvas.parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" '
                                f'width="{cell_w+0.5:.2f}" height="{cell_h+0.5:.2f}" '
                                f'fill="{color}"/>')
    canvas.axes()
    canvas.parts.append(f'<text x="{W-plot.MARGIN_R}" y="{plot.MARGIN_T-6}" '
                        f'text-anchor="end" font-family="sans-serif" font-size="10">'
                        f'range [{plot._fmt(lo)}, {plot._fmt(hi)}]</text>')
    return canvas.render()


# every record class with the dataclass options it was declared with, and
# its default factories by field
RECORD_OPTIONS = {
    circuits.NativeGate: dict(frozen=True),
    circuits.NativeCircuit: dict(frozen=True),
    device.DeviceTopology: dict(frozen=True),
    device.PairSelection: dict(frozen=True),
    executor.PairTable: dict(frozen=True),
    executor.BatchPlan: dict(frozen=True, eq=False),
    executor.CostModel: dict(frozen=True),
    harness.ExperimentConfig: dict(factories={
        "calibration": harness.default_calibration_path,
        "cost_model": harness.default_cost_model_path}),
    harness.RunRecord: dict(),
    harness.Command: dict(frozen=True, factories={"defaults": dict, "choices": dict}),
    hubbard.HubbardParams: dict(frozen=True),
    hubbard.AnsatzParams: dict(frozen=True),
    hubbard.Hamiltonian2: dict(frozen=True),
    mitigation.ConfusionMatrix: dict(frozen=True),
    optimizers.SpsaConfig: dict(frozen=True),
    optimizers.MgdConfig: dict(frozen=True),
    optimizers.OptTrace: dict(frozen=True, eq=False),
    simulator.PairNoiseSpec: dict(frozen=True),
    simulator.ShotHistogram: dict(frozen=True),
}


def dataclass_twin(cls):
    """A dataclasses.dataclass with cls's name, fields, plain defaults,
    RECORD_OPTIONS and __post_init__ check."""
    options = dict(RECORD_OPTIONS[cls])
    factories = options.pop("factories", {})
    annotations = cls.__dict__["__annotations__"]
    namespace = {"__annotations__": dict(annotations), "__qualname__": cls.__qualname__,
                 "__module__": cls.__module__}
    for name in annotations:
        if name in factories:
            namespace[name] = dataclasses.field(default_factory=factories[name])
        elif name in cls.__dict__:
            namespace[name] = cls.__dict__[name]
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(**options)(type(cls.__name__, (), namespace))
