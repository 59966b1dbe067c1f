"""Fit the shipped default cost model from the reference timings.

Four timing observations of batched runs on a cloud-accessed device are
used, as (pairs, batches, shots, settings, seconds):

  * a 400-point landscape scan at 10,000 shots: 16 batches on 25 pairs
    took 220 s; the single-pair equivalent (400 batches) took 3960 s;
  * a 50-iteration SPSA optimisation at 1,000 shots (3 evaluations per
    iteration, i.e. 150 batches): 245 s on one pair, 420 s on 25 pairs.

The fitted parameters are outputs of the nonnegative least-squares
calibration, not hand-picked values. Four parameters fitted to four
timings interpolate them; the fit does not validate the model. For
comparison the tool also prints the affine fit (kappa = 0), which cannot
reproduce the landscape-scan timings: the scan pair implies about 0.160 s
per pair per batch at 10,000 shots, the optimizer pair about 0.049 s at
1,000 shots.

Run from the repository root:  python tools/fit_cost_model.py
(it needs scipy). The tests import calibrate_cost_model from here.
"""

import json
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

from parvqe.executor import CostModel

OUT = Path(__file__).resolve().parents[1] / "src" / "parvqe" / "data" / "default_cost_model.json"

OBSERVATIONS = [
    (25, 16, 10_000, 2, 220.0),
    (1, 400, 10_000, 2, 3960.0),
    (1, 150, 1000, 2, 245.0),
    (25, 150, 1000, 2, 420.0),
]


class DegenerateCalibration(ValueError):
    """Observations do not determine the cost model parameters."""


def calibrate_cost_model(observations) -> tuple[CostModel, np.ndarray]:
    """Fit (t_base, beta, tau, kappa) to observed timings by nonnegative
    least squares.

    observations: iterable of (pairs, batches, shots, settings, seconds).
    The 4-column design needs full rank: the observations must span at
    least 2 pair counts and 2 settings*shots values (with one value, beta
    and kappa are collinear). Returns the model and the per-observation
    residuals (predicted minus observed seconds).
    """
    obs = list(observations)
    if len(obs) < 4:
        raise DegenerateCalibration("need at least 4 observations")
    if len({p for p, *_ in obs}) < 2:
        raise DegenerateCalibration("observations must span at least 2 pair counts")
    if len({settings * shots for _, _, shots, settings, _ in obs}) < 2:
        raise DegenerateCalibration(
            "observations must span at least 2 settings*shots values; with one, "
            "the per-pair (beta) and readout-volume (kappa) terms are collinear")
    design = np.array([[b, b * p, b * settings * shots, b * p * settings * shots]
                       for p, b, shots, settings, _ in obs], dtype=float)
    target = np.array([seconds for *_, seconds in obs], dtype=float)
    if np.linalg.matrix_rank(design) < 4:
        raise DegenerateCalibration("design matrix is rank deficient (need rank 4)")
    coef, _ = nnls(design, target)
    model = CostModel(t_base=float(coef[0]), beta=float(coef[1]), tau=float(coef[2]),
                      kappa=float(coef[3]))
    residuals = design @ coef - target
    return model, residuals


def save_cost_model(m: CostModel, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump({"t_base": m.t_base, "beta": m.beta, "tau": m.tau, "kappa": m.kappa},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def affine_fit(observations):
    """NNLS fit of batches * (t_base + beta*pairs + settings*shots*tau),
    returning (t_base, beta, tau) and the residuals."""
    design = np.array([[b, b * p, b * settings * shots]
                       for p, b, shots, settings, _ in observations], dtype=float)
    target = np.array([seconds for *_, seconds in observations], dtype=float)
    coef, _ = nnls(design, target)
    return coef, design @ coef - target


def main() -> None:
    (t_base, beta, tau), residuals = affine_fit(OBSERVATIONS)
    print(f"affine (kappa=0): t_base={t_base:.6f} beta={beta:.6f} tau={tau:.6e}")
    print("  residuals (predicted - observed seconds):",
          [round(float(r), 2) for r in residuals])
    model, residuals = calibrate_cost_model(OBSERVATIONS)
    print(f"kappa model: t_base={model.t_base:.6f} beta={model.beta:.6f} "
          f"tau={model.tau:.6e} kappa={model.kappa:.6e}")
    print("  residuals (predicted - observed seconds):",
          [float(f"{r:.3g}") for r in residuals])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    save_cost_model(model, OUT)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
