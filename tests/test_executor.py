"""Batch execution, energy estimation and cost-model tests."""

import math

import numpy as np
import pytest

from parvqe.device import DeviceTopology
from parvqe.executor import (
    BatchJob,
    CostModel,
    DegenerateCalibration,
    aggregate_same_params,
    calibrate_cost_model,
    estimate_energy,
    estimate_for_result,
    exact_expectation_energy,
    load_cost_model,
    predict_wall_time,
    run_batch,
)
from parvqe.hubbard import AnsatzParams, HubbardParams, exact_energy, optimal_params
from parvqe.mitigation import measure_confusion
from parvqe.simulator import NOISELESS, PairNoiseSpec, ShotHistogram

E_GROUND = 1.0 - math.sqrt(5.0)

REFERENCE_TIMINGS = [
    (25, 16, 10_000, 2, 220.0),
    (1, 400, 10_000, 2, 3960.0),
    (1, 150, 1000, 2, 245.0),
    (25, 150, 1000, 2, 420.0),
]


def two_pair_topology(fidelity=1.0, readout=(0.0, 0.0)):
    return DeviceTopology(
        qubits=(0, 1, 2, 3),
        edges=((0, 1, fidelity), (2, 3, fidelity)),
        readout={q: readout for q in range(4)})


# --- run_batch ---


def test_batch_job_validation():
    a = AnsatzParams(0.1, 0.2)
    with pytest.raises(ValueError):
        BatchJob(assignments=(), shots=100, seed=1)
    with pytest.raises(ValueError):
        BatchJob(assignments=(((0, 1), a), ((1, 2), a)), shots=100, seed=1)
    with pytest.raises(ValueError):
        BatchJob(assignments=(((0, 1), a),), shots=0, seed=1)


def test_run_batch_requires_topology_edges():
    topo = two_pair_topology()
    job = BatchJob(assignments=(((0, 2), AnsatzParams(0.1, 0.2)),), shots=10, seed=1)
    with pytest.raises(ValueError):
        run_batch(job, topo)


def test_run_batch_deterministic_across_workers():
    topo = two_pair_topology(fidelity=0.93, readout=(0.02, 0.03))
    job = BatchJob(assignments=(((0, 1), AnsatzParams(0.3, 0.4)),
                                ((2, 3), AnsatzParams(-0.2, 0.9))),
                   shots=2000, seed=99)
    baseline = run_batch(job, topo, workers=1)
    for workers in (1, 4, 8):
        again = run_batch(job, topo, workers=workers)
        assert again == baseline


def test_run_batch_energy_matches_oracle_within_error():
    topo = two_pair_topology()
    opt = optimal_params()
    job = BatchJob(assignments=(((0, 1), opt),), shots=10 ** 6, seed=5)
    res = run_batch(job, topo)[0]
    est = estimate_for_result(res)
    assert abs(est.value - E_GROUND) < 3 * est.std_err + 1e-9


def test_identical_assignments_share_distribution():
    topo = two_pair_topology()
    a = AnsatzParams(0.5, -0.3)
    h = HubbardParams()
    e1 = exact_expectation_energy(a, h, NOISELESS)
    e2 = exact_expectation_energy(a, h, NOISELESS)
    assert e1.value == e2.value


def test_crosstalk_flagging_needs_adjacent_pairs():
    # pairs (0,1) & (2,3) joined by edge (1,2): active together -> flagged
    topo = DeviceTopology(qubits=(0, 1, 2, 3),
                          edges=((0, 1, 0.95), (2, 3, 0.95), (1, 2, 0.9)),
                          readout={})
    a = AnsatzParams(0.3, 0.4)
    job_pair = BatchJob(assignments=(((0, 1), a), ((2, 3), a)), shots=5000, seed=3)
    job_solo = BatchJob(assignments=(((0, 1), a),), shots=5000, seed=3)
    with_xt = run_batch(job_pair, topo, crosstalk_p=0.5)[0]
    solo = run_batch(job_solo, topo, crosstalk_p=0.5)[0]
    no_xt = run_batch(job_pair, topo, crosstalk_p=0.0)[0]
    est_with = estimate_for_result(with_xt).value
    est_solo = estimate_for_result(solo).value
    est_without = estimate_for_result(no_xt).value
    # same streams, so differences are purely the extra channel
    assert est_with != est_without
    assert est_solo == est_without


# --- estimate_energy ---


def test_estimate_energy_exact_reference_points():
    h = HubbardParams()
    for theta in (0.0, 0.7, -1.2):
        est = exact_expectation_energy(AnsatzParams(0.0, theta), h, NOISELESS)
        assert est.value == pytest.approx(-1.0, abs=1e-10)
    est = exact_expectation_energy(optimal_params(), h, NOISELESS)
    assert est.value == pytest.approx(E_GROUND, abs=1e-10)


def test_estimate_energy_all_counts_on_00_regression():
    # frozen against the sign map: onsite term cancels, hopping gives -2t
    hist = ShotHistogram(counts=(100, 0, 0, 0), shots=100)
    est = estimate_energy(hist, hist)
    assert est.value == pytest.approx(-2.0, abs=1e-12)


def test_estimate_energy_errors():
    hist = ShotHistogram(counts=(50, 0, 0, 0), shots=50)
    other = ShotHistogram(counts=(60, 0, 0, 0), shots=60)
    with pytest.raises(ValueError):
        estimate_energy(hist, other)
    with pytest.raises(ValueError):
        estimate_energy(hist, None)
    with pytest.raises(ValueError):
        estimate_energy(hist, np.full(4, 0.25))


def test_estimate_energy_with_confusion_tracks_raw():
    noise = PairNoiseSpec(readout=((0.05, 0.02), (0.03, 0.04)))
    confusion = measure_confusion(noise, shots=None)
    a = AnsatzParams(0.4, 0.6)
    h = HubbardParams()
    noisy = exact_expectation_energy(a, h, noise)
    corrected = exact_expectation_energy(a, h, noise, confusion)
    assert corrected.raw_value == pytest.approx(noisy.value, abs=1e-12)
    # exact confusion inversion undoes pure readout noise entirely
    assert corrected.value == pytest.approx(exact_energy(a, h), abs=1e-10)
    assert abs(noisy.value - exact_energy(a, h)) > 1e-3


def test_std_err_scales_with_shots():
    topo = two_pair_topology(fidelity=0.95, readout=(0.02, 0.02))
    a = AnsatzParams(0.2, 0.3)
    ests = {}
    for shots in (1000, 100_000):
        job = BatchJob(assignments=(((0, 1), a),), shots=shots, seed=17)
        ests[shots] = estimate_for_result(run_batch(job, topo)[0])
    ratio = ests[1000].std_err / ests[100_000].std_err
    assert ratio == pytest.approx(10.0, rel=0.15)


# --- aggregation ---


def test_aggregate_single_and_pair():
    e1 = estimate_energy(ShotHistogram((50, 50, 0, 0), 100),
                         ShotHistogram((25, 25, 25, 25), 100))
    assert aggregate_same_params([e1]) == e1
    e2 = estimate_energy(ShotHistogram((100, 0, 0, 0), 100),
                         ShotHistogram((0, 0, 0, 100), 100))
    pooled = aggregate_same_params([e1, e2])
    assert pooled.value == pytest.approx((e1.value + e2.value) / 2)
    with pytest.raises(ValueError):
        aggregate_same_params([])


def test_pooled_std_err_shrinks_as_root_p():
    topo_edges = tuple((2 * i, 2 * i + 1, 0.97) for i in range(25))
    topo = DeviceTopology(qubits=tuple(range(50)), edges=topo_edges,
                          readout={q: (0.01, 0.01) for q in range(50)})
    a = AnsatzParams(0.4, 0.3)
    job = BatchJob(assignments=tuple((p, a) for p in [e[:2] for e in topo_edges]),
                   shots=1000, seed=23)
    per_pair = [estimate_for_result(r) for r in run_batch(job, topo)]
    pooled = aggregate_same_params(per_pair)
    mean_se = float(np.mean([e.std_err for e in per_pair]))
    assert pooled.std_err == pytest.approx(mean_se / math.sqrt(25), rel=0.05)


# --- cost model ---


def test_predict_wall_time_example():
    m = CostModel(t_base=10.0, beta=0.5, tau=1e-4)
    assert predict_wall_time(m, 25, 16, 10_000, 2) == pytest.approx(392.0)
    assert (predict_wall_time(m, 25, 16, 10_000) - predict_wall_time(m, 1, 16, 10_000)
            ) == pytest.approx(16 * 0.5 * 24)
    with pytest.raises(ValueError):
        predict_wall_time(m, 0, 16, 100)


def test_predict_wall_time_example_with_kappa():
    m = CostModel(t_base=10.0, beta=0.5, tau=1e-4, kappa=2e-6)
    # 16 * (10 + 0.5*25 + 2*10000*(1e-4 + 2e-6*25)) = 16 * (22.5 + 3.0)
    assert predict_wall_time(m, 25, 16, 10_000, 2) == pytest.approx(408.0)
    # per extra pair: 16 * (0.5 + 2*10000*2e-6) = 16 * 0.54
    assert (predict_wall_time(m, 25, 16, 10_000) - predict_wall_time(m, 1, 16, 10_000)
            ) == pytest.approx(16 * 0.54 * 24)
    with pytest.raises(ValueError):
        CostModel(t_base=10.0, beta=0.5, tau=1e-4, kappa=-1e-6)


def test_predict_wall_time_monotonic():
    m = CostModel(t_base=1.0, beta=0.05, tau=1e-4)
    base = predict_wall_time(m, 5, 10, 1000)
    assert predict_wall_time(m, 6, 10, 1000) > base
    assert predict_wall_time(m, 5, 11, 1000) > base
    assert predict_wall_time(m, 5, 10, 1100) > base


def test_calibrate_recovers_exact_model():
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4)
    obs = [(p, b, s, 2, predict_wall_time(true, p, b, s))
           for p, b, s in [(1, 10, 500), (4, 20, 1000), (9, 5, 2000), (25, 7, 100)]]
    fitted, residuals = calibrate_cost_model(obs)
    assert fitted.t_base == pytest.approx(true.t_base, abs=1e-6)
    assert fitted.beta == pytest.approx(true.beta, abs=1e-6)
    assert fitted.tau == pytest.approx(true.tau, abs=1e-9)
    assert np.max(np.abs(residuals)) < 1e-6


def test_calibrate_recovers_exact_kappa_model():
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4, kappa=5e-6)
    obs = [(p, b, s, 2, predict_wall_time(true, p, b, s))
           for p, b, s in [(1, 10, 500), (4, 20, 1000), (9, 5, 2000), (25, 7, 100)]]
    fitted, residuals = calibrate_cost_model(obs)
    assert fitted.t_base == pytest.approx(true.t_base, abs=1e-6)
    assert fitted.beta == pytest.approx(true.beta, abs=1e-6)
    assert fitted.tau == pytest.approx(true.tau, abs=1e-9)
    assert fitted.kappa == pytest.approx(true.kappa, abs=1e-11)
    assert np.max(np.abs(residuals)) < 1e-6


def test_calibrate_rejects_single_shot_count():
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4, kappa=5e-6)
    obs = [(p, b, 1000, 2, predict_wall_time(true, p, b, 1000))
           for p, b in [(1, 10), (4, 20), (9, 5), (25, 7)]]
    with pytest.raises(DegenerateCalibration, match="collinear"):
        calibrate_cost_model(obs)


def test_load_cost_model_without_kappa(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text('{"t_base": 0.5, "beta": 0.05, "tau": 0.0004}\n')
    m = load_cost_model(path)
    assert m == CostModel(t_base=0.5, beta=0.05, tau=0.0004, kappa=0.0)
    assert predict_wall_time(m, 25, 16, 10_000) == pytest.approx(
        16 * (0.5 + 0.05 * 25 + 2 * 10_000 * 0.0004))


def test_calibrate_errors():
    with pytest.raises(DegenerateCalibration):
        calibrate_cost_model([(1, 10, 100, 2, 5.0), (1, 20, 100, 2, 9.0)])
    with pytest.raises(DegenerateCalibration):
        calibrate_cost_model([(2, 10, 100, 2, 5.0), (2, 20, 100, 2, 9.0),
                              (2, 30, 100, 2, 13.0)])


def test_shipped_default_cost_model_is_the_fit_output(shipped_cost_model_path):
    fitted, _ = calibrate_cost_model(REFERENCE_TIMINGS)
    shipped = load_cost_model(shipped_cost_model_path)
    assert shipped.t_base == pytest.approx(fitted.t_base, abs=1e-9)
    assert shipped.beta == pytest.approx(fitted.beta, abs=1e-9)
    assert shipped.tau == pytest.approx(fitted.tau, abs=1e-12)
    assert shipped.kappa == pytest.approx(fitted.kappa, abs=1e-14)


def test_noiseless_pipeline_consistency_small_grid():
    h = HubbardParams()
    for phi in np.linspace(-math.pi, math.pi, 5):
        for theta in np.linspace(-math.pi, math.pi, 5):
            a = AnsatzParams(float(phi), float(theta))
            assert exact_expectation_energy(a, h, NOISELESS).value == pytest.approx(
                exact_energy(a, h), abs=1e-10)
