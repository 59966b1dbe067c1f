"""Noise-channel and sampling tests for the simulator and its density-matrix
reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from parvqe.circuits import MeasurementSetting, build_circuit, circuit_unitary
from parvqe.executor import exact_expectation_energy
from parvqe.hubbard import AnsatzParams, HubbardParams, exact_energy, exact_ground_energy, optimal_params
from parvqe.simulator import (
    NOISELESS,
    PairNoiseSpec,
    ShotHistogram,
    batch_distributions,
    exact_distribution,
    fidelity_to_depolarizing,
    sample_shots,
)
from reference import check_density_matrix, run_circuit

KET00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def depol_to_fidelity(p):
    return 1.0 - 3.0 * p / 4.0


def test_fidelity_to_depolarizing():
    assert fidelity_to_depolarizing(1.0) == 0.0
    assert fidelity_to_depolarizing(0.9) == pytest.approx(0.4 / 3.0, abs=1e-15)
    assert fidelity_to_depolarizing(0.25) == 1.0
    with pytest.raises(ValueError):
        fidelity_to_depolarizing(0.0)
    with pytest.raises(ValueError):
        fidelity_to_depolarizing(1.1)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        PairNoiseSpec(cz_fidelity=0.0)
    with pytest.raises(ValueError):
        PairNoiseSpec(readout=((0.6, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError):
        PairNoiseSpec(crosstalk_p=1.5)


def test_noiseless_run_matches_unitary():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        for setting in MeasurementSetting:
            circ = build_circuit(a, setting)
            rho = run_circuit(circ, NOISELESS)
            psi = circuit_unitary(circ) @ KET00
            pure = np.outer(psi, psi.conj())
            # trace distance of two 4x4 states
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - pure)))
            assert dist < 1e-12


def test_fully_depolarizing_gives_maximally_mixed():
    noise = PairNoiseSpec(cz_fidelity=0.25)  # depol_p == 1
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        rho = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), noise)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-12


def test_noisy_energy_biased_upward_at_optimum():
    opt = optimal_params()
    h = HubbardParams()
    est = exact_expectation_energy(opt, h, PairNoiseSpec(cz_fidelity=0.95))
    assert est.value > exact_ground_energy(h) + 0.05


def test_channels_preserve_density_matrix_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        noise = PairNoiseSpec(cz_fidelity=rng.uniform(0.8, 1.0),
                              readout=((rng.uniform(0, 0.1), rng.uniform(0, 0.1)),
                                       (rng.uniform(0, 0.1), rng.uniform(0, 0.1))))
        rho = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), noise)
        check_density_matrix(rho)


def test_exact_distribution_examples():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    assert np.array_equal(exact_distribution(rho00, NOISELESS), [1, 0, 0, 0])

    flip0 = PairNoiseSpec(readout=((0.1, 0.0), (0.0, 0.0)))
    assert np.allclose(exact_distribution(rho00, flip0), [0.9, 0.0, 0.1, 0.0],
                       atol=1e-15)

    # symmetric flips make the confusion doubly stochastic, which is what
    # preserves the uniform distribution
    mixed = np.eye(4, dtype=complex) / 4.0
    symmetric = PairNoiseSpec(readout=((0.2, 0.2), (0.05, 0.05)))
    assert np.allclose(exact_distribution(mixed, symmetric), np.full(4, 0.25),
                       atol=1e-12)


def test_distribution_sums_to_one():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = AnsatzParams(*rng.uniform(-math.pi, math.pi, 2))
        noise = PairNoiseSpec(cz_fidelity=0.9,
                              readout=((0.03, 0.02), (0.01, 0.04)))
        rho = run_circuit(build_circuit(a, MeasurementSetting.HOPPING), noise)
        p = exact_distribution(rho, noise)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)


def test_sample_shots_degenerate_and_deterministic():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    hist = sample_shots(rho00, NOISELESS, 500, np.random.default_rng(0))
    assert hist.counts == (500, 0, 0, 0)

    noise = PairNoiseSpec(readout=((0.1, 0.05), (0.02, 0.08)))
    h1 = sample_shots(rho00, noise, 1000, np.random.default_rng(42))
    h2 = sample_shots(rho00, noise, 1000, np.random.default_rng(42))
    assert h1 == h2
    with pytest.raises(ValueError):
        sample_shots(rho00, noise, 0, np.random.default_rng(0))


def test_sample_shots_large_sample_total_variation():
    a = AnsatzParams(0.4, -0.9)
    noise = PairNoiseSpec(cz_fidelity=0.93, readout=((0.02, 0.04), (0.03, 0.01)))
    rho = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), noise)
    p = exact_distribution(rho, noise)
    hist = sample_shots(rho, noise, 10 ** 6, np.random.default_rng(7))
    tv = 0.5 * np.sum(np.abs(hist.frequencies() - p))
    assert tv < 0.005


def test_shot_histogram_validation():
    with pytest.raises(ValueError):
        ShotHistogram(counts=(1, 2, 3, 4), shots=11)
    with pytest.raises(ValueError):
        ShotHistogram(counts=(-1, 2, 3, 6), shots=10)


def test_noiseless_pipeline_matches_oracle_on_grid():
    h = HubbardParams()
    axis = np.linspace(-math.pi, math.pi, 7)
    for phi in axis:
        for theta in axis:
            a = AnsatzParams(float(phi), float(theta))
            est = exact_expectation_energy(a, h, NOISELESS)
            assert abs(est.value - exact_energy(a, h)) < 1e-10
            assert est.std_err == 0.0


def test_energy_error_monotone_in_depolarizing_strength():
    opt = optimal_params()
    h = HubbardParams()
    e0 = exact_ground_energy(h)
    errors = []
    for p in (0.0, 0.05, 0.1, 0.2):
        noise = PairNoiseSpec(cz_fidelity=depol_to_fidelity(p))
        assert noise.depol_p == pytest.approx(p, abs=1e-12)
        errors.append(abs(exact_expectation_energy(opt, h, noise).value - e0))
    assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


def test_crosstalk_adds_depolarizing_probability():
    a = AnsatzParams(0.3, 0.4)
    lo = PairNoiseSpec(cz_fidelity=0.95, crosstalk_p=0.1)
    hi = PairNoiseSpec(cz_fidelity=depol_to_fidelity(lo.depol_p + 0.1))
    rho_flagged = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), lo,
                              crosstalk_active=True)
    rho_equiv = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), hi)
    assert np.max(np.abs(rho_flagged - rho_equiv)) < 1e-12
    rho_unflagged = run_circuit(build_circuit(a, MeasurementSetting.ONSITE), lo)
    assert np.max(np.abs(rho_flagged - rho_unflagged)) > 1e-3


angles = st.floats(-2 * math.pi, 2 * math.pi)
readout_rates = st.floats(0.0, 0.5, exclude_max=True)
pair_cases = st.tuples(
    angles, angles, st.floats(0.5, 1.0, exclude_min=True),
    st.tuples(st.tuples(readout_rates, readout_rates),
              st.tuples(readout_rates, readout_rates)),
    st.floats(0.0, 1.0), st.booleans())


@given(st.lists(pair_cases, min_size=1, max_size=4))
# the noiseless corner: a perfect pair, then p = 0 with readout error
@example([(0.3, 0.7, 1.0, ((0.0, 0.0), (0.0, 0.0)), 0.0, False)])
@example([(1.1, -0.4, 1.0, ((0.02, 0.05), (0.03, 0.01)), 0.0, True)])
def test_batch_kernel_matches_density_matrix_reference(cases):
    """Every row of a batch equals the gate-by-gate density-matrix path for
    random angles, CZ fidelities, readout rates and crosstalk: the closed
    form is tied to the gate template that run_circuit walks."""
    noises = [PairNoiseSpec(cz_fidelity=f, readout=ro, crosstalk_p=xt)
              for _, _, f, ro, xt, _ in cases]
    dists = batch_distributions(
        np.array([c[0] for c in cases]), np.array([c[1] for c in cases]),
        np.array([noise.effective_p(c[5]) for noise, c in zip(noises, cases)]),
        np.array([noise.confusion_map() for noise in noises]))
    assert dists.shape == (len(cases), 2, 4)
    assert np.all((dists >= 0.0) & (dists <= 1.0))
    for i, ((phi, theta, _, _, _, active), noise) in enumerate(zip(cases, noises)):
        for k, setting in enumerate((MeasurementSetting.ONSITE, MeasurementSetting.HOPPING)):
            rho = run_circuit(build_circuit(AnsatzParams(phi, theta), setting), noise, active)
            assert np.max(np.abs(dists[i, k] - exact_distribution(rho, noise))) <= 1e-12


@given(st.lists(pair_cases, min_size=1, max_size=6),
       st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_batch_kernel_rows_do_not_depend_on_their_batch(cases, picks):
    """Each row's distributions are bitwise the same computed alone or in
    any other batch, so batches may share one kernel call."""
    noises = [PairNoiseSpec(cz_fidelity=f, readout=ro, crosstalk_p=xt)
              for _, _, f, ro, xt, _ in cases]
    phi, theta = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])
    p = np.array([noise.effective_p(c[5]) for noise, c in zip(noises, cases)])
    confusion = np.array([noise.confusion_map() for noise in noises])
    dists = batch_distributions(phi, theta, p, confusion)
    for i in range(len(cases)):
        alone = batch_distributions(phi[i:i + 1], theta[i:i + 1], p[i:i + 1],
                                    confusion[i:i + 1])
        assert np.array_equal(alone[0], dists[i])
    picks = [i % len(cases) for i in picks]
    other = batch_distributions(phi[picks], theta[picks], p[picks], confusion[picks])
    assert np.array_equal(other, dists[picks])
