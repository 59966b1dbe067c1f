"""Oracle module tests: the exact model everything else is checked against."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from parvqe.hubbard import (
    AnsatzParams,
    HubbardParams,
    closed_form_energy,
    exact_energy,
    exact_ground_energy,
    grid_minimum,
    hamiltonian,
    ideal_state,
    initial_state,
    optimal_params,
)

E_GROUND = 1.0 - math.sqrt(5.0)
PHI_STAR = math.atan(0.5) / 2.0


def brute_force_state(phi, theta, h=HubbardParams()):
    """Independent oracle: dense matrix exponentials via scipy."""
    parts = hamiltonian(h)
    psi = expm(1j * phi * parts.os_part) @ initial_state()
    return expm(1j * theta * parts.hop_part) @ psi


def test_hamiltonian_matrix_t1_u2():
    parts = hamiltonian(HubbardParams(t=1.0, u=2.0))
    expected = np.array([[2, -1, -1, 0],
                         [-1, 0, 0, -1],
                         [-1, 0, 0, -1],
                         [0, -1, -1, 2]], dtype=float)
    assert np.array_equal(parts.matrix, expected)
    assert np.allclose(parts.matrix, parts.hop_part + parts.os_part, atol=0)


def test_hamiltonian_u_zero_kills_onsite():
    parts = hamiltonian(HubbardParams(t=1.0, u=0.0))
    assert np.all(np.diag(parts.matrix) == 0)
    assert np.array_equal(parts.matrix, parts.hop_part)


def test_hamiltonian_t_zero_is_diagonal():
    parts = hamiltonian(HubbardParams(t=0.0, u=2.0))
    assert np.array_equal(parts.matrix, np.diag([2.0, 0.0, 0.0, 2.0]))


def test_params_validation():
    with pytest.raises(ValueError):
        HubbardParams(t=-1.0)
    with pytest.raises(ValueError):
        HubbardParams(u=-0.5)
    with pytest.raises(ValueError):
        AnsatzParams(float("nan"), 0.0)


def test_initial_state_is_uniform():
    psi = initial_state()
    assert np.array_equal(psi, np.full(4, 0.5))


def test_initial_state_is_hopping_ground_state():
    for t in (1.0, 2.5):
        parts = hamiltonian(HubbardParams(t=t, u=2.0))
        psi = initial_state()
        assert np.allclose(parts.hop_part @ psi, -2.0 * t * psi, atol=1e-12)


def test_initial_state_zz_expectation_zero():
    psi = initial_state()
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    assert abs(psi.conj() @ zz @ psi) < 1e-12


def test_ideal_state_phi_zero_stays_uniform():
    for theta in (0.0, 0.7, -2.1):
        psi = ideal_state(AnsatzParams(0.0, theta))
        overlap = abs(np.vdot(initial_state(), psi))
        assert abs(overlap - 1.0) < 1e-12


def test_ideal_state_quarter_phi():
    # expectations checked against the independent dense-expm oracle
    psi = brute_force_state(math.pi / 4, 0.0)
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    hop_op = -hamiltonian().hop_part  # X(x)I + I(x)X
    assert abs(np.real(psi.conj() @ zz @ psi)) < 1e-12
    assert abs(np.real(psi.conj() @ hop_op @ psi)) < 1e-12
    fast = ideal_state(AnsatzParams(math.pi / 4, 0.0))
    assert abs(abs(np.vdot(psi, fast)) - 1.0) < 1e-12


def test_ideal_state_unit_norm_and_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(100):
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        psi = ideal_state(AnsatzParams(phi, theta))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        ref = brute_force_state(phi, theta)
        assert abs(abs(np.vdot(ref, psi)) - 1.0) < 1e-12


@pytest.mark.parametrize("phi,theta,expected", [
    (0.0, 0.7, -1.0),
    (PHI_STAR, math.pi / 8, E_GROUND),
    (math.pi / 4, math.pi / 8, 0.0),
])
def test_exact_energy_reference_points(phi, theta, expected):
    assert abs(exact_energy(AnsatzParams(phi, theta)) - expected) < 1e-10


def test_closed_form_validated_against_matrix_oracle():
    # validation gate: the closed form is usable only because of this check
    axis = np.linspace(-math.pi, math.pi, 50)
    worst = max(
        abs(exact_energy(AnsatzParams(p, t)) - closed_form_energy(p, t))
        for p in axis for t in axis)
    assert worst < 1e-10


def test_closed_form_other_model_constants():
    h = HubbardParams(t=0.7, u=3.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        assert abs(exact_energy(AnsatzParams(phi, theta), h)
                   - closed_form_energy(phi, theta, h)) < 1e-10


@pytest.mark.parametrize("t,u,expected", [
    (1.0, 2.0, E_GROUND),
    (1.0, 0.0, -2.0),
    (0.0, 2.0, 0.0),
])
def test_exact_ground_energy(t, u, expected):
    assert abs(exact_ground_energy(HubbardParams(t=t, u=u)) - expected) < 1e-10


def test_variational_bound():
    rng = np.random.default_rng(7)
    e0 = exact_ground_energy()
    for _ in range(200):
        phi, theta = rng.uniform(-math.pi, math.pi, 2)
        assert exact_energy(AnsatzParams(phi, theta)) >= e0 - 1e-10


def test_energy_at_phi_zero_is_constant_in_theta():
    rng = np.random.default_rng(13)
    h = HubbardParams()
    expected = h.u / 2.0 - 2.0 * h.t
    for theta in rng.uniform(-math.pi, math.pi, 100):
        assert abs(exact_energy(AnsatzParams(0.0, theta), h) - expected) < 1e-12


def test_hopping_expectation_independent_of_theta():
    rng = np.random.default_rng(17)
    hop_op = -hamiltonian().hop_part
    for _ in range(50):
        phi = rng.uniform(-math.pi, math.pi)
        thetas = rng.uniform(-math.pi, math.pi, 2)
        vals = []
        for theta in thetas:
            psi = ideal_state(AnsatzParams(phi, theta))
            vals.append(np.real(psi.conj() @ hop_op @ psi))
        assert abs(vals[0] - vals[1]) < 1e-10


def test_grid_minimum_reaches_ground_energy():
    _, _, emin = grid_minimum(200)
    assert abs(emin - exact_ground_energy()) < 1e-4


def test_optimal_params_location_modulo_symmetry():
    opt = optimal_params()
    assert abs(exact_energy(opt) - E_GROUND) < 1e-9
    assert abs(abs(opt.phi) - PHI_STAR) < 1e-5
    assert abs(abs(opt.theta) - math.pi / 8) < 1e-5


def numerical_optimum(h):
    """Reference search: the 200x200 grid minimum polished by Nelder-Mead on
    the energy, then on the energy variance |(H - E) psi|^2. Near the
    minimum the energy moves only quadratically, so the energy search alone
    places the angles to about sqrt(machine epsilon) (1.6e-8 at t=1.3,
    u=0.7); the variance, zero at the ground state, places them to about
    machine epsilon."""
    from scipy.optimize import minimize

    matrix = hamiltonian(h).matrix

    def variance(v):
        psi = ideal_state(AnsatzParams(v[0], v[1]), h)
        h_psi = matrix @ psi
        residual = h_psi - np.real(psi.conj() @ h_psi) * psi
        return float(np.real(np.vdot(residual, residual)))

    phi0, theta0, _ = grid_minimum(200, h)
    res = minimize(lambda v: exact_energy(AnsatzParams(v[0], v[1]), h), [phi0, theta0],
                   method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12})
    res = minimize(variance, res.x, method="Nelder-Mead",
                   options={"xatol": 1e-14, "fatol": 1e-30})
    return float(res.x[0]), float(res.x[1])


def wrapped(x, period):
    return x - period * round(x / period)


@pytest.mark.parametrize("t,u", [(1.0, 2.0), (0.5, 3.0), (1.3, 0.7)])
def test_optimal_params_matches_numerical_search(t, u):
    h = HubbardParams(t=t, u=u)
    opt = optimal_params(h)
    phi, theta = numerical_optimum(h)
    # equal modulo the periods, up to the joint sign flip
    dev = min(max(abs(wrapped(phi - s * opt.phi, 2 * math.pi / u)),
                  abs(wrapped(theta - s * opt.theta, math.pi / (2 * t))))
              for s in (1, -1))
    assert dev < 1e-8
    assert abs(exact_energy(opt, h) - exact_ground_energy(h)) < 1e-12


@pytest.mark.parametrize("t,u", [(0.0, 2.0), (1.0, 0.0)])
def test_optimal_params_rejects_degenerate_models(t, u):
    with pytest.raises(ValueError):
        optimal_params(HubbardParams(t=t, u=u))
