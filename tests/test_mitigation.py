"""Readout-inversion and reference-correction tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference
from parvqe.device import DeviceTopology
from parvqe.executor import compile_pairs
from parvqe.hubbard import AnsatzParams, HubbardParams, exact_energy
from parvqe.mitigation import (
    ConfusionMatrix,
    IllConditionedConfusion,
    check_confusions,
    invert_readout,
    measure_confusion,
    measure_confusions,
    tflo_correct,
)
from parvqe.simulator import NOISELESS, PairNoiseSpec, ShotHistogram, sample_shots


def test_measure_confusion_no_readout_error_is_identity():
    exact = measure_confusion(NOISELESS, shots=None)
    assert np.array_equal(exact.matrix, np.eye(4))
    sampled = measure_confusion(NOISELESS, shots=100, stream=np.random.default_rng(1))
    assert np.array_equal(sampled.matrix, np.eye(4))


def test_measure_confusion_tensor_structure():
    noise = PairNoiseSpec(readout=((0.1, 0.0), (0.0, 0.0)))
    exact = measure_confusion(noise, shots=None)
    expected = np.kron(np.array([[0.9, 0.0], [0.1, 1.0]]), np.eye(2))
    assert np.allclose(exact.matrix, expected, atol=1e-15)


def test_measure_confusion_sampling_accuracy():
    noise = PairNoiseSpec(readout=((0.08, 0.03), (0.02, 0.06)))
    exact = measure_confusion(noise, shots=None)
    sampled = measure_confusion(noise, shots=10 ** 5,
                                stream=np.random.default_rng(5))
    assert np.max(np.abs(sampled.matrix - exact.matrix)) < 0.01


def test_invert_readout_identity_and_roundtrip():
    identity = ConfusionMatrix(matrix=np.eye(4))
    hist = ShotHistogram(counts=(10, 20, 30, 40), shots=100)
    assert np.allclose(invert_readout(hist, identity), hist.frequencies(), atol=0)

    noise = PairNoiseSpec(readout=((0.07, 0.02), (0.04, 0.09)))
    n = measure_confusion(noise, shots=None)
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.dirichlet(np.ones(4))
        recovered = invert_readout(n.matrix @ d, n)
        assert np.max(np.abs(recovered - d)) < 1e-12


def test_invert_readout_end_to_end_statistical():
    noise = PairNoiseSpec(readout=((0.05, 0.05), (0.05, 0.05)))
    n = measure_confusion(noise, shots=None)
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    hist = sample_shots(rho00, noise, 10 ** 6, np.random.default_rng(11))
    recovered = invert_readout(hist, n)
    tv = 0.5 * np.sum(np.abs(recovered - np.array([1.0, 0.0, 0.0, 0.0])))
    assert tv < 0.005


def test_negative_quasi_probabilities_are_retained():
    noise = PairNoiseSpec(readout=((0.2, 0.2), (0.2, 0.2)))
    n = measure_confusion(noise, shots=None)
    # all mass on 00 is impossible after strong symmetric noise, so the
    # inversion must overshoot past the simplex boundary
    recovered = invert_readout(np.array([1.0, 0.0, 0.0, 0.0]), n)
    assert recovered.min() < -1e-3
    assert recovered.sum() == pytest.approx(1.0, abs=1e-12)


def test_confusion_validation():
    bad = np.full((4, 4), 0.25)
    with pytest.raises(IllConditionedConfusion):
        ConfusionMatrix(matrix=bad)   # singular
    not_stochastic = np.eye(4) * 0.9
    with pytest.raises(ValueError):
        ConfusionMatrix(matrix=not_stochastic)


def test_tflo_formula():
    assert tflo_correct(-0.8, -1.0, -0.85) == pytest.approx(-0.95)
    assert tflo_correct(-0.8, -1.0, -1.0) == pytest.approx(-0.8)


def test_tflo_removes_any_constant_bias():
    h = HubbardParams()
    rng = np.random.default_rng(21)
    for bias in (-0.7, 0.0, 0.3, 2.5):
        phi, theta = rng.uniform(-np.pi, np.pi, 2)
        e_true = exact_energy(AnsatzParams(phi, theta), h)
        e_ref = exact_energy(AnsatzParams(0.0, theta), h)
        corrected = tflo_correct(e_true + bias, e_ref, e_ref + bias)
        assert corrected == pytest.approx(e_true, abs=1e-12)


def test_reference_energy_from_oracle():
    h = HubbardParams()
    rng = np.random.default_rng(2)
    for theta in rng.uniform(-np.pi, np.pi, 10):
        assert exact_energy(AnsatzParams(0.0, theta), h) == pytest.approx(
            h.u / 2.0 - 2.0 * h.t, abs=1e-12)


def test_per_pair_inversion_equals_global_on_products():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n_a = measure_confusion(
            PairNoiseSpec(readout=((rng.uniform(0, 0.1), rng.uniform(0, 0.1)),
                                   (rng.uniform(0, 0.1), rng.uniform(0, 0.1)))),
            shots=None).matrix
        n_b = measure_confusion(
            PairNoiseSpec(readout=((rng.uniform(0, 0.1), rng.uniform(0, 0.1)),
                                   (rng.uniform(0, 0.1), rng.uniform(0, 0.1)))),
            shots=None).matrix
        d_a = rng.dirichlet(np.ones(4))
        d_b = rng.dirichlet(np.ones(4))
        measured = np.kron(n_a @ d_a, n_b @ d_b)
        global_inverted = np.linalg.inv(np.kron(n_a, n_b)) @ measured
        per_pair = np.kron(np.linalg.inv(n_a) @ (n_a @ d_a),
                           np.linalg.inv(n_b) @ (n_b @ d_b))
        assert np.max(np.abs(global_inverted - per_pair)) < 1e-12
        assert np.max(np.abs(global_inverted - np.kron(d_a, d_b))) < 1e-12


# --- stacked confusion measurement ---


@st.composite
def confusion_cases(draw):
    """1-6 pairs' readout rates (up to 0.49, so some matrices are
    ill-conditioned), a shot count or None (exact maps) and a seed per pair."""
    n = draw(st.integers(1, 6))
    readouts = np.array(draw(st.lists(st.floats(0.0, 0.49), min_size=4 * n,
                                      max_size=4 * n))).reshape(n, 2, 2)
    shots = draw(st.none() | st.integers(1, 5000))
    seeds = draw(st.lists(st.integers(0, 2 ** 63), min_size=n, max_size=n))
    return readouts, shots, seeds


def result_or_error(measure):
    try:
        return measure()
    except ValueError as exc:
        return type(exc)


@given(confusion_cases())
def test_measure_confusions_match_one_pair_at_a_time(case):
    """The stacked measurement, and measure_confusion on each pair, give
    every pair the matrix and stream state of the reference that draws one
    column at a time and checks one matrix, and the stack's inverses are the
    reference's; when a pair's matrix fails its checks, measure_confusion
    and compile_pairs on the stack both raise that pair's error type."""
    readouts, shots, seeds = case
    expected, errors = [], set()
    for readout, seed in zip(readouts, seeds):
        noise = PairNoiseSpec(readout=tuple(map(tuple, readout)))
        ref_stream, own_stream = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = result_or_error(lambda: reference.measure_confusion(noise, shots, ref_stream))
        own = result_or_error(lambda: measure_confusion(noise, shots, own_stream))
        next_draw = ref_stream.random()
        if isinstance(ref, type):
            assert own is ref
            errors.add(ref)
            expected.append((None, None, next_draw))
            continue
        assert np.array_equal(own.matrix, ref[0]) and np.array_equal(own.inverse, ref[1])
        assert own_stream.random() == next_draw
        expected.append((*ref, next_draw))
    streams = [np.random.default_rng(seed) for seed in seeds]
    stacked = measure_confusions(readouts, shots, streams)
    assert stacked.shape == (len(readouts), 4, 4)
    for matrix, stream, (ref_matrix, _, next_draw) in zip(stacked, streams, expected):
        assert ref_matrix is None or np.array_equal(matrix, ref_matrix)
        assert stream.random() == next_draw
    n = len(readouts)
    topo = DeviceTopology(qubits=tuple(range(2 * n)),
                          edges=tuple((2 * i, 2 * i + 1, 1.0) for i in range(n)),
                          readout=dict(enumerate(map(tuple, readouts.reshape(2 * n, 2)))))
    table = result_or_error(lambda: compile_pairs(topo, [(2 * i, 2 * i + 1) for i in range(n)],
                                                  confusions=stacked))
    if errors:
        assert table in errors
        return
    assert not isinstance(table, type)
    for inverse, (_, ref_inverse, _) in zip(check_confusions(stacked), expected):
        assert np.array_equal(inverse, ref_inverse)


GOOD = PairNoiseSpec(readout=((0.02, 0.05), (0.04, 0.01))).confusion_map()
NEGATIVE = np.eye(4)
NEGATIVE[:2, 0] = (1.2, -0.2)
BAD_MEMBERS = {
    "singular": np.full((4, 4), 0.25),
    "ill-conditioned": PairNoiseSpec(readout=((0.47, 0.47), (0.47, 0.47))).confusion_map(),
    "nan": np.full((4, 4), np.nan),
    "columns sum to 0.9": np.eye(4) * 0.9,
    "negative entry": NEGATIVE,
}


@given(st.sampled_from(sorted(BAD_MEMBERS)), st.integers(1, 5), st.data())
def test_stack_with_one_bad_member_raises_like_one_matrix(name, n, data):
    """check_confusions rejects a stack of good matrices with one bad member
    at any position, with the error type ConfusionMatrix raises for the
    member alone."""
    bad = BAD_MEMBERS[name]
    with pytest.raises(ValueError) as alone:
        ConfusionMatrix(matrix=bad)
    stack = np.insert(np.repeat(GOOD[None], n, axis=0), data.draw(st.integers(0, n)), bad,
                      axis=0)
    with pytest.raises(ValueError) as stacked:
        check_confusions(stack)
    assert type(stacked.value) is type(alone.value)
    assert (type(alone.value) is IllConditionedConfusion) == (
        name in ("singular", "ill-conditioned"))


def test_check_confusions_inverts_each_matrix_of_a_stack():
    stack = np.stack([GOOD, np.eye(4), GOOD[:, [1, 0, 3, 2]]])
    inverses = check_confusions(stack)
    for matrix, inverse in zip(stack, inverses):
        assert np.array_equal(inverse, np.linalg.inv(matrix))
    with pytest.raises(ValueError, match="4x4"):
        check_confusions(GOOD)
