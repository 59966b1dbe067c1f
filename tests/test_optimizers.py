"""Optimizer tests: gain schedules, convergence, surrogate fitting, evaluators."""

import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from parvqe.csvio import csv_chunks, write_csv
from parvqe.device import DeviceTopology
from parvqe.executor import (
    Estimates,
    aggregate_same_params,
    compile_pairs,
    exact_expectation_energy,
    plan_batches,
)
from parvqe.hubbard import (
    AnsatzParams,
    HubbardParams,
    closed_form_energy,
    exact_energy,
    exact_ground_energy,
)
from parvqe.mitigation import measure_confusion
from parvqe import optimizers
from parvqe.optimizers import (
    Evaluator,
    IterationRecord,
    POINT_DTYPE,
    MgdConfig,
    OptTrace,
    SpsaConfig,
    UnderDeterminedFit,
    batch_pair_evaluator,
    mgd_lockstep,
    measure_batch,
    mgd_run,
    n_points_from_eta,
    oracle_batch_evaluator,
    oracle_evaluator,
    spsa_parallel_evaluator,
    spsa_lockstep,
    spsa_run,
    _fit_surrogate,
)
import reference
from reference import fit_surrogate, noise_spec_for_pair, stacked_fit_surrogate, trace_csv

E_GROUND = exact_ground_energy()
START = AnsatzParams(0.6, 0.8)
EXACT = lambda p: exact_energy(p)
CONSTANT = lambda p: 0.0                 # an oracle that says nothing of p
# the exact energies of an (N, 2) array of centres, the lockstep cores' oracle
EXACT_CENTRES = lambda centres: closed_form_energy(centres[:, 0], centres[:, 1])


def uniform_topology(n_pairs, fidelity=1.0, readout=(0.0, 0.0)):
    qubits = tuple(range(2 * n_pairs))
    edges = tuple((2 * i, 2 * i + 1, fidelity) for i in range(n_pairs))
    return DeviceTopology(qubits=qubits, edges=edges,
                          readout={q: readout for q in qubits})


# --- gain schedules ---


def test_spsa_gain_values():
    cfg = SpsaConfig(iterations=10)
    a1, c1 = cfg.gains(1)
    assert a1 == pytest.approx(0.15 / 2 ** 0.602, abs=1e-12)
    assert c1 == pytest.approx(0.2, abs=1e-15)
    for k in range(1, 50):
        ak, ck = cfg.gains(k)
        assert ak == pytest.approx(0.15 / (k + 1) ** 0.602, abs=1e-12)
        assert ck == pytest.approx(0.2 / k ** 0.101, abs=1e-12)


def test_mgd_gain_values():
    cfg = MgdConfig(iterations=10)
    for k in range(1, 50):
        dk, gk = cfg.gains(k)
        assert dk == pytest.approx(0.6 / k ** 0.101, abs=1e-12)
        assert gk == pytest.approx(0.6 / (k + 1) ** 0.602, abs=1e-12)


def test_gain_sequences_strictly_decreasing():
    scfg = SpsaConfig(iterations=10)
    mcfg = MgdConfig(iterations=10)
    for k in range(1, 100):
        assert scfg.gains(k + 1)[0] < scfg.gains(k)[0]
        assert scfg.gains(k + 1)[1] < scfg.gains(k)[1]
        assert mcfg.gains(k + 1)[0] < mcfg.gains(k)[0]
        assert mcfg.gains(k + 1)[1] < mcfg.gains(k)[1]


def test_config_validation():
    """A config holds only its iteration count, which must be positive;
    the gains are module constants, not fields."""
    for config in (SpsaConfig, MgdConfig):
        assert config.field_names == ("iterations",)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                config(iterations=bad)
    with pytest.raises(TypeError):
        SpsaConfig(iterations=5, alpha=0.1)
    with pytest.raises(TypeError):
        MgdConfig(iterations=5, l=0.3)
    assert (optimizers.ALPHA, optimizers.GAMMA, optimizers.BIG_A) == (0.602, 0.101, 1.0)
    assert (optimizers.SPSA_A, optimizers.SPSA_C) == (0.15, 0.2)
    assert (optimizers.MGD_DELTA, optimizers.MGD_STEP, optimizers.MGD_L) == (0.6, 0.6, 0.2)


def test_n_points_from_eta():
    assert n_points_from_eta(2.0) == 12
    assert n_points_from_eta(1.5) == 9
    assert n_points_from_eta(1.0) == 6
    assert n_points_from_eta(0.5) == 3
    with pytest.raises(ValueError):
        n_points_from_eta(0.0)


# --- SPSA ---


def test_spsa_noiseless_convergence():
    final_errs, reach_errs = [], []
    for seed in range(10):
        trace = spsa_run(SpsaConfig(iterations=100), oracle_evaluator(), START,
                         np.random.default_rng(seed), exact_fn=EXACT)
        final_errs.append(exact_energy(trace.final_params) - E_GROUND)
        reach_errs.append(min(r.e_exact for r in trace.records) - E_GROUND)
    assert sum(e < 0.01 for e in final_errs) >= 8
    assert sum(e < 0.01 for e in reach_errs) >= 8


def test_spsa_constant_evaluator_never_moves():
    def const(points):
        shape = points.shape[:-1]
        return Estimates(value=np.full(shape, 3.0), std_err=np.zeros(shape),
                         raw=np.full(shape, 3.0))

    trace = spsa_run(SpsaConfig(iterations=20), Evaluator(const), START,
                     np.random.default_rng(0), EXACT)
    assert trace.final_params == START
    assert all(r.phi == START.phi and r.theta == START.theta for r in trace.records)


def test_spsa_invariant_under_constant_shift():
    def shifted(offset):
        def evaluate(points):
            est = oracle_evaluator()(points)
            return Estimates(est.value + offset, est.std_err, est.raw + offset)
        return Evaluator(evaluate)

    t1 = spsa_run(SpsaConfig(iterations=30), shifted(0.0), START,
                  np.random.default_rng(12), EXACT)
    t2 = spsa_run(SpsaConfig(iterations=30), shifted(5.0), START,
                  np.random.default_rng(12), EXACT)
    # exact cancellation up to floating-point rounding of the shift
    for r1, r2 in zip(t1.records, t2.records):
        assert r1.phi == pytest.approx(r2.phi, abs=1e-9)
        assert r1.theta == pytest.approx(r2.theta, abs=1e-9)
    assert t1.final_params.phi == pytest.approx(t2.final_params.phi, abs=1e-9)


def test_spsa_trace_diagnostics_do_not_affect_updates():
    """Two different oracles give different e_exact columns and the same
    run: the oracle's values are never fed back."""
    t1 = spsa_run(SpsaConfig(iterations=25), oracle_evaluator(), START,
                  np.random.default_rng(3), exact_fn=EXACT)
    t2 = spsa_run(SpsaConfig(iterations=25), oracle_evaluator(), START,
                  np.random.default_rng(3), exact_fn=CONSTANT)
    assert t1.final_params == t2.final_params
    assert t1.points.tobytes() == t2.points.tobytes()
    assert np.all(t2.e_exact == 0.0) and not np.any(t1.e_exact == 0.0)
    assert len(t1.records) == 25


def test_spsa_directions_are_the_choice_draws():
    """Each Rademacher direction, and the stream state after it, is that of
    stream.choice([-1.0, 1.0], size=2), the reference draw."""
    cfg = SpsaConfig(iterations=5)
    for seed in range(500):
        points = []

        def record(batch):
            assert batch.shape == (1, 3, 2)    # one call per iteration
            points.extend(batch[0].tolist())
            return oracle_evaluator()(batch)

        stream, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        spsa_run(cfg, Evaluator(record), START, stream, CONSTANT)
        centres, plus = np.array(points[0::3]), np.array(points[1::3])
        expected = [reference.choice([-1.0, 1.0], size=2) for _ in range(cfg.iterations)]
        assert np.array_equal(np.sign(plus - centres), expected)
        assert stream.bit_generator.state == reference.bit_generator.state


def test_mgd_offsets_are_the_uniform_draws():
    """Each repeat's trust-box offsets at every iteration, and its stream
    state after the run, are those of one stream.uniform(-delta_k, delta_k,
    (points, 2)) draw per iteration on its own stream, the reference
    draws."""
    cfg, m = MgdConfig(iterations=5), 7

    def evaluate(batch):
        value = closed_form_energy(batch[..., 0], batch[..., 1])
        return Estimates(value=value, std_err=np.full(value.shape, 0.01), raw=value)

    for seed in range(300):
        seeds = [seed, seed + 1000]
        streams = [np.random.default_rng(s) for s in seeds]
        traces = mgd_lockstep(cfg, evaluate, [START] * 2, m, streams, EXACT_CENTRES)
        for trace, stream, s in zip(traces, streams, seeds):
            reference = np.random.default_rng(s)
            for k in range(cfg.iterations):
                delta_k = cfg.gains(k + 1)[0]
                centre = np.array([trace.phi[k], trace.theta[k]])
                expected = centre + reference.uniform(-delta_k, delta_k, size=(m, 2))
                got = np.stack([trace.points["phi"][k], trace.points["theta"][k]], axis=-1)
                assert np.array_equal(got, expected)
            assert stream.bit_generator.state == reference.bit_generator.state


def test_trace_records_and_csv_are_its_columns(tmp_path):
    """A trace's records and CSV are its columns read row by row: SPSA with
    its three points per iteration, MGD with its sampled points, each with
    its oracle's exact energies."""
    spsa = spsa_run(SpsaConfig(iterations=4), oracle_evaluator(), START,
                    np.random.default_rng(1), exact_fn=EXACT)
    mgd = mgd_run(MgdConfig(iterations=3), oracle_batch_evaluator(), START, 8,
                  np.random.default_rng(2), exact_fn=CONSTANT)
    assert len(IterationRecord._fields) == 6
    for name, trace in (("spsa", spsa), ("mgd", mgd)):
        for field in IterationRecord._fields:
            want = getattr(trace, field).tolist()
            assert [getattr(r, field) for r in trace.records] == want, field
        path = tmp_path / f"{name}.csv"
        write_csv(path, ["iteration", "phi", "theta", "e_raw", "e_ni", "e_exact"],
                  [trace.iteration, trace.phi, trace.theta, trace.e_raw, trace.e_ni,
                   trace.e_exact])
        assert "".join(csv_chunks(*trace.table)) == path.read_text()
    assert spsa.points.dtype == mgd.points.dtype == POINT_DTYPE
    assert spsa.points.shape == (4, 3) and mgd.points.shape == (3, 8)
    assert mgd.records[0].e_exact == 0.0


def test_trace_points_hold_the_estimates_each_core_consumed():
    """Every evaluated point's value, raw and std_err are the Estimates the
    evaluator returned for it, in the order it was asked. (That SPSA's
    point 0 is the centre is checked on trace_points.npy in
    test_harness.)"""
    asked = []

    def evaluate(batch):
        asked.append(batch.copy())
        value = closed_form_energy(batch[..., 0], batch[..., 1])
        return Estimates(value=value + 0.01, std_err=np.full(value.shape, 0.02), raw=value)

    runs = {"spsa": lambda streams: spsa_lockstep(SpsaConfig(iterations=3), Evaluator(evaluate),
                                                  [START] * 2, streams, EXACT_CENTRES),
            "mgd": lambda streams: mgd_lockstep(MgdConfig(iterations=3), evaluate,
                                                [START] * 2, 7, streams, EXACT_CENTRES)}
    for run in runs.values():
        asked.clear()
        traces = run([np.random.default_rng(s) for s in (4, 5)])
        batches = np.stack(asked, axis=1)
        for r, trace in enumerate(traces):
            points = trace.points
            assert points.shape == batches.shape[1:3]
            assert np.array_equal(np.stack([points["phi"], points["theta"]], axis=-1),
                                  batches[r])
            assert np.array_equal(points["raw"],
                                  closed_form_energy(points["phi"], points["theta"]))
            assert np.array_equal(points["value"], points["raw"] + 0.01)
            assert np.all(points["std_err"] == 0.02)


# any float a trace column may hold, the non-finite ones and -0.0 included
trace_values = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])


def point_array(values, k, m):
    """A (k, m) POINT_DTYPE array of 5 * k * m floats, field by field."""
    return np.array(values, dtype=float).reshape(k, m, 5).view(POINT_DTYPE)[..., 0]


@st.composite
def traces(draw):
    """An OptTrace of K = 1..5 iterations with any column and point
    values, and m = 0..3 points per iteration."""
    k, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    column = st.lists(trace_values, min_size=k, max_size=k).map(np.array)
    points = st.lists(trace_values, min_size=5 * k * m, max_size=5 * k * m).map(
        lambda v: point_array(v, k, m))
    finite = st.floats(-10.0, 10.0)
    return OptTrace(phi=draw(column), theta=draw(column), e_raw=draw(column),
                    e_ni=draw(column), e_exact=draw(column),
                    points=draw(points), final_params=AnsatzParams(draw(finite), draw(finite)))


ONE_STEP = dict(phi=np.array([-0.0]), theta=np.array([math.inf]), e_raw=np.array([math.nan]),
                e_ni=np.array([-math.inf]), final_params=AnsatzParams(-0.0, 1e-300))


@given(traces())
@example(OptTrace(**ONE_STEP, e_exact=np.array([-0.0]), points=point_array([], 1, 0)))
@example(OptTrace(**ONE_STEP, e_exact=np.array([0.1]),
                  points=point_array([math.nan, -0.0, math.inf, 2.5, 0.0], 1, 1)))
def test_trace_files_are_the_reference_serializers_bytes(trace):
    """A trace's CSV is csv.writer's over its records, NaN, inf and -0.0
    included, whether formatted from its table or written from it by
    write_csv."""
    assert "".join(csv_chunks(*trace.table)) == trace_csv(trace)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp, "t.csv")
        write_csv(csv_path, *trace.table)
        assert csv_path.read_bytes() == trace_csv(trace).encode()


# --- surrogate fitting ---


def quadratic(v):
    # f(x, y) = 2 + 0.5 x - 1.5 y + 3 x^2 + 0.25 x y - 2 y^2
    x, y = v
    return 2.0 + 0.5 * x - 1.5 * y + 3.0 * x * x + 0.25 * x * y - 2.0 * y * y


def fit_one(offsets, values, weights, ridge):
    """The batched fit of one repeat (R = 1)."""
    return _fit_surrogate(offsets[None], values[None], weights[None], np.array([ridge]))[0]


def test_surrogate_recovers_exact_quadratic():
    rng = np.random.default_rng(8)
    offsets = rng.uniform(-0.5, 0.5, size=(6, 2))
    values = np.array([quadratic(o) for o in offsets])
    coeffs = fit_one(offsets, values, np.ones(6), ridge=0.0)
    assert np.allclose(coeffs, [2.0, 0.5, -1.5, 3.0, 0.25, -2.0], atol=1e-8)


def test_surrogate_gradient_error_shrinks_with_radius():
    center = np.array([0.45, 0.35])
    h = 1e-5
    fd_grad = np.array([
        (exact_energy(AnsatzParams(center[0] + h, center[1]))
         - exact_energy(AnsatzParams(center[0] - h, center[1]))) / (2 * h),
        (exact_energy(AnsatzParams(center[0], center[1] + h))
         - exact_energy(AnsatzParams(center[0], center[1] - h))) / (2 * h)])
    errs = []
    for delta in (0.4, 0.2, 0.1, 0.05):
        rng = np.random.default_rng(5)
        offsets = rng.uniform(-delta, delta, size=(200, 2))
        values = np.array([exact_energy(AnsatzParams(*(center + o)))
                           for o in offsets])
        coeffs = fit_one(offsets, values, np.ones(200), ridge=0.0)
        errs.append(np.linalg.norm(coeffs[1:3] - fd_grad))
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_under_determined_fit_raises_without_ridge():
    rng = np.random.default_rng(1)
    offsets = rng.uniform(-0.3, 0.3, size=(5, 2))
    values = np.array([quadratic(o) for o in offsets])
    with pytest.raises(UnderDeterminedFit):
        fit_one(offsets, values, np.ones(5), ridge=0.0)
    # a nonzero ridge keeps the system solvable
    coeffs = fit_one(offsets, values, np.ones(5), ridge=1e-6)
    assert np.all(np.isfinite(coeffs))


@st.composite
def fit_cases(draw):
    """R repeats of m random points each, with random values and weights,
    and per repeat either no ridge (only with m >= 6) or a positive one."""
    repeats, m = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    no_ridge = st.just(0.0) if m >= 6 else st.nothing()
    ridge = [draw(no_ridge | st.floats(1e-8, 1e3)) for _ in range(repeats)]
    return (rng.uniform(-1.0, 1.0, size=(repeats, m, 2)),
            rng.normal(size=(repeats, m)), rng.uniform(0.01, 100.0, size=(repeats, m)),
            np.array(ridge))


@given(fit_cases())
def test_batched_fit_is_bitwise_the_one_repeat_fit(case):
    offsets, values, weights, ridge = case
    coeffs = _fit_surrogate(offsets, values, weights, ridge)
    assert coeffs.shape == (len(ridge), 6)
    for r in range(len(ridge)):
        assert np.array_equal(coeffs[r], fit_surrogate(offsets[r], values[r], weights[r],
                                                       ridge[r]))


@given(fit_cases(), st.integers(0, 2 ** 32))
def test_stacked_fit_is_bitwise_one_fit_per_column(case, seed):
    # mgd_lockstep fits its value and raw columns in one call
    offsets, values, weights, ridge = case
    second = np.random.default_rng(seed).normal(size=values.shape)
    coeffs = _fit_surrogate(offsets, np.stack([values, second]), weights, ridge)
    assert coeffs.shape == (2, len(ridge), 6)
    assert np.array_equal(coeffs[0], _fit_surrogate(offsets, values, weights, ridge))
    assert np.array_equal(coeffs[1], _fit_surrogate(offsets, second, weights, ridge))


@given(fit_cases(), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_in_place_fit_is_bitwise_the_stacked_design_fit(case, columns, seed):
    """The fit that writes its design in place equals the stacked-design
    reference bit for bit, on (R, m) values and on (C, R, m) columns."""
    offsets, values, weights, ridge = case
    if columns:
        values = np.random.default_rng(seed).normal(size=(columns, *values.shape))
    coeffs = _fit_surrogate(offsets, values, weights, ridge)
    assert coeffs.tobytes() == stacked_fit_surrogate(offsets, values, weights, ridge).tobytes()


def test_stacked_fit_raises_on_a_singular_zero_ridge_repeat():
    rng = np.random.default_rng(3)
    offsets = rng.uniform(-0.3, 0.3, size=(2, 8, 2))
    offsets[1, :, 1] = 0.0         # repeat 1 sees no y variation: singular
    values = rng.normal(size=(2, 2, 8))
    with pytest.raises(UnderDeterminedFit):
        _fit_surrogate(offsets, values, np.ones((2, 8)), np.array([0.0, 0.0]))
    # a ridge on the singular repeat regularises it
    coeffs = _fit_surrogate(offsets, values, np.ones((2, 8)), np.array([0.0, 1e-6]))
    assert np.all(np.isfinite(coeffs))


# --- MGD ---


def test_mgd_noiseless_reaches_ground():
    reach = []
    for seed in range(10):
        trace = mgd_run(MgdConfig(iterations=50), oracle_batch_evaluator(), START,
                        12, np.random.default_rng(seed), exact_fn=EXACT)
        reach.append(min(r.e_exact for r in trace.records) - E_GROUND)
        assert len(trace.records) == 50
    assert sum(e < 0.01 for e in reach) >= 8


def test_mgd_records_sampled_points():
    trace = mgd_run(MgdConfig(iterations=3), oracle_batch_evaluator(), START, 8,
                    np.random.default_rng(2), EXACT)
    assert trace.points.shape == (3, 8)


def test_mgd_under_determined_noiseless_aborts():
    with pytest.warns(UserWarning):
        with pytest.raises(UnderDeterminedFit):
            mgd_run(MgdConfig(iterations=2), oracle_batch_evaluator(), START, 5,
                    np.random.default_rng(0), EXACT)


def test_mgd_noiseless_weights_divide_by_nothing():
    """An oracle evaluator's zero errors give unit weights and no ridge,
    without a division by zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = mgd_run(MgdConfig(iterations=5), oracle_batch_evaluator(), START, 9,
                        np.random.default_rng(3), exact_fn=EXACT)
    assert np.all(np.isfinite(trace.e_ni)) and len(trace.records) == 5


def test_mgd_trace_diagnostics_do_not_affect_updates():
    """Two different oracles give different e_exact columns and the same
    run: the oracle's values are never fed back."""
    t1 = mgd_run(MgdConfig(iterations=10), oracle_batch_evaluator(), START, 9,
                 np.random.default_rng(6), exact_fn=EXACT)
    t2 = mgd_run(MgdConfig(iterations=10), oracle_batch_evaluator(), START, 9,
                 np.random.default_rng(6), exact_fn=CONSTANT)
    assert t1.final_params == t2.final_params
    assert t1.points.tobytes() == t2.points.tobytes()
    assert np.all(t2.e_exact == 0.0) and not np.any(t1.e_exact == 0.0)


@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 2 ** 32))
def test_oracle_evaluator_takes_points_of_any_leading_shape(repeats, m, seed):
    """The oracle gives bit-identical estimates for the same points as
    (m, 2), (1, m, 2) and (R, m, 2) arrays, each field in the points'
    leading shape, with zero std_err."""
    points = np.random.default_rng(seed).uniform(-2, 2, size=(repeats, m, 2))
    evaluate = oracle_evaluator()
    whole = evaluate(points)
    for a in whole:
        assert a.shape == (repeats, m)
    assert np.all(whole.std_err == 0.0) and whole.raw.tobytes() == whole.value.tobytes()
    for r in range(repeats):
        flat, one = evaluate(points[r]), evaluate(points[r:r + 1])
        for a, b, c in zip(whole, flat, one):
            assert b.shape == (m,) and c.shape == (1, m)
            assert a[r].tobytes() == b.tobytes() == c[0].tobytes()
    assert oracle_batch_evaluator is oracle_evaluator


# --- executor-backed evaluators ---


def evaluate_one(ev, params):
    """One point's estimate from a lockstep evaluator running one repeat."""
    est = ev(np.array([[[params.phi, params.theta]]]))
    return Estimates(*(float(a[0, 0]) for a in est))


def test_spsa_parallel_evaluator_pools_std_err():
    h = HubbardParams()
    a = AnsatzParams(0.4, 0.3)
    topo1 = uniform_topology(1)
    topo25 = uniform_topology(25)
    ev1 = spsa_parallel_evaluator(compile_pairs(topo1, [(0, 1)], h), 1000,
                                  [np.random.default_rng(5)])
    ev25 = spsa_parallel_evaluator(compile_pairs(topo25, [e[:2] for e in topo25.edges], h),
                                   1000, [np.random.default_rng(5)])
    e1, e25 = evaluate_one(ev1, a), evaluate_one(ev25, a)
    assert e25.std_err == pytest.approx(e1.std_err / 5.0, rel=0.25)


def test_parallel_evaluator_determinism():
    topo = uniform_topology(3, fidelity=0.95, readout=(0.02, 0.02))
    pairs = [e[:2] for e in topo.edges]
    h = HubbardParams()
    vals = []
    for _ in range(2):
        ev = spsa_parallel_evaluator(compile_pairs(topo, pairs, h), 500,
                                     [np.random.default_rng(11)])
        vals.append([evaluate_one(ev, AnsatzParams(0.1, 0.2)).value,
                     evaluate_one(ev, AnsatzParams(0.1, 0.2)).value])
    assert vals[0] == vals[1]
    # successive calls at the same point draw fresh shots
    assert vals[0][0] != vals[0][1]


def test_pooled_estimate_tracks_mixture_of_fidelities():
    h = HubbardParams()
    opt_phi, opt_theta = 0.2318238045004031, math.pi / 8
    a = AnsatzParams(opt_phi, opt_theta)
    good = uniform_topology(2, fidelity=0.99)
    qubits = tuple(range(8))
    mixed = DeviceTopology(
        qubits=qubits,
        edges=((0, 1, 0.99), (2, 3, 0.99), (4, 5, 0.85), (6, 7, 0.85)),
        readout={q: (0.0, 0.0) for q in qubits})
    ev_good = spsa_parallel_evaluator(compile_pairs(good, [(0, 1), (2, 3)], h), 20_000,
                                      [np.random.default_rng(2)])
    ev_mixed = spsa_parallel_evaluator(
        compile_pairs(mixed, [(0, 1), (2, 3), (4, 5), (6, 7)], h), 20_000,
        [np.random.default_rng(2)])
    # adding worse pairs drags the pooled estimate upward
    assert evaluate_one(ev_mixed, a).value > evaluate_one(ev_good, a).value + 0.05


def test_spsa_evaluator_is_pooled_spread_evaluator():
    # a chain of three pairs, each joined to the next, so crosstalk flags rows
    topo = DeviceTopology(qubits=tuple(range(6)),
                          edges=((0, 1, 0.95), (2, 3, 0.93), (4, 5, 0.97),
                                 (1, 2, 0.9), (3, 4, 0.9)),
                          readout={q: (0.01 + 0.01 * q, 0.03) for q in range(6)})
    pairs = [(0, 1), (2, 3), (4, 5)]
    confusions = np.array([measure_confusion(noise_spec_for_pair(topo, pair), 2000,
                                             np.random.default_rng(i)).matrix
                           for i, pair in enumerate(pairs)])
    table = compile_pairs(topo, pairs, HubbardParams(), confusions, crosstalk_p=0.05)
    seeds = [21, 4]
    streams_of = lambda: [np.random.default_rng(seed) for seed in seeds]
    # each evaluator gets its own generators: shared ones would interleave draws
    spsa = spsa_parallel_evaluator(table, 300, streams_of())
    spread = batch_pair_evaluator(table, 300, streams_of())
    rng = np.random.default_rng(0)
    # repeat r keeps one generator, seeded with seeds[r], across calls
    streams = streams_of()
    for m in (3, 2):      # two successive calls: each repeat's stream carries over
        points = rng.uniform(-1, 1, size=(2, m, 2))
        got = spsa(points)
        spread_est = spread(np.repeat(points, 3, axis=1))
        pooled = aggregate_same_params(Estimates(*(a.reshape(2, m, 3) for a in spread_est)))
        # each point of repeat r is one batch of all rows on repeat r's stream
        flat = np.repeat(points.reshape(-1, 2), 3, axis=0)
        direct = measure_batch(plan_batches(table, [[np.arange(3)] * m] * 2, 300),
                               flat[:, 0], flat[:, 1], streams)
        direct = aggregate_same_params(Estimates(*(a.reshape(2, m, 3) for a in direct)))
        for a, b, c in zip(got, pooled, direct):
            assert a.shape == (2, m)
            assert np.array_equal(a, b) and np.array_equal(a, c)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32), st.booleans())
def test_one_row_spsa_evaluator_skips_pooling_bitwise(repeats, m, seed, ni):
    """On a one-row table the SPSA evaluator returns the spread estimates
    unpooled: value and raw have the bits of the pooled path."""
    topo = uniform_topology(1, fidelity=0.93, readout=(0.02, 0.04))
    confusions = (measure_confusion(noise_spec_for_pair(topo, (0, 1)), 2000,
                                    np.random.default_rng(seed)).matrix[None] if ni else None)
    table = compile_pairs(topo, [(0, 1)], HubbardParams(), confusions)
    streams_of = lambda: [np.random.default_rng(seed + r) for r in range(repeats)]
    spsa = spsa_parallel_evaluator(table, 200, streams_of())
    spread = batch_pair_evaluator(table, 200, streams_of())
    rng = np.random.default_rng(seed)
    for _ in range(2):
        points = rng.uniform(-1, 1, size=(repeats, m, 2))
        got = spsa(points)
        pooled = aggregate_same_params(Estimates(*(a[..., None] for a in spread(points))))
        for a, b in ((got.value, pooled.value), (got.raw, pooled.raw)):
            assert a.shape == (repeats, m)
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ten pairs on a chain, each joined to the next by a coupler, so crosstalk
# flags rows; widths of 8 or more rows take mean's blocked summation
CHAIN = DeviceTopology(
    qubits=tuple(range(20)),
    edges=tuple((2 * i, 2 * i + 1, 0.9 + 0.008 * i) for i in range(10))
    + tuple((2 * i + 1, 2 * i + 2, 0.8) for i in range(9)),
    readout={q: (0.01 + 0.002 * q, 0.03 - 0.001 * q) for q in range(20)})
CHAIN_PAIRS = [(2 * i, 2 * i + 1) for i in range(10)]


@given(st.lists(st.integers(1, 10), min_size=1, max_size=4), st.integers(1, 3),
       st.integers(0, 2 ** 32), st.booleans(), st.sampled_from([0.0, 0.05]))
@example([9, 9, 1, 10], 3, 7, True, 0.05)
@example([1, 1], 3, 11, True, 0.05)     # nothing to pool: rows are the points
def test_width_aware_spsa_evaluator_equals_one_repeat_on_the_prefix(widths, m, seed, ni,
                                                                  crosstalk):
    """Repeat r of an evaluator with row widths w_r gives, bit for bit in
    value, raw and std_err, what a one-repeat evaluator on a table of the
    first w_r pairs alone gives with the same seed and shots, over
    successive calls; and both are aggregate_same_params over that table's
    spread estimates of each point repeated once per row."""
    h = HubbardParams()
    confusions = (np.array([measure_confusion(noise_spec_for_pair(CHAIN, pair), 2000,
                                              np.random.default_rng(seed + i)).matrix
                            for i, pair in enumerate(CHAIN_PAIRS)]) if ni else None)
    seeds = [seed + 100 * r for r in range(len(widths))]
    shots = [100 + 50 * r for r in range(len(widths))]
    table = compile_pairs(CHAIN, CHAIN_PAIRS, h, confusions, crosstalk)
    evaluate = spsa_parallel_evaluator(table, shots, [np.random.default_rng(s) for s in seeds],
                                       widths)
    prefixes = [compile_pairs(CHAIN, CHAIN_PAIRS[:w], h,
                              None if confusions is None else confusions[:w], crosstalk)
                for w in widths]
    alone = [spsa_parallel_evaluator(prefix, n, [np.random.default_rng(s)])
             for prefix, n, s in zip(prefixes, shots, seeds)]
    spread = [batch_pair_evaluator(prefix, n, [np.random.default_rng(s)])
              for prefix, n, s in zip(prefixes, shots, seeds)]
    rng = np.random.default_rng(seed)
    for _ in range(2):       # each repeat's stream carries over between calls
        points = rng.uniform(-1, 1, size=(len(widths), m, 2))
        got = evaluate(points)
        for r, w in enumerate(widths):
            one = alone[r](points[r:r + 1])
            rows = spread[r](np.repeat(points[r:r + 1], w, axis=1))
            pooled = aggregate_same_params(Estimates(*(a.reshape(1, m, w) for a in rows)))
            for a, b, c in zip(got, one, pooled):
                assert a.shape == (len(widths), m) and b.shape == c.shape == (1, m)
                assert a[r].tobytes() == b[0].tobytes() == c[0].tobytes()


def test_spsa_evaluator_rejects_widths_outside_the_table():
    table = compile_pairs(CHAIN, CHAIN_PAIRS[:3])
    for widths in ([0], [4], [1, 4]):
        with pytest.raises(ValueError, match="row widths"):
            spsa_parallel_evaluator(table, 100, [np.random.default_rng(1) for _ in widths],
                                    widths)


def test_executor_evaluators_refuse_points_for_other_repeat_counts():
    """Points whose repeat axis differs from the evaluator's streams, called
    or stepped, on either executor-backed evaluator, are a ValueError
    naming both counts, raised before any stream is drawn from."""
    table = compile_pairs(CHAIN, CHAIN_PAIRS[:3])
    for make in (batch_pair_evaluator, spsa_parallel_evaluator):
        streams = [np.random.default_rng(s) for s in (1, 2)]
        before = [stream.bit_generator.state for stream in streams]
        evaluate = make(table, 100, streams)
        for entry in (evaluate, evaluate.step):
            for repeats in (3, 1):
                with pytest.raises(ValueError, match=f"for {repeats} repeats but 2 streams"):
                    entry(np.zeros((repeats, 3, 2)))
        assert [stream.bit_generator.state for stream in streams] == before
        assert evaluate(np.zeros((2, 3, 2))).value.shape == (2, 3)


def test_executor_evaluators_refuse_a_step_of_another_point_count():
    """The steps recorded between two estimates() calls share one point
    count: a step of another is refused before any stream is drawn from,
    and after estimates() any count may follow."""
    table = compile_pairs(CHAIN, CHAIN_PAIRS[:3])
    for make in (batch_pair_evaluator, spsa_parallel_evaluator):
        streams = [np.random.default_rng(s) for s in (1, 2)]
        evaluate = make(table, 100, streams)
        evaluate.step(np.zeros((2, 3, 2)))
        before = [stream.bit_generator.state for stream in streams]
        with pytest.raises(ValueError, match="a step of 2 points after steps of 3"):
            evaluate.step(np.zeros((2, 2, 2)))
        assert [stream.bit_generator.state for stream in streams] == before
        assert evaluate.estimates().value.shape == (1, 2, 3)
        assert evaluate.step(np.zeros((2, 2, 2))).shape == (2, 2)


def test_evaluators_hold_less_than_one_block_of_unestimated_counts(monkeypatch):
    """After every step an executor-backed evaluator holds fewer than
    BLOCK_ROWS rows of counts it has not estimated: a step that fills the
    block is estimated with the steps before it, one of BLOCK_ROWS rows or
    more at once, and estimates() leaves none."""
    monkeypatch.setattr(optimizers, "BLOCK_ROWS", 10)
    table = compile_pairs(CHAIN, CHAIN_PAIRS[:4])
    rng = np.random.default_rng(3)
    for make in (batch_pair_evaluator, spsa_parallel_evaluator):
        evaluate = make(table, 50, [np.random.default_rng(s) for s in (1, 2)])
        for m, steps in ((1, 9), (3, 5)):    # 2 or 8 rows a step, then 6 or 24
            for _ in range(steps):
                evaluate.step(rng.uniform(-1, 1, size=(2, m, 2)))
                assert sum(map(len, evaluate._pending)) < optimizers.BLOCK_ROWS
            assert evaluate.estimates().value.shape == (steps, 2, m)
            assert not evaluate._pending


@st.composite
def spsa_cases(draw):
    """An SPSA run for the cross-check: an evaluator kind and its table, NI
    on or off, per-repeat shots and widths (mixed widths for the pooled
    kind), starts, iterations and a block of 1-40 rows, so that the
    recorded counts are estimated mid-run and on uneven step boundaries."""
    kind = draw(st.sampled_from(["pooled", "one-row", "spread", "oracle"]))
    repeats = draw(st.integers(1, 4))
    n = {"pooled": 10, "one-row": 1, "spread": draw(st.integers(1, 4)), "oracle": 1}[kind]
    widths = draw(st.lists(st.integers(1, n), min_size=repeats, max_size=repeats))
    seed = draw(st.integers(0, 2 ** 32))
    confusions = (np.array([measure_confusion(noise_spec_for_pair(CHAIN, pair), 2000,
                                              np.random.default_rng(seed + i)).matrix
                            for i, pair in enumerate(CHAIN_PAIRS[:n])])
                  if draw(st.booleans()) else None)
    table = compile_pairs(CHAIN, CHAIN_PAIRS[:n], HubbardParams(), confusions,
                          draw(st.sampled_from([0.0, 0.05])))
    shots = draw(st.lists(st.integers(20, 500), min_size=repeats, max_size=repeats))
    starts = [AnsatzParams(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
              for _ in range(repeats)]
    return (kind, table, shots, widths, seed, starts, draw(st.integers(1, 12)),
            draw(st.integers(1, 40)))


@given(spsa_cases())
@example(("pooled", compile_pairs(CHAIN, CHAIN_PAIRS), [100, 200, 50], [9, 1, 10], 5,
          [START] * 3, 7, 25))
def test_spsa_core_is_bitwise_the_per_step_reference(case):
    """The core that reads only values each step and every Estimates once
    at the end gives, column for column and point for point, the bytes of
    the reference loop that reads full Estimates every step, on every
    evaluator, whatever the block of rows its counts are estimated in."""
    kind, table, shots, widths, seed, starts, iterations, block = case

    def evaluator():
        streams = [np.random.default_rng(seed + r) for r in range(len(starts))]
        if kind == "oracle":
            return oracle_evaluator()
        if kind == "spread":
            return batch_pair_evaluator(table, shots, streams)
        return spsa_parallel_evaluator(table, shots, streams, widths)

    cfg = SpsaConfig(iterations=iterations)
    optimizer_streams = lambda: [np.random.default_rng(seed + 100 + r) for r in range(len(starts))]
    with mock.patch.object(optimizers, "BLOCK_ROWS", block):
        got = spsa_lockstep(cfg, evaluator(), starts, optimizer_streams(), EXACT_CENTRES)
    want = reference.spsa_lockstep(cfg, evaluator(), starts, optimizer_streams(), EXACT_CENTRES)
    for a, b in zip(got, want):
        for name in ("iteration", "phi", "theta", "e_raw", "e_ni", "e_exact", "points"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.final_params == b.final_params


def test_std_err_matches_spread_of_successive_estimates():
    """One repeat's pooled estimates at a fixed point over successive calls
    scatter around the exact expectation as their standard errors say, and
    successive calls draw fresh, uncorrelated shots from the repeat's
    stream."""
    h, a = HubbardParams(), AnsatzParams(0.4, 0.3)
    topo = DeviceTopology(qubits=tuple(range(6)),
                          edges=((0, 1, 0.95), (2, 3, 0.92), (4, 5, 0.97)),
                          readout={q: (0.01 + 0.01 * q, 0.03) for q in range(6)})
    pairs = [(0, 1), (2, 3), (4, 5)]
    evaluate = spsa_parallel_evaluator(compile_pairs(topo, pairs, h), 1000,
                                       [np.random.default_rng(17)])
    expected = np.mean([exact_expectation_energy(a, h, noise_spec_for_pair(topo, pair)).value
                        for pair in pairs])
    point = np.array([[[a.phi, a.theta]]])
    z = np.array([(est.value[0, 0] - expected) / est.std_err[0, 0]
                  for est in (evaluate(point) for _ in range(400))])
    assert 0.9 <= z.std() <= 1.1
    assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < 0.15


def test_batch_pair_evaluator_round_robin():
    topo = uniform_topology(3)
    pairs = [e[:2] for e in topo.edges]
    h = HubbardParams()
    ev = batch_pair_evaluator(compile_pairs(topo, pairs, h), 50_000, [np.random.default_rng(1)])
    points = np.array([(0.0, t) for t in (0.1, 0.2, 0.3, 0.4, 0.5)])
    est = ev(points[None])
    assert est.value.shape == (1, 5)
    out = Estimates(*(a[0] for a in est))
    assert len(out.value) == len(out.std_err) == len(out.raw) == 5
    # E(0, theta) = -1 for every theta
    for value, std_err in zip(out.value, out.std_err):
        assert value == pytest.approx(-1.0, abs=5 * std_err + 1e-9)


def test_mgd_with_noisy_evaluator_and_few_points_warns_but_runs():
    topo = uniform_topology(4, fidelity=0.97, readout=(0.01, 0.01))
    pairs = [e[:2] for e in topo.edges]
    ev = batch_pair_evaluator(compile_pairs(topo, pairs), 400, [np.random.default_rng(9)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace, = mgd_lockstep(MgdConfig(iterations=3), ev, [START], 4,
                              [np.random.default_rng(4)], EXACT_CENTRES)
    assert any("under-determine" in str(w.message) for w in caught)
    assert len(trace.records) == 3
