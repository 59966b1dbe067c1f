"""Batch execution, energy estimation and cost-model tests."""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from parvqe.device import DeviceTopology
from parvqe.executor import (
    COUNTS_DTYPE,
    CostModel,
    Estimates,
    aggregate_same_params,
    compile_pairs,
    exact_expectation_energy,
    load_cost_model,
    plan_batches,
    predict_wall_time,
    run_batch,
    setting_coefficients,
)
from parvqe.hubbard import AnsatzParams, HubbardParams, exact_energy, optimal_params
from parvqe.mitigation import measure_confusion, measure_confusions
from parvqe.simulator import NOISELESS, PairNoiseSpec, ShotHistogram, apply_terms, kernel_terms
from reference import effective_p, estimate_energy, estimate_rows, noise_spec_for_pair
from test_golden import SMALL_CALIBRATION

E_GROUND = 1.0 - math.sqrt(5.0)

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def fit_tool(monkeypatch):
    """tools/fit_cost_model.py, which holds the cost-model fit, imported
    with tools/ on sys.path and not left in sys.modules."""
    monkeypatch.syspath_prepend(str(TOOLS))
    yield importlib.import_module("fit_cost_model")
    sys.modules.pop("fit_cost_model", None)


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


def run_estimates(topo, assignments, shots, seed, crosstalk_p=0.0, rows=None):
    """Compile the assigned pairs, run rows (all by default) at their
    params in one batch and estimate them without NI."""
    table = compile_pairs(topo, [pair for pair, _ in assignments], crosstalk_p=crosstalk_p)
    rows = np.arange(len(assignments)) if rows is None else np.asarray(rows)
    params = [assignments[r][1] for r in rows]
    plan = plan_batches(table, [[rows]], shots)
    counts = run_batch(plan, np.array([a.phi for a in params]),
                       np.array([a.theta for a in params]), [np.random.default_rng(seed)])
    return plan.estimate(counts["histograms"])


def row_estimates(table, rows, counts, shots):
    """The plan estimate of rows that may repeat or differ in shots: one
    group of one single-row batch per row, at that row's shots."""
    return plan_batches(table, [[[row]] for row in rows], list(shots)).estimate(counts)


# --- run_batch ---


def test_run_batch_validation():
    topo = DeviceTopology(qubits=(0, 1, 2), edges=((0, 1, 1.0), (1, 2, 1.0)), readout={})
    table = compile_pairs(topo, [(0, 1), (1, 2)])
    one = np.array([0.1])
    stream = [np.random.default_rng(1)]
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[]]], 100), one[:0], one[:0], stream)
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0, 1]]], 100), np.repeat(one, 2), np.repeat(one, 2),
                  stream)
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]]], 0), one, one, stream)


def test_run_batch_requires_topology_edges():
    topo = two_pair_topology()
    with pytest.raises(ValueError):
        compile_pairs(topo, [(0, 2)])


def test_run_batch_deterministic_for_same_seed():
    """A key path's counts are a function of its generator's seed and its
    batches in order: successive calls on one generator continue its
    stream, drawing what one call over all their batches draws."""
    topo = two_pair_topology(fidelity=0.93, readout=(0.02, 0.03))
    table = compile_pairs(topo, [(0, 1), (2, 3)])
    rows, phi, theta = [0, 1], np.array([0.3, -0.2]), np.array([0.4, 0.9])

    def counts(table, stream, batches=1):
        return batch_counts(run_batch(plan_batches(table, [[rows] * batches], 2000),
                                      np.tile(phi, batches), np.tile(theta, batches),
                                      [stream]))

    baseline = counts(table, np.random.default_rng(99))
    assert np.array_equal(counts(table, np.random.default_rng(99)), baseline)
    assert np.array_equal(counts(compile_pairs(topo, [(0, 1), (2, 3)]),
                                 np.random.default_rng(99)), baseline)
    assert not np.array_equal(counts(table, np.random.default_rng(100)), baseline)
    stream = np.random.default_rng(99)
    first, second = counts(table, stream), counts(table, stream)
    assert np.array_equal(first, baseline)
    assert not np.array_equal(second, baseline)
    assert np.array_equal(np.concatenate([first, second]),
                          counts(table, np.random.default_rng(99), batches=2))


def test_run_batch_energy_matches_oracle_within_error():
    topo = two_pair_topology()
    est = run_estimates(topo, [((0, 1), optimal_params())], 10 ** 6, 5)
    assert abs(est.value[0] - E_GROUND) < 3 * est.std_err[0] + 1e-9


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
    both = [((0, 1), a), ((2, 3), a)]
    with_xt = run_estimates(topo, both, 5000, 3, crosstalk_p=0.5).value[0]
    solo = run_estimates(topo, both[:1], 5000, 3, crosstalk_p=0.5).value[0]
    no_xt = run_estimates(topo, both, 5000, 3).value[0]
    # same streams, so differences are purely the extra channel
    assert with_xt != no_xt
    assert solo == no_xt


def test_crosstalk_flags_only_active_rows_of_a_partial_batch():
    # a chain of three pairs, each joined to the next: (0,1)-(2,3)-(4,5)
    topo = DeviceTopology(qubits=tuple(range(6)),
                          edges=((0, 1, 0.95), (2, 3, 0.95), (4, 5, 0.95),
                                 (1, 2, 0.9), (3, 4, 0.9)),
                          readout={})
    a = AnsatzParams(0.3, 0.4)
    chain = [((0, 1), a), ((2, 3), a), ((4, 5), a)]
    # rows 0 and 2 are not neighbours: with row 1 idle neither is flagged
    apart = run_estimates(topo, chain, 5000, 3, crosstalk_p=0.5, rows=[0, 2])
    assert np.array_equal(apart.value, run_estimates(topo, chain, 5000, 3, rows=[0, 2]).value)
    # rows 1 and 2 are neighbours: active together, both are flagged
    near = run_estimates(topo, chain, 5000, 3, crosstalk_p=0.5, rows=[1, 2])
    quiet = run_estimates(topo, chain, 5000, 3, rows=[1, 2])
    assert np.all(near.value != quiet.value)
    table = compile_pairs(topo, [pair for pair, _ in chain], crosstalk_p=0.5)
    assert table.neighbours.tolist() == [[False, True, False], [True, False, True],
                                         [False, True, False]]


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
    assert corrected.raw == pytest.approx(noisy.value, abs=1e-12)
    # exact confusion inversion undoes pure readout noise entirely
    assert corrected.value == pytest.approx(exact_energy(a, h), abs=1e-10)
    assert abs(noisy.value - exact_energy(a, h)) > 1e-3


rates = st.floats(0.0, 0.15)
angles = st.floats(-4.0, 4.0)


@given(angles, angles, st.floats(0.5, 1.0, exclude_min=True),
       st.tuples(st.tuples(rates, rates), st.tuples(rates, rates)), st.floats(0.0, 1.0),
       st.booleans(), st.booleans(), st.none() | st.integers(1000, 10 ** 5),
       st.integers(0, 2 ** 32))
def test_exact_expectation_energy_estimates_the_kernel_distributions(
        phi, theta, fidelity, readout, crosstalk_p, crosstalk_active, ni, confusion_shots,
        seed):
    """exact_expectation_energy runs the kernel's distributions through the
    estimator as one shot's expected counts: its value and raw are the
    one-pair reference estimate of those distributions within 4e-15, without
    NI or with an exact or sampled confusion, and its std_err is exactly 0."""
    noise = PairNoiseSpec(cz_fidelity=fidelity, readout=readout, crosstalk_p=crosstalk_p)
    confusion = measure_confusion(noise, confusion_shots,
                                  np.random.default_rng(seed)) if ni else None
    onsite, hopping = apply_terms(
        *kernel_terms(np.array([effective_p(noise, crosstalk_active)]),
                      noise.confusion_map()[None]), np.array([phi]), np.array([theta]))[0]
    h = HubbardParams()
    est = exact_expectation_energy(AnsatzParams(phi, theta), h, noise, confusion,
                                   crosstalk_active)
    ref = estimate_energy(onsite, hopping, h, confusion)
    assert abs(est.value - ref.value) <= 4e-15
    assert abs(est.raw - ref.raw) <= 4e-15
    assert est.std_err == 0.0 and type(est.value) is float and type(est.raw) is float


@st.composite
def columnar_cases(draw):
    """A table of 1-3 disjoint pairs with random readout rates and Hubbard
    constants, NI on or off (sampled or exact confusions), a row order, the
    rows' shots (one count for all rows, or one per row) and random counts
    of each row's two settings."""
    n = draw(st.integers(1, 3))
    readout = {q: (draw(rates), draw(rates)) for q in range(2 * n)}
    topo = DeviceTopology(qubits=tuple(range(2 * n)),
                          edges=tuple((2 * i, 2 * i + 1, 0.95) for i in range(n)),
                          readout=readout)
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    h = HubbardParams(t=draw(st.floats(0.0, 3.0)), u=draw(st.floats(0.0, 3.0)))
    confusions = None
    if draw(st.booleans()):
        confusion_shots = draw(st.none() | st.integers(1000, 10 ** 5))
        stream = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        confusions = [measure_confusion(noise_spec_for_pair(topo, pair), confusion_shots, stream)
                      for pair in pairs]
    rows = np.array(draw(st.permutations(range(n))))
    one = st.integers(1, 10 ** 5)
    shots = draw(one.map(lambda s: [s] * n) | st.lists(one, min_size=n, max_size=n))
    cuts = lambda s: st.lists(st.integers(0, s), min_size=3, max_size=3)
    counts = np.array([[np.diff([0, *sorted(draw(cuts(s))), s]) for _ in range(2)]
                       for s in shots])
    stack = None if confusions is None else np.array([c.matrix for c in confusions])
    return compile_pairs(topo, pairs, h, stack), confusions, h, rows, counts, shots


@given(columnar_cases())
def test_columnar_estimator_matches_estimate_energy(case):
    """Row by row, the columnar estimator equals the one-pair reference,
    also when the rows of one call carry different shot counts."""
    table, confusions, h, rows, counts, shots = case
    est = row_estimates(table, rows, counts, shots)
    for i, row in enumerate(rows):
        onsite, hopping = (ShotHistogram(tuple(int(c) for c in counts[i, k]), shots[i])
                           for k in range(2))
        ref = estimate_energy(onsite, hopping, h,
                              None if confusions is None else confusions[row])
        assert abs(est.value[i] - ref.value) <= 1e-12
        assert abs(est.std_err[i] - ref.std_err) <= 1e-12
        assert abs(est.raw[i] - ref.raw) <= 1e-12


@given(columnar_cases())
def test_plan_estimate_is_bitwise_the_per_call_shot_broadcast(case):
    """A plan's estimate, which reads its rows' shots as a planned (n, 1, 1)
    broadcast, equals the estimate that broadcasts (n,) shots on each call,
    bit for bit, with NI on and off."""
    table, _, _, rows, counts, shots = case
    plan = plan_batches(table, [[[row]] for row in rows], list(shots))
    est = plan.estimate(counts)
    ref = estimate_rows(table.offset, table.raw_coeffs, table.coeffs[rows],
                        table.coeffs[rows] ** 2, np.array(shots), counts)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(est, ref))


@given(columnar_cases(), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_plan_value_and_stacked_runs_are_bitwise_the_plan_estimate(case, runs, seed):
    """A plan's value-only path gives its estimate's value bit for bit, and
    its estimate of k runs' stacked (k n, 2, 4) counts gives each run's own
    estimate bit for bit, with NI on and off."""
    table, _, _, rows, counts, shots = case
    plan = plan_batches(table, [[[row]] for row in rows], list(shots))
    rng = np.random.default_rng(seed)
    stack = [counts, *(np.array([rng.multinomial(s, np.full(4, 0.25), size=2) for s in shots])
                       for _ in range(runs - 1))]
    block = plan.estimate(np.concatenate(stack))
    n = len(rows)
    for k, run in enumerate(stack):
        alone = plan.estimate(run)
        assert plan.value(run).tobytes() == alone.value.tobytes()
        assert all(a[k * n:(k + 1) * n].tobytes() == b.tobytes() for a, b in zip(block, alone))


# fidelity 1 (p = 0), at or below 0.25 (p clamped to 1) and in between
FIDELITIES = st.sampled_from([1.0, 0.25, 0.2, 0.5]) | st.floats(0.01, 1.0)


def compile_case(fidelities, readout, crosstalk_p, ni, flips=None, seeds=None,
                 h=HubbardParams()):
    """A chain of qubits whose couplers have the given fidelities, every
    coupler one pair (endpoints swapped where flips says so), with its
    readout rates, Hubbard constants, crosstalk, NI mode (None, "exact" or
    "sampled") and one confusion seed per pair."""
    n = len(fidelities)
    topo = DeviceTopology(qubits=tuple(range(n + 1)),
                          edges=tuple((q, q + 1, f) for q, f in enumerate(fidelities)),
                          readout=dict(enumerate(readout)))
    pairs = [(q + 1, q) if flip else (q, q + 1)
             for q, flip in enumerate(flips or [False] * n)]
    return topo, pairs, h, crosstalk_p, ni, seeds or list(range(n))


@st.composite
def compile_cases(draw):
    """A random chain of 1-5 couplers, each a pair (so pairs may share a
    qubit), in any order and orientation, with random readout rates,
    Hubbard constants, crosstalk that may push p above 1, NI off, exact or
    sampled and one confusion seed per pair."""
    n = draw(st.integers(1, 5))
    topo, pairs, *rest = compile_case(
        draw(st.lists(FIDELITIES, min_size=n, max_size=n)),
        [(draw(rates), draw(rates)) for _ in range(n + 1)],
        draw(st.sampled_from([0.0, 0.9, 1.0]) | st.floats(0.0, 1.0)),
        draw(st.sampled_from([None, "exact", "sampled"])),
        draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        draw(st.lists(st.integers(0, 2 ** 32), min_size=n, max_size=n)),
        HubbardParams(t=draw(st.floats(0.0, 3.0)), u=draw(st.floats(0.0, 3.0))))
    return topo, draw(st.permutations(pairs)), *rest


@given(compile_cases())
@example(compile_case([1.0, 1.0], [(0.0, 0.0)] * 3, 0.0, None))
@example(compile_case([0.25, 0.2, 0.1], [(0.1, 0.02)] * 4, 0.3, "exact", [True, False, True]))
@example(compile_case([0.5, 0.3], [(0.05, 0.1), (0.0, 0.15), (0.12, 0.0)], 0.6, "sampled"))
@example(compile_case([1.0, 0.9], [(0.05, 0.1)] * 3, 1.0, "sampled", [False, True]))
def test_compiled_rows_equal_each_pairs_noise_spec(case):
    """Every row's base, slope (without and with crosstalk) and coeffs are,
    bit for bit, the kernel_terms and inverted coefficients built from the
    pair's own noise spec (effective_p and confusion_map) and its own
    confusion matrix: none, exact, or sampled on the pair's stream."""
    topo, pairs, h, crosstalk_p, ni, seeds = case
    shots = None if ni == "exact" else 2000
    confusions = None if ni is None else measure_confusions(
        np.array([topo.pair_readout(pair) for pair in pairs]), shots,
        [np.random.default_rng(seed) for seed in seeds])
    table = compile_pairs(topo, pairs, h, confusions, crosstalk_p)
    c = setting_coefficients(h)
    for row, (pair, seed) in enumerate(zip(pairs, seeds)):
        noise = noise_spec_for_pair(topo, pair, crosstalk_p)
        for flag in (False, True):
            base, slope = kernel_terms(np.array([effective_p(noise, flag)]),
                                       noise.confusion_map()[None])
            assert np.array_equal(table.base[int(flag), row], base[0])
            assert np.array_equal(table.slope[int(flag), row], slope[0])
        coeffs = c
        if ni is not None:
            inverse = measure_confusion(noise, shots, np.random.default_rng(seed)).inverse
            coeffs = np.einsum("ji,kj->ki", inverse, c)
        assert np.array_equal(table.coeffs[row], coeffs)


@pytest.mark.parametrize("crosstalk_p", [-0.1, 1.5, math.nan])
def test_compile_pairs_rejects_crosstalk_outside_the_unit_interval(crosstalk_p):
    with pytest.raises(ValueError, match="crosstalk_p must be in"):
        compile_pairs(two_pair_topology(), [(0, 1)], crosstalk_p=crosstalk_p)


def test_compile_pairs_needs_one_confusion_matrix_per_pair():
    with pytest.raises(ValueError, match="cannot reshape"):
        compile_pairs(two_pair_topology(), [(0, 1), (2, 3)], confusions=np.eye(4)[None])


def test_one_valued_setting_has_zero_std_err():
    """A setting whose counts all fall on outcomes of one coefficient has
    plug-in variance 0, which the cancellation in E[c^2] - E[c]^2 must not
    leave as a rounding residue (up to 1.3e-9 here without the guard)."""
    table = compile_pairs(two_pair_topology(), [(0, 1)], HubbardParams(u=1.3))
    counts = np.array([[[0, a, 100 - a, 0], [100, 0, 0, 0]] for a in range(1, 100)])
    assert np.all(row_estimates(table, [0] * 99, counts, [100] * 99).std_err == 0.0)


def chain_topology(n_pairs=4):
    """Pairs (0,1), (2,3), ... on a chain, each joined to the next, with
    readout errors; the topology and its pairs."""
    qubits = tuple(range(2 * n_pairs))
    pairs = [(2 * i, 2 * i + 1) for i in range(n_pairs)]
    links = tuple((2 * i + 1, 2 * i + 2, 0.9) for i in range(n_pairs - 1))
    return DeviceTopology(qubits=qubits, edges=tuple((*pair, 0.93) for pair in pairs) + links,
                          readout={q: (0.01 + 0.01 * q, 0.03) for q in qubits}), pairs


def chain_noise(crosstalk_p=0.3):
    """Each chain pair's depolarizing probability without (p[0]) and with
    (p[1]) crosstalk, and its readout map, from its own noise spec."""
    topo, pairs = chain_topology()
    noises = [noise_spec_for_pair(topo, pair, crosstalk_p=crosstalk_p) for pair in pairs]
    return (np.array([[effective_p(noise, flag) for noise in noises] for flag in (False, True)]),
            np.array([noise.confusion_map() for noise in noises]))


def chain_table(n_pairs=4, crosstalk_p=0.3):
    """The chain's pairs with measured confusions (NI on)."""
    topo, pairs = chain_topology(n_pairs)
    stream = np.random.default_rng(0)
    confusions = np.array([measure_confusion(noise_spec_for_pair(topo, pair), 2000, stream).matrix
                           for pair in pairs])
    return compile_pairs(topo, pairs, confusions=confusions, crosstalk_p=crosstalk_p)


def batch_counts(results):
    return results["histograms"]


@st.composite
def group_cases(draw, min_groups=1):
    """1-4 groups (key paths) of 1-3 batches of 1-4 distinct rows of a
    4-pair chain, in any order, with their angles and one seed per group."""
    batch = st.permutations(range(4)).flatmap(
        lambda order: st.integers(1, 4).map(lambda k: order[:k]))
    groups = draw(st.lists(st.lists(batch, min_size=1, max_size=3),
                           min_size=min_groups, max_size=4))
    size = sum(len(b) for group in groups for b in group)
    angles = st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size)
    seeds = draw(st.lists(st.integers(0, 2 ** 63), min_size=len(groups),
                          max_size=len(groups)))
    return groups, np.array(draw(angles)), np.array(draw(angles)), seeds


def group_slices(groups):
    """The slice of each group's rows in a call over all groups."""
    ends = np.cumsum([sum(map(len, group)) for group in groups]).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]


def streams_of(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


@given(group_cases(), st.data())
def test_run_batch_returns_one_record_array(case, data):
    """run_batch returns a plain array of one record per row; its
    histograms field is the (rows, 2, 4) int64 count array, a view of the
    records that equals the rows' own histograms stacked."""
    groups, phi, theta, seeds = case
    shots = data.draw(st.lists(st.integers(1, 2000), min_size=len(groups),
                               max_size=len(groups)))
    records = run_batch(plan_batches(chain_table(), groups, shots), phi, theta,
                        streams_of(seeds))
    counts = records["histograms"]
    assert type(records) is np.ndarray and records.dtype == COUNTS_DTYPE
    assert len(records) == len(phi)
    assert counts.dtype == np.int64 and counts.shape == (len(phi), 2, 4)
    assert np.shares_memory(counts, records)
    assert np.array_equal(counts, np.stack([record.histograms for record in records]))
    row_shots = np.repeat(shots, [sum(map(len, group)) for group in groups])
    assert np.array_equal(counts.sum(axis=2), np.column_stack([row_shots, row_shots]))


@given(group_cases(), st.data())
def test_plan_keeps_each_rows_kernel_terms_and_estimator_inputs(case, data):
    """A plan holds per row what a call would otherwise recompute: its
    kernel terms give the kernel's distributions of the row's readout map
    and depolarizing probability, crosstalk flagged by a neighbour in its
    own batch, bit for bit, and its estimate of counts drawn at its
    groups' shots is that of the same rows planned one by one, bit for
    bit."""
    groups, phi, theta, seeds = case
    shots = data.draw(st.lists(st.integers(1, 2000), min_size=len(groups),
                               max_size=len(groups)))
    table = chain_table()
    plan = plan_batches(table, groups, shots)
    row_p, confusion = chain_noise()
    p = np.concatenate([np.where(table.neighbours[batch][:, batch].any(axis=1),
                                 row_p[1, batch], row_p[0, batch])
                        for group in groups for batch in map(list, group)])
    terms = kernel_terms(p, confusion[plan.rows])
    assert np.array_equal(plan.base, apply_terms(*terms, np.zeros_like(phi), theta))
    assert np.array_equal(
        run_batch(plan, phi, theta, streams_of(seeds))["histograms"],
        np.concatenate([stream.multinomial(n, dists) for stream, n, dists in zip(
            streams_of(seeds), shots, np.split(apply_terms(*terms, phi, theta),
                                               plan.bounds[1:-1]))]))
    counts = batch_counts(run_batch(plan, phi, theta, streams_of(seeds)))
    alone = row_estimates(table, plan.rows, counts,
                          np.repeat(shots, [sum(map(len, group)) for group in groups]))
    for got, want in zip(plan.estimate(counts), alone):
        assert np.array_equal(got, want)
    assert not hasattr(plan, "p") and not hasattr(plan, "confusion")


@given(group_cases(), st.sampled_from([0.0, 0.3]))
@example(([[[0, 1, 3]], [[2], [3, 2]]], None, None, None), 0.3)
def test_plan_gathers_kernel_terms_the_table_computed_per_row(case, crosstalk_p):
    """The table's kernel terms, gathered by row and crosstalk flag, are
    bit for bit kernel_terms of each plan row's own depolarizing
    probability (with crosstalk when a neighbour shares its batch) and
    readout map, with crosstalk on (here rows 0, 1 and the second 3 and 2
    are flagged, the first 3 and the lone 2 are not) and off."""
    groups = case[0]
    plan = plan_batches(chain_table(crosstalk_p=crosstalk_p), groups, 100)
    row_p, confusion = chain_noise(crosstalk_p)
    flagged = np.concatenate([[crosstalk_p > 0 and any(abs(r - o) == 1 for o in batch)
                               for r in batch] for group in groups for batch in group])
    p = np.where(flagged, row_p[1, plan.rows], row_p[0, plan.rows])
    assert np.array_equal(p != row_p[0, plan.rows], flagged)
    base, slope = kernel_terms(p, confusion[plan.rows])
    assert np.array_equal(plan.base, base) and np.array_equal(plan.slope, slope)


@given(group_cases())
def test_multi_batch_run_matches_each_batch_alone(case):
    """A key path's batches run in one call give the counts they get run
    one by one, in order, on its generator: crosstalk comes from a row's
    own batch only, and the batches of a key path share its stream in
    batch order."""
    groups, phi, theta, seeds = case
    table = chain_table()
    together = batch_counts(run_batch(plan_batches(table, groups, 300), phi, theta,
                                      streams_of(seeds)))
    for group, seed, part in zip(groups, seeds, group_slices(groups)):
        stream, lo = np.random.default_rng(seed), part.start
        for batch in group:
            rows = slice(lo, lo + len(batch))
            alone = batch_counts(run_batch(plan_batches(table, [[batch]], 300), phi[rows],
                                           theta[rows], [stream]))
            assert np.array_equal(together[rows], alone)
            lo += len(batch)


@given(group_cases(min_groups=2), st.data())
def test_key_path_counts_do_not_depend_on_other_key_paths(case, data):
    """With crosstalk on, one key path's counts are the same alone, among
    any subset of the other key paths of a call and in any order, also
    when every key path draws its own shot count."""
    groups, phi, theta, seeds = case
    shots = data.draw(st.just([300] * len(groups))
                      | st.lists(st.integers(1, 2000), min_size=len(groups),
                                 max_size=len(groups)))
    table = chain_table()
    parts = group_slices(groups)
    target = data.draw(st.integers(0, len(groups) - 1))
    alone = batch_counts(run_batch(plan_batches(table, [groups[target]], shots[target]),
                                   phi[parts[target]], theta[parts[target]],
                                   streams_of([seeds[target]])))
    assert np.all(alone.sum(axis=2) == shots[target])
    others = [k for k in range(len(groups)) if k != target]
    for layout in (others + [target], [target] + others[::-1],
                   data.draw(st.permutations(range(len(groups)))),
                   [target] + data.draw(st.lists(st.sampled_from(others), unique=True))):
        rows = np.concatenate([np.arange(len(phi))[parts[k]] for k in layout])
        counts = batch_counts(run_batch(plan_batches(table, [groups[k] for k in layout],
                                                     [shots[k] for k in layout]),
                                        phi[rows], theta[rows],
                                        streams_of(seeds[k] for k in layout)))
        part = group_slices([groups[k] for k in layout])[layout.index(target)]
        assert np.array_equal(counts[part], alone)


def test_neighbour_in_another_batch_does_not_flag():
    table = chain_table(n_pairs=2, crosstalk_p=0.5)
    phi, theta = np.array([0.3, 0.3]), np.array([0.4, 0.4])
    split = batch_counts(run_batch(plan_batches(table, [[[0], [1]]], 5000), phi, theta,
                                   streams_of([7])))
    # the same batches one by one on the key path's stream
    stream = np.random.default_rng(7)
    solo = [batch_counts(run_batch(plan_batches(table, [[[row]]], 5000), phi[:1], theta[:1],
                                   [stream]))[0]
            for row in (0, 1)]
    assert np.array_equal(split, np.array(solo))
    # in two key paths, each row's counts are those of its key path alone
    paths = batch_counts(run_batch(plan_batches(table, [[[0]], [[1]]], 5000), phi, theta,
                                   streams_of([7, 8])))
    assert np.array_equal(paths[0], split[0])
    assert np.array_equal(paths[1], batch_counts(run_batch(
        plan_batches(table, [[[1]]], 5000), phi[:1], theta[:1], streams_of([8])))[0])
    # the same two rows in one batch are neighbours and flagged
    joint = batch_counts(run_batch(plan_batches(table, [[[0, 1]]], 5000), phi, theta,
                                   streams_of([7])))
    assert not np.array_equal(joint[0], split[0])


def test_rejected_call_leaves_every_stream_untouched():
    """Every batch of every group, and every group's shot count, is checked
    when the layout is planned, before any generator is drawn from: a
    layout whose last batch reuses a qubit, or one of whose groups asks for
    fewer than one shot, is rejected by plan_batches and draws nothing."""
    table = chain_table()
    streams = streams_of([1, 2, 3])
    before = [stream.bit_generator.state for stream in streams]
    groups = [[[0, 1]], [[2], [3]], [[1], [2, 2]]]
    angles = np.full(7, 0.4)
    with pytest.raises(ValueError, match="vertex-disjoint"):
        run_batch(plan_batches(table, groups, 100), angles, angles, streams)
    assert [stream.bit_generator.state for stream in streams] == before
    groups[-1][-1] = [2]
    for shots in ([100, 50, 0], [100, -5, 200]):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run_batch(plan_batches(table, groups, shots), angles, angles, streams)
        assert [stream.bit_generator.state for stream in streams] == before
    with pytest.raises(ValueError, match="3 groups but 2 shot counts"):
        run_batch(plan_batches(table, groups, [100, 50]), angles, angles, streams)
    assert [stream.bit_generator.state for stream in streams] == before


def ring8_table():
    """Every edge of the 8-qubit ring with a chord: its pairs share qubits,
    and crosstalk is on, so each batch is also flagged."""
    topo = DeviceTopology(
        qubits=tuple(SMALL_CALIBRATION["qubits"]),
        edges=tuple((a, b, f) for a, b, f in SMALL_CALIBRATION["edges"]),
        readout={int(q): tuple(r) for q, r in SMALL_CALIBRATION["readout"].items()})
    return compile_pairs(topo, [(a, b) for a, b, _ in topo.edges], crosstalk_p=0.1)


@given(st.lists(st.lists(st.lists(st.integers(0, 8), min_size=1, max_size=4),
                         min_size=1, max_size=3), min_size=1, max_size=4),
       st.integers(0, 2 ** 32))
def test_vertex_disjointness_is_checked_per_batch(groups, seed):
    """plan_batches rejects a layout exactly when one of its batches
    reuses a qubit, by the per-batch set check below: the same row in two
    batches and qubits shared across batches or groups pass. A rejected
    layout leaves every stream untouched."""
    table = ring8_table()

    def reuses_a_qubit(batch):
        qubits = [q for row in batch for q in table.pairs[row]]
        return len(set(qubits)) != len(qubits)

    angles = np.full(sum(len(batch) for group in groups for batch in group), 0.3)
    streams = streams_of(range(seed, seed + len(groups)))
    before = [stream.bit_generator.state for stream in streams]
    if any(reuses_a_qubit(batch) for group in groups for batch in group):
        with pytest.raises(ValueError, match="vertex-disjoint"):
            run_batch(plan_batches(table, groups, 100), angles, angles, streams)
        assert [stream.bit_generator.state for stream in streams] == before
    else:
        assert len(run_batch(plan_batches(table, groups, 100), angles, angles,
                             streams)) == len(angles)


def test_multi_batch_validation_is_per_batch():
    table = chain_table(n_pairs=2)
    one = np.array([0.1])
    two = lambda: streams_of([1, 2])
    # the same row in two batches is fine; twice in one batch is not
    assert len(run_batch(plan_batches(table, [[[0], [0]]], 100), np.repeat(one, 2),
                         np.repeat(one, 2), streams_of([1]))) == 2
    assert len(run_batch(plan_batches(table, [[[0]], [[0]]], 100), np.repeat(one, 2),
                         np.repeat(one, 2), two())) == 2
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]], [[1, 1]]], 100), np.repeat(one, 3),
                  np.repeat(one, 3), two())
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]], [[]]], 100), one, one, two())
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]], []], 100), one, one, two())
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]], [[1]]], 100), np.repeat(one, 2),
                  np.repeat(one, 2), streams_of([1]))
    # one angle per row of every batch, never broadcast
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0]], [[1]]], 100), one, np.repeat(one, 2), two())
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[[0, 1]]], 100), one, one, streams_of([1]))
    # only groups of batches with one Generator each: no int seeds, no flat row list
    with pytest.raises(TypeError):
        run_batch(plan_batches(table, [[[0]]], 100), one, one, 1)
    with pytest.raises(TypeError):
        run_batch(plan_batches(table, [[[0]]], 100), one, one, [1])
    with pytest.raises(ValueError):
        run_batch(plan_batches(table, [[0, 1]], 100), np.repeat(one, 2), np.repeat(one, 2),
                  streams_of([1]))


RING8 = ring8_table()


@st.composite
def ring8_plans(draw):
    """1-4 groups of 1-3 vertex-disjoint batches of the ring8 table's rows
    (crosstalk on), with one shot count and one seed per group. A drawn
    batch keeps each row that shares no qubit with a row before it."""
    def disjoint(rows):
        kept, used = [], set()
        for row in rows:
            if used.isdisjoint(RING8.pairs[row]):
                kept.append(row)
                used.update(RING8.pairs[row])
        return kept

    rows = st.integers(0, len(RING8.pairs) - 1)
    batch = st.lists(rows, min_size=1, max_size=4).map(disjoint)
    groups = draw(st.lists(st.lists(batch, min_size=1, max_size=3), min_size=1, max_size=4))
    shots = draw(st.lists(st.integers(1, 2000), min_size=len(groups), max_size=len(groups)))
    seeds = draw(st.lists(st.integers(0, 2 ** 63), min_size=len(groups),
                          max_size=len(groups)))
    return groups, shots, seeds


def states(streams):
    return [stream.bit_generator.state for stream in streams]


@given(ring8_plans(), st.integers(1, 4), st.integers(0, 2 ** 32))
def test_plan_reused_runs_like_fresh_plans(case, calls, angle_seed):
    """N successive run_batch calls on one plan give the counts and final
    stream states of N calls on freshly made plans of the same groups."""
    groups, shots, seeds = case
    plan = plan_batches(RING8, groups, shots)
    angles = np.random.default_rng(angle_seed).uniform(-4.0, 4.0, (calls, 2, len(plan.rows)))
    reused, fresh = streams_of(seeds), streams_of(seeds)
    for phi, theta in angles:
        counts = run_batch(plan, phi, theta, reused)["histograms"]
        assert np.array_equal(counts, run_batch(plan_batches(RING8, groups, shots), phi,
                                                theta, fresh)["histograms"])
    assert states(reused) == states(fresh)


@given(ring8_plans(), st.data())
def test_rejected_run_leaves_every_stream_untouched(case, data):
    """A run_batch call with wrong-length angles, or with the wrong number
    or type of streams, raises before any generator is drawn from."""
    groups, shots, seeds = case
    plan = plan_batches(RING8, groups, shots)
    n = len(plan.rows)
    streams = streams_of(seeds)
    before = states(streams)
    good = np.full(n, 0.3)
    bad = np.full(data.draw(st.integers(0, n + 3).filter(lambda m: m != n)), 0.3)
    for phi, theta in ((bad, good), (good, bad), (bad, bad)):
        with pytest.raises(ValueError, match="rows but"):
            run_batch(plan, phi, theta, streams)
        assert states(streams) == before
    for wrong in (streams[:-1], streams + streams_of([1]), streams[::-1] + streams):
        with pytest.raises(ValueError, match="groups but"):
            run_batch(plan, good, good, wrong)
        assert states(streams) == before
    position = data.draw(st.integers(0, len(streams) - 1))
    mixed = list(streams)
    mixed[position] = data.draw(st.sampled_from(
        [seeds[position], np.random.PCG64(seeds[position]),
         np.random.RandomState(seeds[position] % 2 ** 32)]))
    with pytest.raises(TypeError):
        run_batch(plan, good, good, mixed)
    assert states(streams) == before


@given(columnar_cases(), st.data())
def test_estimate_rows_do_not_depend_on_their_batch(case, data):
    """Each row's estimate is bitwise the same alone or among any other rows."""
    table, _, _, rows, counts, shots = case
    est = row_estimates(table, rows, counts, shots)
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    for i in range(len(rows)):
        alone = row_estimates(table, rows[i:i + 1], counts[i:i + 1], shots[i:i + 1])
        assert all(a[0] == b[i] for a, b in zip(alone, est))
    other = row_estimates(table, rows[picks], counts[picks], [shots[i] for i in picks])
    assert all(np.array_equal(a, b[picks]) for a, b in zip(other, est))


def test_raw_value_equals_value_without_inversion():
    est = estimate_energy(ShotHistogram((40, 30, 20, 10), 100),
                          ShotHistogram((10, 20, 30, 40), 100))
    assert est.raw == est.value
    noise = PairNoiseSpec(readout=((0.05, 0.02), (0.03, 0.04)))
    bare = exact_expectation_energy(AnsatzParams(0.4, 0.6), HubbardParams(), noise)
    assert bare.raw == bare.value and bare.std_err == 0.0
    table = compile_pairs(two_pair_topology(readout=(0.02, 0.03)), [(0, 1), (2, 3)])
    rows = plan_batches(table, [[[0, 1]]], 100).estimate(
        np.array([[(40, 30, 20, 10), (10, 20, 30, 40)], [(70, 10, 10, 10), (25, 25, 25, 25)]]))
    assert np.array_equal(rows.raw, rows.value)
    pooled = aggregate_same_params(rows)
    assert pooled.raw == pooled.value


def test_std_err_scales_with_shots():
    topo = two_pair_topology(fidelity=0.95, readout=(0.02, 0.02))
    a = AnsatzParams(0.2, 0.3)
    ests = {shots: run_estimates(topo, [((0, 1), a)], shots, 17)
            for shots in (1000, 100_000)}
    ratio = ests[1000].std_err[0] / ests[100_000].std_err[0]
    assert ratio == pytest.approx(10.0, rel=0.15)


# --- aggregation ---


def test_aggregate_single_and_pair():
    e1 = estimate_energy(ShotHistogram((50, 50, 0, 0), 100),
                         ShotHistogram((25, 25, 25, 25), 100))
    e2 = estimate_energy(ShotHistogram((100, 0, 0, 0), 100),
                         ShotHistogram((0, 0, 0, 100), 100))

    def rows(*ests):
        return Estimates(*(np.array([getattr(e, name) for e in ests])
                           for name in Estimates._fields))

    single = aggregate_same_params(rows(e1))
    assert tuple(single) == tuple(e1)
    pooled = aggregate_same_params(rows(e1, e2))
    assert pooled.value == pytest.approx((e1.value + e2.value) / 2)
    assert pooled.std_err == pytest.approx(math.hypot(e1.std_err, e2.std_err) / 2)
    with pytest.raises(ValueError):
        aggregate_same_params(rows())


def test_pooled_std_err_shrinks_as_root_p():
    topo_edges = tuple((2 * i, 2 * i + 1, 0.97) for i in range(25))
    topo = DeviceTopology(qubits=tuple(range(50)), edges=topo_edges,
                          readout={q: (0.01, 0.01) for q in range(50)})
    a = AnsatzParams(0.4, 0.3)
    per_pair = run_estimates(topo, [(e[:2], a) for e in topo_edges], 1000, 23)
    pooled = aggregate_same_params(per_pair)
    mean_se = float(np.mean(per_pair.std_err))
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
    # a NaN or infinite parameter would model NaN or infinite times
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            CostModel(t_base=bad, beta=0.5, tau=1e-4)


def test_predict_wall_time_monotonic():
    m = CostModel(t_base=1.0, beta=0.05, tau=1e-4)
    base = predict_wall_time(m, 5, 10, 1000)
    assert predict_wall_time(m, 6, 10, 1000) > base
    assert predict_wall_time(m, 5, 11, 1000) > base
    assert predict_wall_time(m, 5, 10, 1100) > base


def test_calibrate_recovers_exact_model(fit_tool):
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4)
    obs = [(p, b, s, 2, predict_wall_time(true, p, b, s))
           for p, b, s in [(1, 10, 500), (4, 20, 1000), (9, 5, 2000), (25, 7, 100)]]
    fitted, residuals = fit_tool.calibrate_cost_model(obs)
    assert fitted.t_base == pytest.approx(true.t_base, abs=1e-6)
    assert fitted.beta == pytest.approx(true.beta, abs=1e-6)
    assert fitted.tau == pytest.approx(true.tau, abs=1e-9)
    assert np.max(np.abs(residuals)) < 1e-6


def test_calibrate_recovers_exact_kappa_model(fit_tool):
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4, kappa=5e-6)
    obs = [(p, b, s, 2, predict_wall_time(true, p, b, s))
           for p, b, s in [(1, 10, 500), (4, 20, 1000), (9, 5, 2000), (25, 7, 100)]]
    fitted, residuals = fit_tool.calibrate_cost_model(obs)
    assert fitted.t_base == pytest.approx(true.t_base, abs=1e-6)
    assert fitted.beta == pytest.approx(true.beta, abs=1e-6)
    assert fitted.tau == pytest.approx(true.tau, abs=1e-9)
    assert fitted.kappa == pytest.approx(true.kappa, abs=1e-11)
    assert np.max(np.abs(residuals)) < 1e-6


def test_calibrate_rejects_single_shot_count(fit_tool):
    true = CostModel(t_base=0.8, beta=0.04, tau=3e-4, kappa=5e-6)
    obs = [(p, b, 1000, 2, predict_wall_time(true, p, b, 1000))
           for p, b in [(1, 10), (4, 20), (9, 5), (25, 7)]]
    with pytest.raises(fit_tool.DegenerateCalibration, match="collinear"):
        fit_tool.calibrate_cost_model(obs)


def test_load_cost_model_without_kappa(tmp_path):
    path = tmp_path / "affine.json"
    path.write_text('{"t_base": 0.5, "beta": 0.05, "tau": 0.0004}\n')
    m = load_cost_model(path)
    assert m == CostModel(t_base=0.5, beta=0.05, tau=0.0004, kappa=0.0)
    assert predict_wall_time(m, 25, 16, 10_000) == pytest.approx(
        16 * (0.5 + 0.05 * 25 + 2 * 10_000 * 0.0004))


def test_calibrate_errors(fit_tool):
    with pytest.raises(fit_tool.DegenerateCalibration):
        fit_tool.calibrate_cost_model([(1, 10, 100, 2, 5.0), (1, 20, 100, 2, 9.0)])
    with pytest.raises(fit_tool.DegenerateCalibration):
        fit_tool.calibrate_cost_model([(2, 10, 100, 2, 5.0), (2, 20, 100, 2, 9.0),
                              (2, 30, 100, 2, 13.0)])


def test_shipped_default_cost_model_is_the_fit_output(shipped_cost_model_path, fit_tool):
    fitted, _ = fit_tool.calibrate_cost_model(REFERENCE_TIMINGS)
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
