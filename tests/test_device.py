"""Topology loading and pair-selection tests, with a brute-force matching oracle."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from parvqe.device import (
    CalibrationError,
    DeviceTopology,
    _min_cost_assignment,
    _two_colouring,
    greedy_select,
    load_calibration,
    max_weight_matching,
    selection_weight,
)

from conftest import write_calibration
from reference import depol_p, min_cost_assignment, noise_spec_for_pair
from test_golden import SMALL_CALIBRATION


def brute_force_matching_weight(edges):
    """Maximum total weight over all matchings, by exhaustive recursion."""

    def best(remaining, used):
        score = 0.0
        for i, (a, b, w) in enumerate(remaining):
            if a in used or b in used:
                continue
            score = max(score, w + best(remaining[i + 1:], used | {a, b}))
        return score

    return best(list(edges), frozenset())


def random_topology(rng, n_vertices, p_edge=0.5):
    edges = []
    for a, b in itertools.combinations(range(n_vertices), 2):
        if rng.uniform() < p_edge:
            edges.append((a, b, float(np.round(rng.uniform(0.5, 1.0), 6))))
    return DeviceTopology(qubits=tuple(range(n_vertices)), edges=tuple(edges),
                          readout={})


def random_bipartite_topology(rng, weights=None):
    """Random edges between qubits 0..na-1 and na..na+nb-1, with fidelities
    drawn from `weights` (tied values) or uniformly."""
    na, nb = (int(k) for k in rng.integers(1, 9, size=2))
    p_edge = rng.uniform(0.1, 0.9)
    edges = []
    for a, b in itertools.product(range(na), range(na, na + nb)):
        if rng.uniform() < p_edge:
            f = rng.choice(weights) if weights else np.round(rng.uniform(0.5, 1.0), 6)
            edges.append((a, b, float(f)))
    return DeviceTopology(qubits=tuple(range(na + nb)), edges=tuple(edges), readout={})


def networkx_matching(topo):
    """Reference: networkx's blossom solver on the same graph."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.qubits)
    graph.add_weighted_edges_from(topo.edges)
    return tuple(sorted((min(e), max(e)) for e in nx.max_weight_matching(graph)))


def path_topology(fids):
    edges = tuple((i, i + 1, f) for i, f in enumerate(fids))
    return DeviceTopology(qubits=tuple(range(len(fids) + 1)), edges=edges, readout={})


# --- calibration loading ---


def test_shipped_calibration_counts(shipped_topology):
    assert len(shipped_topology.qubits) == 80
    assert len(shipped_topology.edges) == 97


def test_minimal_calibration(tmp_path):
    # qubit 2 has no coupler, so it may omit its readout entry
    path = write_calibration(tmp_path / "min.json", [0, 1, 2], [(0, 1, 0.9)],
                             {0: (0.01, 0.02), 1: (0.0, 0.0)})
    topo = load_calibration(path)
    assert topo.fidelity((0, 1)) == 0.9
    assert topo.readout[0] == (0.01, 0.02)


@pytest.mark.parametrize("edges,readout", [
    ([(0, 1, 1.2)], {}),                      # fidelity out of range
    ([(0, 1, 0.9), (1, 0, 0.8)], {}),         # duplicate edge
    ([(0, 2, 0.9)], {}),                      # unknown qubit in edge
    ([(0, 1, 0.9)], {5: (0.0, 0.0)}),         # unknown qubit in readout
    ([(0, 0, 0.9)], {}),                      # self loop
    ([(0, 1, 0.9)], {0: (0.0, 0.0)}),         # coupler qubit without readout
    # readout rates out of [0, 0.5), rejected before any confusion matrix
    # is measured from them
    ([(0, 1, 0.9)], {0: (0.6, 0.0), 1: (0.0, 0.0)}),
    ([(0, 1, 0.9)], {0: (0.0, 0.0), 1: (0.0, -0.1)}),
])
def test_calibration_validation_errors(tmp_path, edges, readout):
    path = write_calibration(tmp_path / "bad.json", [0, 1], edges, readout)
    with pytest.raises(CalibrationError):
        load_calibration(path)


def test_calibration_parse_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(CalibrationError):
        load_calibration(path)


# --- greedy selection ---


def test_greedy_takes_disjoint_best_edges():
    topo = path_topology([0.99, 0.98, 0.97])
    sel = greedy_select(topo)
    assert sel.pairs == ((0, 1), (2, 3))


def test_greedy_blocks_neighbors():
    topo = path_topology([0.90, 0.95, 0.90])
    sel = greedy_select(topo)
    assert sel.pairs == ((1, 2),)


def test_greedy_counts_on_shipped_calibration(shipped_topology):
    assert len(greedy_select(shipped_topology).pairs) == 33
    capped = greedy_select(shipped_topology, fidelity_cap=0.90)
    assert len(capped.pairs) == 26
    below = [p for p in greedy_select(shipped_topology).pairs
             if shipped_topology.fidelity(p) < 0.90]
    assert len(below) == 7


def test_greedy_ordering_and_prefix_property(shipped_topology):
    sel = greedy_select(shipped_topology)
    fids = [shipped_topology.fidelity(p) for p in sel.pairs]
    assert fids == sorted(fids, reverse=True)
    for k in range(1, len(sel.pairs)):
        assert greedy_select(shipped_topology, max_pairs=k).pairs == sel.pairs[:k]


# --- maximum-weight matching ---


def test_matching_beats_greedy_on_path():
    topo = path_topology([0.90, 0.95, 0.90])
    sel = max_weight_matching(topo)
    assert set(sel.pairs) == {(0, 1), (2, 3)}
    assert selection_weight(topo, sel) == pytest.approx(1.80)


def test_matching_triangle_tie():
    topo = DeviceTopology(qubits=(0, 1, 2),
                          edges=((0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9)),
                          readout={})
    sel = max_weight_matching(topo)
    assert len(sel.pairs) == 1
    assert selection_weight(topo, sel) == pytest.approx(0.9)


def test_matching_count_on_shipped_calibration(shipped_topology):
    assert len(max_weight_matching(shipped_topology).pairs) == 39


def test_matching_equals_brute_force_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        topo = random_topology(rng, n)
        if not topo.edges:
            continue
        got = selection_weight(topo, max_weight_matching(topo))
        want = brute_force_matching_weight(topo.edges)
        assert got == pytest.approx(want, abs=1e-9)


def test_bipartite_matching_equals_networkx_on_random_graphs():
    rng = np.random.default_rng(202)
    for trial in range(300):
        topo = random_bipartite_topology(rng, weights=[0.8, 0.9, 1.0] if trial % 2 else None)
        sel = max_weight_matching(topo)
        want = networkx_matching(topo)
        assert selection_weight(topo, sel) == pytest.approx(
            sum(topo.fidelity(p) for p in want), abs=1e-9)
        assert all(topo.has_edge(p) for p in sel.pairs)
        used = [q for p in sel.pairs for q in p]
        assert len(set(used)) == len(used)


def test_bipartite_matching_equals_networkx_on_calibrations(tmp_path, shipped_topology):
    small = load_calibration(write_calibration(
        tmp_path / "small.json", SMALL_CALIBRATION["qubits"], SMALL_CALIBRATION["edges"],
        {int(q): r for q, r in SMALL_CALIBRATION["readout"].items()}))
    for topo in (shipped_topology, small):
        assert max_weight_matching(topo).pairs == networkx_matching(topo)


@st.composite
def bipartite_graphs(draw):
    """Bipartite coupler graphs of one to three blocks, each of which may
    split into more components, plus isolated qubits, with fidelities
    either from a few repeated values (ties) or drawn freely, on shuffled
    qubit ids."""
    fidelity = draw(st.sampled_from([st.sampled_from([0.5, 0.8, 0.9, 1.0]),
                                     st.floats(0.5, 1.0)]))
    edges, size = [], 0
    for _ in range(draw(st.integers(1, 3))):
        na, nb = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        for a, b in itertools.product(range(size, size + na),
                                      range(size + na, size + na + nb)):
            if draw(st.booleans()):
                edges.append((a, b, draw(fidelity)))
        size += na + nb
    size += draw(st.integers(0, 3))
    ids = draw(st.permutations(range(size)))
    return DeviceTopology(
        qubits=tuple(range(size)), readout={},
        edges=tuple((min(ids[a], ids[b]), max(ids[a], ids[b]), f) for a, b, f in edges))


@given(bipartite_graphs())
def test_sparse_assignment_is_the_dense_one(topo):
    """The assignment over each row's allowed cells is the dense Hungarian
    method's, column for column, ties and isolated rows included, and the
    matching is the pairs it assigns."""
    colour = _two_colouring(topo)
    rows = sorted(q for q, c in colour.items() if c == 0)
    cols = sorted(q for q, c in colour.items() if c == 1)
    m, n = len(rows), len(cols)
    dense = np.full((m, n + m), np.inf)
    dense[np.arange(m), n + np.arange(m)] = 0.0
    cells = [[(n + i, 0.0)] for i in range(m)]
    for (a, b), f in topo.edge_map().items():
        if colour[a]:
            a, b = b, a
        dense[rows.index(a), cols.index(b)] = -f
        cells[rows.index(a)].append((cols.index(b), -f))
    want = min_cost_assignment(dense).tolist()
    assert _min_cost_assignment(cells, n + m) == want
    assert max_weight_matching(topo).pairs == tuple(sorted(
        (min(rows[i], cols[j]), max(rows[i], cols[j])) for i, j in enumerate(want) if j < n))


def test_matching_weight_dominates_greedy():
    rng = np.random.default_rng(303)
    for _ in range(30):
        topo = random_topology(rng, int(rng.integers(4, 12)))
        if not topo.edges:
            continue
        greedy_w = selection_weight(topo, greedy_select(topo))
        match_w = selection_weight(topo, max_weight_matching(topo))
        assert match_w >= greedy_w - 1e-12


def test_selections_are_vertex_disjoint_edges(shipped_topology):
    for sel in (greedy_select(shipped_topology), max_weight_matching(shipped_topology)):
        used = [q for p in sel.pairs for q in p]
        assert len(set(used)) == len(used)
        for pair in sel.pairs:
            assert shipped_topology.has_edge(pair)


# --- per-pair noise specs ---


def test_noise_spec_for_pair():
    topo = DeviceTopology(qubits=(0, 1, 2), edges=((0, 1, 1.0), (1, 2, 0.9)),
                          readout={0: (0.0, 0.0), 1: (0.0, 0.0), 2: (0.01, 0.02)})
    clean = noise_spec_for_pair(topo, (0, 1))
    assert depol_p(clean) == 0.0
    assert clean.readout == ((0.0, 0.0), (0.0, 0.0))
    noisy = noise_spec_for_pair(topo, (1, 2))
    assert depol_p(noisy) == pytest.approx(0.4 / 3.0, abs=1e-15)
    assert noisy.readout[1] == (0.01, 0.02)
    with pytest.raises(CalibrationError):
        noise_spec_for_pair(topo, (0, 2))


def test_pair_readout_is_the_noise_spec_readout():
    # a qubit missing from readout (only a topology built in code) reads
    # out perfectly, by the one rule noise_spec_for_pair shares
    topo = DeviceTopology(qubits=(0, 1, 2), edges=((0, 1, 0.99), (1, 2, 0.9)),
                          readout={2: (0.01, 0.02)})
    assert topo.pair_readout((1, 2)) == ((0.0, 0.0), (0.01, 0.02))
    assert topo.pair_readout((2, 1)) == ((0.01, 0.02), (0.0, 0.0))
    for pair in ((0, 1), (1, 2), (2, 1)):
        assert noise_spec_for_pair(topo, pair).readout == topo.pair_readout(pair)
