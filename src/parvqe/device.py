"""Chip topology, calibration files and qubit-pair selection.

Calibration file format (JSON):

    {
      "name":    "...",                        # optional
      "comment": "...",                        # optional
      "qubits":  [0, 1, ...],
      "edges":   [[a, b, cz_fidelity], ...],
      "readout": {"0": [eps01, eps10], ...}
    }

Every endpoint of a coupler needs a readout entry, with both rates in
[0, 0.5); a qubit with no coupler may omit its own. A DeviceTopology built
in code treats a missing entry as perfect readout, (0, 0).

Pair selection is either greedy (repeatedly take the best remaining CZ
fidelity and retire both endpoints) or an exact maximum-weight matching
over the whole connectivity graph. The matching is solved here, as an
assignment problem, whenever the coupler graph is bipartite (octagon,
heavy-hex and square-grid chips all are); only a graph with an odd cycle
imports networkx, an optional dependency in the test extra, for its
blossom solver.
"""

from __future__ import annotations

import json
from collections import deque
from math import inf
from pathlib import Path

from .records import Record

Pair = tuple[int, int]


class CalibrationError(ValueError):
    """Raised for malformed or inconsistent calibration files."""


def _norm_pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


class DeviceTopology(Record, frozen=True):
    qubits: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]   # (a, b, fidelity) with a < b
    readout: dict[int, tuple[float, float]]
    name: str = ""

    def __post_init__(self):
        seen = set()
        qubit_set = set(self.qubits)
        if len(qubit_set) != len(self.qubits):
            raise CalibrationError("duplicate qubit ids")
        for a, b, f in self.edges:
            if a == b:
                raise CalibrationError(f"self-loop on qubit {a}")
            if a not in qubit_set or b not in qubit_set:
                raise CalibrationError(f"edge ({a}, {b}) references unknown qubit")
            if _norm_pair(a, b) in seen:
                raise CalibrationError(f"duplicate edge ({a}, {b})")
            seen.add(_norm_pair(a, b))
            if not (0.0 < f <= 1.0):
                raise CalibrationError(f"edge ({a}, {b}) fidelity {f} out of (0, 1]")
        for q, rates in self.readout.items():
            if q not in qubit_set:
                raise CalibrationError(f"readout entry for unknown qubit {q}")
            for name, e in zip(("eps01", "eps10"), rates):
                if not 0.0 <= e < 0.5:
                    raise CalibrationError(f"qubit {q} {name} must be in [0, 0.5), got {e}")
        object.__setattr__(self, "_edge_map",
                           {_norm_pair(a, b): f for a, b, f in self.edges})

    def edge_map(self) -> dict[Pair, float]:
        return self._edge_map

    def has_edge(self, pair: Pair) -> bool:
        return _norm_pair(*pair) in self.edge_map()

    def fidelity(self, pair: Pair) -> float:
        try:
            return self.edge_map()[_norm_pair(*pair)]
        except KeyError:
            raise CalibrationError(f"pair {pair} is not an edge of the topology")

    def pair_readout(self, pair: Pair) -> tuple[tuple[float, float], tuple[float, float]]:
        """The endpoints' (eps01, eps10) readout rates in pair order. A qubit
        missing from `readout`, which only a topology built in code can have,
        reads out perfectly, (0, 0)."""
        return self.readout.get(pair[0], (0.0, 0.0)), self.readout.get(pair[1], (0.0, 0.0))

    def pairs_are_neighbors(self, p: Pair, q: Pair) -> bool:
        """True when some endpoint of p is connected to some endpoint of q."""
        return any(self.has_edge((x, y)) for x in p for y in q)


def load_calibration(path: str | Path) -> DeviceTopology:
    """Read and validate a calibration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CalibrationError(f"cannot read calibration {path}: {exc}") from exc
    try:
        qubits = tuple(int(q) for q in raw["qubits"])
        edges = tuple((*_norm_pair(int(a), int(b)), float(f)) for a, b, f in raw["edges"])
        readout = {int(q): (float(e[0]), float(e[1]))
                   for q, e in raw.get("readout", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise CalibrationError(f"malformed calibration {path}: {exc}") from exc
    topology = DeviceTopology(qubits=qubits, edges=edges, readout=readout,
                              name=str(raw.get("name", "")))
    missing = sorted({q for a, b, _ in edges for q in (a, b)} - readout.keys())
    if missing:
        raise CalibrationError(f"calibration {path}: coupler qubits {missing} "
                               "have no readout entry")
    return topology


class PairSelection(Record, frozen=True):
    pairs: tuple[Pair, ...]

    def __post_init__(self):
        used = [q for p in self.pairs for q in p]
        if len(set(used)) != len(used):
            raise ValueError("selected pairs are not vertex-disjoint")


def greedy_select(topology: DeviceTopology, max_pairs: int | None = None,
                  fidelity_cap: float | None = None) -> PairSelection:
    """Repeatedly take the best remaining edge and retire both endpoints.

    Edges below fidelity_cap are never considered. Ties break towards the
    lexicographically smallest pair, so selections are fully deterministic.
    The result is ordered by non-increasing fidelity.
    """
    ranked = sorted(topology.edge_map().items(), key=lambda kv: (-kv[1], kv[0]))
    chosen: list[Pair] = []
    used: set[int] = set()
    for (a, b), f in ranked:
        if max_pairs is not None and len(chosen) >= max_pairs:
            break
        if fidelity_cap is not None and f < fidelity_cap:
            continue
        if a in used or b in used:
            continue
        chosen.append((a, b))
        used.update((a, b))
    return PairSelection(pairs=tuple(chosen))


def max_weight_matching(topology: DeviceTopology) -> PairSelection:
    """Exact maximum-weight matching over the connectivity graph.

    A bipartite coupler graph is solved in-package as a minimum-cost
    assignment (see _bipartite_matching). A graph with an odd cycle falls
    back to the blossom solver of networkx, imported only then, with edges
    inserted in sorted order. Either way the result is deterministic for a
    given file, and pairs are reported sorted by qubit id.
    """
    colour = _two_colouring(topology)
    if colour is None:
        pairs = _blossom_matching(topology)
    else:
        pairs = _bipartite_matching(topology, colour)
    return PairSelection(pairs=tuple(sorted(pairs)))


def _two_colouring(topology: DeviceTopology) -> dict[int, int] | None:
    """Colour 0 or 1 for every qubit, with every coupler joining the two
    colours (breadth first from each component's smallest qubit), or None
    when the coupler graph has an odd cycle."""
    neighbours: dict[int, list[int]] = {q: [] for q in topology.qubits}
    for a, b in topology.edge_map():
        neighbours[a].append(b)
        neighbours[b].append(a)
    colour: dict[int, int] = {}
    for start in sorted(topology.qubits):
        if start in colour:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            q = queue.popleft()
            for r in neighbours[q]:
                if r not in colour:
                    colour[r] = 1 - colour[q]
                    queue.append(r)
                elif colour[r] == colour[q]:
                    return None
    return colour


def _bipartite_matching(topology: DeviceTopology, colour: dict[int, int]) -> list[Pair]:
    """Maximum-weight matching of a bipartite coupler graph as an assignment:
    rows are the colour-0 qubits, columns the colour-1 qubits plus one
    zero-cost "unmatched" column per row, a coupler costs minus its fidelity
    and every other cell is forbidden."""
    rows = sorted(q for q, c in colour.items() if c == 0)
    cols = sorted(q for q, c in colour.items() if c == 1)
    row_of = {q: i for i, q in enumerate(rows)}
    col_of = {q: j for j, q in enumerate(cols)}
    n = len(cols)
    cells = [[(n + i, 0.0)] for i in range(len(rows))]
    for (a, b), f in topology.edge_map().items():
        if colour[a]:
            a, b = b, a
        cells[row_of[a]].append((col_of[b], -f))
    assigned = _min_cost_assignment(cells, n + len(rows))
    return [_norm_pair(rows[i], cols[j]) for i, j in enumerate(assigned) if j < n]


def _min_cost_assignment(cells: list[list[tuple[int, float]]], n: int) -> list[int]:
    """Column of each row in a minimum-cost assignment of m rows to n >= m
    columns, where cells[i] lists row i's allowed (column, cost) cells, at
    least one each. The Hungarian method in its shortest-augmenting-path
    form: each row in turn is added by a Dijkstra search over reduced costs,
    keeping row and column potentials. The search visits allowed cells only,
    but keeps the dense form's arithmetic and its tie rule (the lowest
    column among equal distances), so it returns the dense form's
    assignment, which the tests keep as their reference."""
    m = len(cells)
    u = [0.0] * m
    v = [0.0] * (n + 1)
    owner = [-1] * (n + 1)         # row holding each column; column n is the search root
    for i in range(m):
        owner[n] = i
        j0 = n
        done = []
        dist = {}                  # reached columns not yet done
        via = {}                   # every reached column; those not in dist are done
        while owner[j0] != -1:
            done.append(j0)
            i0 = owner[j0]
            for j, c in cells[i0]:
                reduced = c - u[i0] - v[j]
                if (j in dist or j not in via) and reduced < dist.get(j, inf):
                    dist[j] = reduced
                    via[j] = j0
            delta, j0 = min((d, j) for j, d in dist.items())
            for k in done:
                u[owner[k]] += delta
                v[k] -= delta
            del dist[j0]
            for j in dist:
                dist[j] -= delta
        while j0 != n:             # flip the augmenting path back to the root
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    assigned = [0] * m
    for j in range(n):
        if owner[j] >= 0:
            assigned[owner[j]] = j
    return assigned


def _blossom_matching(topology: DeviceTopology) -> list[Pair]:
    try:    # deferred: only odd-cycle graphs need it, and it is slow to import
        import networkx as nx
    except ImportError as exc:
        raise ImportError("matching a coupler graph with an odd cycle needs networkx, "
                          "from the test extra: pip install 'parvqe[test]'") from exc

    graph = nx.Graph()
    graph.add_nodes_from(sorted(topology.qubits))
    for (a, b), f in sorted(topology.edge_map().items()):
        graph.add_edge(a, b, weight=f)
    return [_norm_pair(a, b) for a, b in nx.max_weight_matching(graph, maxcardinality=False)]


def selection_weight(topology: DeviceTopology, selection: PairSelection) -> float:
    return sum(topology.fidelity(p) for p in selection.pairs)

