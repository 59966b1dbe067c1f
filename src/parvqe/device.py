"""Chip topology, calibration files and qubit-pair selection.

Calibration file format (JSON):

    {
      "name":    "...",                        # optional
      "comment": "...",                        # optional
      "qubits":  [0, 1, ...],
      "edges":   [[a, b, cz_fidelity], ...],
      "readout": {"0": [eps01, eps10], ...}
    }

Pair selection is either greedy (repeatedly take the best remaining CZ
fidelity and retire both endpoints) or an exact maximum-weight matching
over the whole connectivity graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .simulator import PairNoiseSpec

Pair = tuple[int, int]


class CalibrationError(ValueError):
    """Raised for malformed or inconsistent calibration files."""


def _norm_pair(a: int, b: int) -> Pair:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class DeviceTopology:
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
        for q in self.readout:
            if q not in qubit_set:
                raise CalibrationError(f"readout entry for unknown qubit {q}")
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

    def adjacent(self, a: int, b: int) -> bool:
        return _norm_pair(a, b) in self.edge_map()

    def pairs_are_neighbors(self, p: Pair, q: Pair) -> bool:
        """True when some endpoint of p is connected to some endpoint of q."""
        return any(self.adjacent(x, y) for x in p for y in q)


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
    return DeviceTopology(qubits=qubits, edges=edges, readout=readout,
                          name=str(raw.get("name", "")))


@dataclass(frozen=True)
class PairSelection:
    pairs: tuple[Pair, ...]
    selection_method: str               # 'greedy' or 'matching'
    fidelity_cap: float | None = None

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
    return PairSelection(pairs=tuple(chosen), selection_method="greedy",
                         fidelity_cap=fidelity_cap)


def max_weight_matching(topology: DeviceTopology) -> PairSelection:
    """Exact maximum-weight matching over the connectivity graph.

    Uses the blossom-based solver from networkx; edges are inserted in
    sorted order so the result is deterministic for a given file. Pairs
    are reported sorted by qubit id.
    """
    import networkx as nx   # deferred: only matching needs it, and it is slow to import

    graph = nx.Graph()
    graph.add_nodes_from(sorted(topology.qubits))
    for (a, b), f in sorted(topology.edge_map().items()):
        graph.add_edge(a, b, weight=f)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    pairs = tuple(sorted(_norm_pair(a, b) for a, b in mate))
    return PairSelection(pairs=pairs, selection_method="matching")


def selection_weight(topology: DeviceTopology, selection: PairSelection) -> float:
    return sum(topology.fidelity(p) for p in selection.pairs)


def noise_spec_for_pair(topology: DeviceTopology, pair: Pair,
                        crosstalk_p: float = 0.0) -> PairNoiseSpec:
    """Noise channel parameters for one edge: CZ fidelity plus the two
    endpoints' readout rates (qubit order follows the pair order)."""
    f = topology.fidelity(pair)
    r0 = topology.readout.get(pair[0], (0.0, 0.0))
    r1 = topology.readout.get(pair[1], (0.0, 0.0))
    return PairNoiseSpec(cz_fidelity=f, readout=(r0, r1), crosstalk_p=crosstalk_p)
