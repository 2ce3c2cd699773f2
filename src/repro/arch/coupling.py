"""Coupling graphs and shortest-distance matrices.

The coupling graph ``M = (Q_H, E_H)`` records which physical qubit pairs may
host a two-qubit gate.  CODAR and SABRE both consult the all-pairs
shortest-path matrix ``D`` (Table II) when scoring candidate SWAPs; it is
precomputed once per device with a batched BFS.

For 2-D lattice devices the graph additionally knows each qubit's (row, col)
coordinate so that CODAR's fine priority ``H_fine = -|VD - HD|`` can be
evaluated; non-lattice devices simply report no coordinates and the fine
priority degrades to zero, as the paper prescribes ("applies to 2D lattice
model").
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

import numpy as np

#: Distance assigned to disconnected qubit pairs (paper: INT_MAX).
UNREACHABLE = 10**9


class CouplingGraph:
    """Undirected physical-qubit connectivity with cached distances.

    Every derived table (distances, predecessors, neighbours, incident
    edges, connectivity) is computed on first use and kept until
    :meth:`add_edge` changes the graph.  The device models of
    :func:`~repro.arch.devices.get_device` share one graph across threads:
    two threads racing on a cold table each compute the same value, and
    either result is kept.

    Parameters
    ----------
    num_qubits:
        Number of physical qubits ``N``.
    edges:
        Iterable of ``(a, b)`` undirected couplings.
    coordinates:
        Optional mapping from qubit index to ``(row, col)`` grid coordinates
        for lattice devices.
    """

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]],
                 coordinates: Mapping[int, tuple[int, int]] | None = None):
        if num_qubits <= 0:
            raise ValueError("a coupling graph needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._adjacency: list[set[int]] = [set() for _ in range(self.num_qubits)]
        self._edges: set[tuple[int, int]] = set()
        for a, b in edges:
            self.add_edge(a, b)
        self.coordinates: dict[int, tuple[int, int]] = dict(coordinates or {})
        self._distance: np.ndarray | None = None
        self._distance_rows: list[list[int]] | None = None
        self._predecessor: np.ndarray | None = None
        self._neighbors: list[frozenset[int]] | None = None
        self._incident: list[tuple[tuple[int, int], ...]] | None = None
        self._connected: bool | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_edge(self, a: int, b: int) -> None:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError("self-loop couplings are not allowed")
        for q in (a, b):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} outside range 0..{self.num_qubits - 1}")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._edges.add((min(a, b), max(a, b)))
        self._distance = None
        self._distance_rows = None
        self._predecessor = None
        self._neighbors = None
        self._incident = None
        self._connected = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of undirected couplings ``(a, b)`` with ``a < b``."""
        return sorted(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, qubit: int) -> frozenset[int]:
        if self._neighbors is None:
            self._neighbors = [frozenset(s) for s in self._adjacency]
        return self._neighbors[qubit]

    def incident_edges(self) -> list[tuple[tuple[int, int], ...]]:
        """Per qubit, its couplings as sorted ``(min, max)`` pairs, cached.

        ``incident_edges()[q]`` is what the routers' candidate-SWAP sets are
        built from: the edges are already in the form the scorers key on, so
        no pair is rebuilt per lookup.  Treat it as read-only.
        """
        if self._incident is None:
            self._incident = [
                tuple(sorted((min(q, other), max(q, other)) for other in s))
                for q, s in enumerate(self._adjacency)]
        return self._incident

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self._adjacency[a]

    def is_connected(self) -> bool:
        """True when every qubit can reach every other qubit, cached."""
        if self._connected is None:
            seen = {0}
            frontier = deque([0])
            while frontier:
                node = frontier.popleft()
                for nxt in self._adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            self._connected = len(seen) == self.num_qubits
        return self._connected

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #
    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path matrix ``D`` (hops), cached.

        Disconnected pairs get :data:`UNREACHABLE`.
        """
        if self._distance is None:
            n = self.num_qubits
            dist = np.full((n, n), UNREACHABLE, dtype=np.int64)
            for source in range(n):
                dist[source, source] = 0
                frontier = deque([source])
                while frontier:
                    node = frontier.popleft()
                    for nxt in self._adjacency[node]:
                        if dist[source, nxt] == UNREACHABLE:
                            dist[source, nxt] = dist[source, node] + 1
                            frontier.append(nxt)
            self._distance = dist
        return self._distance

    def distance_table(self) -> list[list[int]]:
        """:meth:`distance_matrix` as nested Python lists, cached.

        ``distance_table()[a][b]`` is the scalar lookup the routers' scoring
        loops make per gate; indexing a list of ints avoids a numpy scalar
        index and an ``int()`` conversion per lookup.  Treat it as read-only.
        """
        if self._distance_rows is None:
            self._distance_rows = self.distance_matrix().tolist()
        return self._distance_rows

    def distance(self, a: int, b: int) -> int:
        """Shortest hop count between two physical qubits."""
        return self.distance_table()[a][b]

    def predecessor_matrix(self) -> np.ndarray:
        """All-pairs BFS predecessors ``P`` (``P[s, t]`` = penultimate node on
        the shortest ``s → t`` path), cached.

        The per-source BFS visits neighbours in *sorted* order, so the walk
        in :meth:`shortest_path` finds the path a per-call BFS over sorted
        neighbours would, node for node.  Unreachable targets (and
        ``t == s``) hold ``-1``.
        """
        if self._predecessor is None:
            n = self.num_qubits
            sorted_adjacency = [sorted(s) for s in self._adjacency]
            pred = np.full((n, n), -1, dtype=np.int64)
            for source in range(n):
                seen = bytearray(n)
                seen[source] = 1
                frontier = deque([source])
                while frontier:
                    node = frontier.popleft()
                    for nxt in sorted_adjacency[node]:
                        if not seen[nxt]:
                            seen[nxt] = 1
                            pred[source, nxt] = node
                            frontier.append(nxt)
            self._predecessor = pred
        return self._predecessor

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path from ``a`` to ``b`` (inclusive), walked backwards
        from ``b`` over :meth:`predecessor_matrix`; used by the trivial and
        A* routers."""
        if a == b:
            return [a]
        row = self.predecessor_matrix()[a]
        if row[b] < 0:
            raise ValueError(f"qubits {a} and {b} are not connected")
        path = [b]
        while path[-1] != a:
            path.append(int(row[path[-1]]))
        return list(reversed(path))

    # ------------------------------------------------------------------ #
    # Lattice geometry
    # ------------------------------------------------------------------ #
    @property
    def has_coordinates(self) -> bool:
        return bool(self.coordinates)

    def horizontal_distance(self, a: int, b: int) -> int:
        """|Δcol| between two qubits on a lattice (0 when no geometry known)."""
        if a not in self.coordinates or b not in self.coordinates:
            return 0
        return abs(self.coordinates[a][1] - self.coordinates[b][1])

    def vertical_distance(self, a: int, b: int) -> int:
        """|Δrow| between two qubits on a lattice (0 when no geometry known)."""
        if a not in self.coordinates or b not in self.coordinates:
            return 0
        return abs(self.coordinates[a][0] - self.coordinates[b][0])

    # ------------------------------------------------------------------ #
    # Factories
    # ------------------------------------------------------------------ #
    @classmethod
    def line(cls, num_qubits: int) -> "CouplingGraph":
        """A 1-D chain of qubits."""
        edges = [(i, i + 1) for i in range(num_qubits - 1)]
        coords = {i: (0, i) for i in range(num_qubits)}
        return cls(num_qubits, edges, coords)

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingGraph":
        """A cycle of qubits."""
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(num_qubits, edges)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingGraph":
        """A ``rows x cols`` rectangular lattice (the Enfield 6x6 model)."""
        def index(r: int, c: int) -> int:
            return r * cols + c

        edges = []
        coords = {}
        for r in range(rows):
            for c in range(cols):
                coords[index(r, c)] = (r, c)
                if c + 1 < cols:
                    edges.append((index(r, c), index(r, c + 1)))
                if r + 1 < rows:
                    edges.append((index(r, c), index(r + 1, c)))
        return cls(rows * cols, edges, coords)

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` for analysis and plotting."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self.edges)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CouplingGraph(qubits={self.num_qubits}, edges={self.num_edges})"
