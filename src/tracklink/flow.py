"""Minimum-cost node-disjoint source->sink paths in a DAG, solved as one
sparse assignment problem.  ``min_cost_paths`` solves over nodes
``0..n-1`` given as arrays; ``solve_paths`` is its adapter for a
``FlowGraph``, which keeps only the cheapest copy of a parallel edge.

A set of node-disjoint paths gives every used node exactly one
predecessor (another node or the source) and one successor (another
node or the sink).  That is a bipartite matching between rows ``out_v``
(v's successor) plus an entry slot ``e_v``, and columns ``in_v`` (v's
predecessor) plus an exit slot ``x_v``:

* ``out_v -> in_v``  v is unused, cost 0 (absent for must-cover nodes)
* ``out_u -> in_w``  link u -> w, cost ``c_uw + node_cost(w)``
* ``e_v  -> in_v``   v starts a path, cost ``entry_v + node_cost(v)``
* ``out_v -> x_v``   v ends a path, cost ``exit_v``
* ``e_v -> x_v`` and ``e_w -> x_u`` for every link u -> w are cost-0
  fillers that absorb the entry and exit slots a cover leaves free.

Each used node pays its own cost once, on the arc into ``in_v``.  Every
perfect matching is a path cover of the same cost (the graph is acyclic,
so predecessor chains end at the source) and every cover extends to a
perfect matching, so the minimum-weight full matching, found by LAPJVsp
(Jonker & Volgenant 1987), is the optimal cover.  Ties go as the matrix
lays them out: canonical CSR, rows in order and each row's columns
ascending, whatever order the edges were added in.  scipy's csgraph
checks the graph first: it is acyclic iff each node is a strong
component of its own.

Mode ``free`` returns the cheapest set of paths of any size, possibly
none; mode ``cover_all`` puts every node flagged ``must_cover`` on a path.
Only when the matching fails does a cover-all solve look for the
must-cover nodes that lie on no source->sink path (two csgraph
searches, from the entries and back from the exits), to name them in
``InfeasibleCoverError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, min_weight_full_bipartite_matching

SOURCE = -1
SINK = -2


class FlowGraphError(ValueError):
    pass


class InfeasibleCoverError(FlowGraphError):
    def __init__(self, uncoverable: list[int]):
        self.uncoverable = list(uncoverable)
        super().__init__(
            "cover_all infeasible; uncoverable nodes: "
            + (", ".join(str(n) for n in self.uncoverable) or "none, but no disjoint cover")
        )


class FlowGraph:
    """Source/sink DAG description: nodes with optional cost and
    must_cover flag, directed edges with real finite costs.  Of parallel
    edges only the cheapest copy is kept."""

    def __init__(self):
        self._nodes: dict[int, tuple[float, bool]] = {}
        self._edges: dict[tuple[int, int], float] = {}

    def add_node(self, node_id: int, cost: float = 0.0, must_cover: bool = False):
        if node_id in (SOURCE, SINK):
            raise FlowGraphError("node ids -1/-2 are reserved for source/sink")
        if node_id in self._nodes:
            raise FlowGraphError(f"duplicate node id {node_id}")
        if not math.isfinite(cost):
            raise FlowGraphError(f"node {node_id} cost must be finite")
        self._nodes[node_id] = (float(cost), bool(must_cover))

    def add_edge(self, u: int, v: int, cost: float):
        if u == SINK or v == SOURCE:
            raise FlowGraphError("edges cannot leave the sink or enter the source")
        for endpoint in (u, v):
            if endpoint not in (SOURCE, SINK) and endpoint not in self._nodes:
                raise FlowGraphError(f"edge endpoint {endpoint} is not a known node")
        if u == v:
            raise FlowGraphError("self loops are not allowed")
        if not math.isfinite(cost):
            raise FlowGraphError(f"edge ({u}, {v}) cost must be finite")
        self._edges[u, v] = min(float(cost), self._edges.get((u, v), math.inf))

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(u, v, cost) for (u, v), cost in self._edges.items()]

    def node_cost(self, node_id: int) -> float:
        return self._nodes[node_id][0]

    def is_must_cover(self, node_id: int) -> bool:
        return self._nodes[node_id][1]

    @property
    def must_cover_ids(self) -> list[int]:
        return [n for n, (_, mc) in self._nodes.items() if mc]


@dataclass
class FlowResult:
    paths: list[list[int]]
    total_cost: float


def min_cost_paths(node_cost, must_cover, entry, exit_, src, dst, link_cost) -> list[list[int]]:
    """Minimum-cost node-disjoint paths over nodes ``0..n-1``, sorted by
    first node.  Numpy arrays: every used node pays ``node_cost``, a path
    pays ``entry``/``exit_`` at its ends (``inf``: no such edge) and
    ``link_cost[k]`` per step ``src[k] -> dst[k]`` (distinct pairs, no
    self loops).  ``must_cover`` nodes lie on a path.  A cycle raises
    ``FlowGraphError``; ``InfeasibleCoverError`` names the must-cover
    nodes on no entry-to-exit path (none if the paths just collide).
    """
    n, m = len(node_cost), len(src)
    if n == 0:
        return []
    links = csr_matrix((np.ones(m), (src, dst)), shape=(n, n))  # sums repeated pairs
    if links.nnz < m or np.any(src == dst):
        raise FlowGraphError("links must be distinct pairs of distinct nodes")
    # without self loops the graph is acyclic iff each of its n nodes is a
    # strong component of its own
    n_strong, _ = connected_components(links, connection="strong")
    if n_strong < n:
        raise FlowGraphError("flow graph contains a cycle")

    # rows: out_v = v, e_v = n + v; columns: in_v = v, x_v = n + v
    nodes = np.arange(n)
    unused = nodes[~must_cover]
    starts = nodes[np.isfinite(entry)]
    ends = nodes[np.isfinite(exit_)]
    rows = np.concatenate([unused, src, n + starts, ends, n + nodes, n + dst])
    cols = np.concatenate([unused, dst, starts, n + ends, n + nodes, n + src])
    weights = np.concatenate([
        np.zeros(len(unused)),  # out_v -> in_v: v unused
        link_cost + node_cost[dst],  # out_u -> in_w: link u -> w
        entry[starts] + node_cost[starts],  # e_v -> in_v: v starts a path
        exit_[ends],  # out_v -> x_v: v ends a path
        np.zeros(n + m),  # fillers e_v -> x_v and e_w -> x_u
    ])
    # Integer weights: on real costs LAPJVsp loops forever once a dual
    # update rounds to nothing.  Sums of 2n weights stay below 2**50, so
    # its arithmetic is exact; the power-of-two scale keeps dyadic costs
    # exact and moves other covers' costs by at most n / scale.  The shift
    # makes weights nonzero (LAPJVsp drops zeros) and, as every full
    # matching has 2n arcs, keeps the optimum.
    scale = 2.0 ** math.floor(math.log2(2.0**48 / (n * (1.0 + np.abs(weights).max()))))
    weights = np.rint(weights * scale)
    weights += 1.0 - weights.min()
    # no (row, col) pair repeats; sorted columns fix the tie-break
    matrix = csr_matrix((weights, (rows, cols)), shape=(2 * n, 2 * n))
    matrix.sort_indices()
    try:
        _, col_ind = min_weight_full_bipartite_matching(matrix)
    except ValueError:
        # a must-cover node on no source->sink path leaves no full matching
        on_path = np.isfinite(dijkstra(links, indices=starts, min_only=True))
        on_path &= np.isfinite(dijkstra(links.T, indices=ends, min_only=True))
        raise InfeasibleCoverError(np.flatnonzero(must_cover & ~on_path).tolist()) from None

    match = col_ind.tolist()  # column of row r, rows in order
    paths: list[list[int]] = []
    for start in range(n):
        if match[n + start] != start:
            continue  # e_start fills an exit slot: start has a predecessor or is unused
        v, path = start, [start]
        while match[v] < n:  # out_v -> in_w with w != v, as v is used: a link
            v = match[v]
            path.append(v)
        paths.append(path)
    return paths


def solve_paths(g: FlowGraph, mode: str = "free") -> FlowResult:
    """Solve for a minimum-cost set of node-disjoint source->sink paths.

    Paths are returned sorted by their first node; ``total_cost`` sums
    the entry, node, link and exit costs along them.  An infeasible cover
    names the must-cover nodes on no source->sink path, or every
    must-cover node when there is none.
    """
    if mode not in ("free", "cover_all"):
        raise ValueError(f"unknown mode {mode!r}")
    order = sorted(g.node_ids)  # node index k is order[k]
    node_cost = np.array([g.node_cost(v) for v in order])
    must_cover = np.array([mode == "cover_all" and g.is_must_cover(v) for v in order], dtype=bool)
    tail, head = np.array(list(g._edges), dtype=np.int64).reshape(-1, 2).T
    cost = np.array(list(g._edges.values()))
    k_tail, k_head = np.searchsorted(order, (tail, head))
    starts = (tail == SOURCE) & (head != SINK)  # a source->sink edge covers nothing
    ends = (head == SINK) & (tail != SOURCE)
    links = (tail != SOURCE) & (head != SINK)
    entry, exit_ = np.full(len(order), np.inf), np.full(len(order), np.inf)
    entry[k_head[starts]] = cost[starts]
    exit_[k_tail[ends]] = cost[ends]
    try:
        found = min_cost_paths(
            node_cost, must_cover, entry, exit_, k_tail[links], k_head[links], cost[links]
        )
    except InfeasibleCoverError as err:
        off_path = [order[k] for k in err.uncoverable]
        raise InfeasibleCoverError(off_path or g.must_cover_ids) from None

    paths = [[order[k] for k in path] for path in found]
    terms = [g._edges[SOURCE, p[0]] for p in paths] + [g._edges[p[-1], SINK] for p in paths]
    terms += [g._edges[step] for p in paths for step in zip(p, p[1:])]
    terms += [g.node_cost(node) for p in paths for node in p]
    return FlowResult(paths=paths, total_cost=math.fsum(terms))
