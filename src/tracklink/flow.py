"""Minimum-cost node-disjoint source->sink paths in a DAG, solved as one
sparse assignment problem.

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
(Jonker & Volgenant 1987), is the optimal cover.  scipy's csgraph checks
the graph first: it is acyclic iff each node is a strong component of
its own.

Mode ``free`` returns the cheapest set of paths of any size, possibly
none; mode ``cover_all`` puts every node flagged ``must_cover`` on a path.
Only when the matching fails does a cover-all solve look for the
must-cover nodes that lie on no source->sink path (two breadth-first
searches), to name them in ``InfeasibleCoverError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    min_weight_full_bipartite_matching,
)

SOURCE = -1
SINK = -2


class FlowGraphError(ValueError):
    pass


class InfeasibleCoverError(FlowGraphError):
    def __init__(self, uncoverable: list[int]):
        self.uncoverable = list(uncoverable)
        super().__init__(
            "cover_all infeasible; uncoverable nodes: "
            + ", ".join(str(n) for n in self.uncoverable)
        )


class FlowGraph:
    """Source/sink DAG description: nodes with optional cost and
    must_cover flag, directed edges with real finite costs."""

    def __init__(self):
        self._nodes: dict[int, tuple[float, bool]] = {}
        self._edges: list[tuple[int, int, float]] = []

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
        self._edges.append((u, v, float(cost)))

    @property
    def node_ids(self) -> list[int]:
        return list(self._nodes)

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(self._edges)

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


def reachable(n: int, src, dst, seeds) -> np.ndarray:
    """Boolean mask over vertices ``0..n-1``: reachable from ``seeds``
    (seeds included) along the links ``src[k] -> dst[k]``.  One breadth
    first search from an extra root vertex ``n`` linked to every seed."""
    seeds = np.asarray(seeds, dtype=np.intp)
    rows = np.concatenate([np.asarray(src, dtype=np.intp), np.full(len(seeds), n)])
    cols = np.concatenate([np.asarray(dst, dtype=np.intp), seeds])
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + 1, n + 1)).tocsr()
    mask = np.zeros(n + 1, dtype=bool)
    mask[breadth_first_order(graph, n, return_predecessors=False)] = True
    return mask[:n]


def _cheapest_edges(g: FlowGraph):
    """Entry, exit and link costs with parallel edges reduced to their
    cheapest copy."""
    entry: dict[int, float] = {}
    exit_: dict[int, float] = {}
    links: dict[tuple[int, int], float] = {}
    for u, v, cost in g.edges:
        if u == SOURCE and v == SINK:
            continue  # a path through no node covers nothing
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            links[(u, v)] = min(cost, links.get((u, v), math.inf))
    return entry, exit_, links


def solve_paths(g: FlowGraph, mode: str = "free") -> FlowResult:
    """Solve for a minimum-cost set of node-disjoint source->sink paths.

    Paths are returned sorted by their first node; ``total_cost`` sums
    the entry, node, link and exit costs along them.
    """
    if mode not in ("free", "cover_all"):
        raise ValueError(f"unknown mode {mode!r}")
    order = sorted(g.node_ids)
    n = len(order)
    if n == 0:
        return FlowResult(paths=[], total_cost=0.0)
    index = {node: k for k, node in enumerate(order)}
    entry, exit_, links = _cheapest_edges(g)
    src = np.array([index[u] for u, _ in links], dtype=np.intp)
    dst = np.array([index[w] for _, w in links], dtype=np.intp)
    # add_edge forbids self loops, so the graph is acyclic iff each of
    # its n nodes is a strong component of its own
    n_strong, _ = connected_components(
        coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)), connection="strong"
    )
    if n_strong < n:
        raise FlowGraphError("flow graph contains a cycle")
    must_cover = mode == "cover_all"

    # rows: out_k = k, e_k = n + k; columns: in_k = k, x_k = n + k
    arcs: list[tuple[int, int, float]] = []
    for k, node in enumerate(order):
        if not (must_cover and g.is_must_cover(node)):
            arcs.append((k, k, 0.0))
        arcs.append((n + k, n + k, 0.0))
        if node in entry:
            arcs.append((n + k, k, entry[node] + g.node_cost(node)))
        if node in exit_:
            arcs.append((k, n + k, exit_[node]))
    for (u, w), cost in links.items():
        i, j = index[u], index[w]
        arcs.append((i, j, cost + g.node_cost(w)))
        arcs.append((n + j, n + i, 0.0))
    arcs.sort()  # the matrix, and so the tie-break, ignores edge insertion order
    rows, cols, weights = (np.array(a) for a in zip(*arcs))
    # Integer weights: on real costs LAPJVsp loops forever once a dual
    # update rounds to nothing.  Sums of 2n weights stay below 2**50, so
    # its arithmetic is exact; the power-of-two scale keeps dyadic costs
    # exact and moves other covers' costs by at most n / scale.  The shift
    # makes weights nonzero (LAPJVsp drops zeros) and, as every full
    # matching has 2n arcs, keeps the optimum.
    scale = 2.0 ** math.floor(math.log2(2.0**48 / (n * (1.0 + np.abs(weights).max()))))
    weights = np.rint(weights * scale)
    weights += 1.0 - weights.min()
    matrix = coo_matrix((weights, (rows, cols)), shape=(2 * n, 2 * n)).tocsr()
    try:
        _, col_ind = min_weight_full_bipartite_matching(matrix)
    except ValueError:
        # a must-cover node on no source->sink path leaves no full
        # matching; name those nodes, or every must-cover node when the
        # paths exist but cannot be made disjoint
        on_path = reachable(n, src, dst, [index[v] for v in entry])
        on_path &= reachable(n, dst, src, [index[u] for u in exit_])
        bad = [node for k, node in enumerate(order) if g.is_must_cover(node) and not on_path[k]]
        raise InfeasibleCoverError(bad or g.must_cover_ids) from None

    match = col_ind.tolist()  # column of row r, rows in order
    paths: list[list[int]] = []
    for start in range(n):
        if match[n + start] != start:
            continue  # e_start fills an exit slot: start has a predecessor or is unused
        k, path = start, [order[start]]
        while match[k] < n:  # out_k -> in_j with j != k, as k is used: a link
            k = match[k]
            path.append(order[k])
        paths.append(path)
    terms = [entry[p[0]] for p in paths] + [exit_[p[-1]] for p in paths]
    terms += [links[step] for p in paths for step in zip(p, p[1:])]
    terms += [g.node_cost(node) for p in paths for node in p]
    return FlowResult(paths=paths, total_cost=math.fsum(terms))
