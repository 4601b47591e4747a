"""Minimum-cost node-disjoint source->sink paths in a DAG, solved as one
sparse assignment problem.  ``min_cost_paths`` solves over nodes
``0..n-1`` given as arrays; ``solve_paths`` is its adapter for a
``FlowGraph``, which keeps the same arrays under node ids and is built
whole by ``FlowGraph.from_arrays`` or one node or edge at a time.  The
adapter numbers the nodes by ascending id, keeps only the cheapest copy
of a parallel edge and maps the paths back with array operations.

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
    """Source/sink DAG description, kept as arrays in the layout of
    ``min_cost_paths``: nodes ``node_ids[k]`` with a cost and a
    must_cover flag, each node's entry and exit cost (``inf``: no such
    edge) and links ``src[k] -> dst[k]`` between node indices, with real
    finite costs.  ``from_arrays`` builds a whole graph at once;
    ``add_node`` and ``add_edge`` add one node or edge by id.  Of
    parallel edges only the cheapest copy counts; a source->sink edge
    covers nothing and is not kept."""

    def __init__(self):
        self._ids = np.empty(0, dtype=np.int64)
        self._node_cost = np.empty(0)
        self._must_cover = np.empty(0, dtype=bool)
        self._entry = np.empty(0)
        self._exit = np.empty(0)
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._link_cost = np.empty(0)

    @classmethod
    def from_arrays(cls, node_ids, node_cost, must_cover, entry, exit_, src, dst, link_cost):
        """A graph over nodes ``node_ids``, its links given by node index;
        the arrays are copied, and checked by the rules of ``add_node``
        and ``add_edge``."""
        g = cls()
        g._add_nodes(node_ids, node_cost, must_cover, entry, exit_)
        g._add_links(src, dst, link_cost)
        return g

    def add_node(self, node_id: int, cost: float = 0.0, must_cover: bool = False):
        self._add_nodes([node_id], [cost], [must_cover], [math.inf], [math.inf])

    def add_edge(self, u: int, v: int, cost: float):
        if u == SINK or v == SOURCE:
            raise FlowGraphError("edges cannot leave the sink or enter the source")
        try:
            ku, kv = (e if e in (SOURCE, SINK) else self._position(e) for e in (u, v))
        except KeyError as err:
            raise FlowGraphError(f"edge endpoint {err.args[0]} is not a known node") from None
        if not math.isfinite(cost):
            raise FlowGraphError(f"edge ({u}, {v}) cost must be finite")
        if u == SOURCE and v != SINK:
            self._entry[kv] = min(self._entry[kv], cost)
        elif v == SINK and u != SOURCE:
            self._exit[ku] = min(self._exit[ku], cost)
        elif u != SOURCE:
            self._add_links([ku], [kv], [cost])

    def _add_nodes(self, node_ids, node_cost, must_cover, entry, exit_):
        ids = _vector(node_ids, np.int64, "node ids")
        node_cost, entry, exit_ = (_vector(a, float, "node costs") for a in (node_cost, entry, exit_))
        must_cover = _vector(must_cover, bool, "must_cover flags")
        if not len(ids) == len(node_cost) == len(must_cover) == len(entry) == len(exit_):
            raise FlowGraphError("node arrays differ in length")
        if ((ids == SOURCE) | (ids == SINK)).any():
            raise FlowGraphError("node ids -1/-2 are reserved for source/sink")
        every = np.sort(np.concatenate([self._ids, ids]))
        repeated = every[1:][every[1:] == every[:-1]]
        if len(repeated):
            raise FlowGraphError(f"duplicate node id {repeated[0]}")
        bad = ~np.isfinite(node_cost)
        for ends in (entry, exit_):  # inf: no entry (exit) edge
            bad |= ~np.isfinite(ends) & (ends != np.inf)
        if bad.any():
            raise FlowGraphError(f"node {ids[bad][0]} cost must be finite")
        self._ids = np.concatenate([self._ids, ids])
        self._node_cost = np.concatenate([self._node_cost, node_cost])
        self._must_cover = np.concatenate([self._must_cover, must_cover])
        self._entry = np.concatenate([self._entry, entry])
        self._exit = np.concatenate([self._exit, exit_])

    def _add_links(self, src, dst, link_cost):
        src, dst = (_vector(a, np.int64, "link endpoints") for a in (src, dst))
        link_cost = _vector(link_cost, float, "link costs")
        if not len(src) == len(dst) == len(link_cost):
            raise FlowGraphError("link arrays differ in length")
        n = len(self._ids)
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise FlowGraphError("link endpoint index out of range")
        if (src == dst).any():
            raise FlowGraphError("self loops are not allowed")
        bad = ~np.isfinite(link_cost)
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise FlowGraphError(f"edge ({self._ids[src[k]]}, {self._ids[dst[k]]}) cost must be finite")
        self._src = np.concatenate([self._src, src])
        self._dst = np.concatenate([self._dst, dst])
        self._link_cost = np.concatenate([self._link_cost, link_cost])

    def _cheapest_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The links as (src, dst, cost), the cheapest copy of each pair,
        sorted by (src, dst)."""
        order = np.lexsort((self._link_cost, self._dst, self._src))
        src, dst = self._src[order], self._dst[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        return src[first], dst[first], self._link_cost[order[first]]

    @property
    def node_ids(self) -> list[int]:
        return self._ids.tolist()

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        ids = self._ids.tolist()
        starts, ends = np.flatnonzero(np.isfinite(self._entry)), np.flatnonzero(np.isfinite(self._exit))
        src, dst, cost = self._cheapest_links()
        return (
            [(SOURCE, ids[k], c) for k, c in zip(starts.tolist(), self._entry[starts].tolist())]
            + [(ids[k], SINK, c) for k, c in zip(ends.tolist(), self._exit[ends].tolist())]
            + [(ids[u], ids[v], c) for u, v, c in zip(src.tolist(), dst.tolist(), cost.tolist())]
        )

    def node_cost(self, node_id: int) -> float:
        return float(self._node_cost[self._position(node_id)])

    def is_must_cover(self, node_id: int) -> bool:
        return bool(self._must_cover[self._position(node_id)])

    def _position(self, node_id: int) -> int:
        hit = np.flatnonzero(self._ids == node_id)
        if not len(hit):
            raise KeyError(node_id)
        return int(hit[0])

    @property
    def must_cover_ids(self) -> list[int]:
        return self._ids[self._must_cover].tolist()


def _vector(values, dtype, what: str) -> np.ndarray:
    """``values`` as a new 1-D array of ``dtype``; ids and indices must
    already be integers."""
    a = np.array(values)
    if a.ndim != 1:
        raise FlowGraphError(f"{what} must be a 1-D array")
    if dtype is np.int64 and len(a) and a.dtype.kind not in "iu":
        raise FlowGraphError(f"{what} must be integers")
    return a.astype(dtype)


@dataclass
class FlowResult:
    paths: list[list[int]]
    total_cost: float


def _csr(rows, cols, data, size):
    """``size`` x ``size`` CSR matrix with ``data[k]`` at ``(rows[k],
    cols[k])``, built in canonical order (rows ascending, columns ascending
    within a row); None if a (row, col) pair repeats."""
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        return None
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    return csr_matrix((data[order], cols, indptr), shape=(size, size))


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
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    links = _csr(src, dst, np.ones(m), n)
    if links is None or np.any(src == dst):
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
    # distinct links make distinct (row, col) pairs; sorted columns fix
    # the tie-break
    matrix = _csr(rows, cols, weights, 2 * n)
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
    order = np.argsort(g._ids)  # solver node k is g's node order[k]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    src, dst, link_cost = g._cheapest_links()
    node_cost, entry, exit_ = g._node_cost[order], g._entry[order], g._exit[order]
    must_cover = g._must_cover[order] & (mode == "cover_all")
    try:
        found = min_cost_paths(node_cost, must_cover, entry, exit_, rank[src], rank[dst], link_cost)
    except InfeasibleCoverError as err:
        off_path = g._ids[order[err.uncoverable]].tolist()
        raise InfeasibleCoverError(off_path or g.must_cover_ids) from None

    ids = g._ids[order]
    paths = [ids[path].tolist() for path in found]
    on_path = np.array([k for path in found for k in path], dtype=np.int64)
    steps = np.array([pair for path in found for pair in zip(path, path[1:])], dtype=np.int64)
    steps = order[steps.reshape(-1, 2)]  # g's node indices, as in src and dst
    # src * n + dst ascends with the (src, dst) order of the cheapest links
    n = len(order)
    step_cost = link_cost[np.searchsorted(src * n + dst, steps[:, 0] * n + steps[:, 1])]
    firsts, lasts = [path[0] for path in found], [path[-1] for path in found]
    terms = np.concatenate([entry[firsts], exit_[lasts], step_cost, node_cost[on_path]])
    return FlowResult(paths=paths, total_cost=math.fsum(terms.tolist()))
