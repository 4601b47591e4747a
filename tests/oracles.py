"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately share no code with the production solvers: the flow
oracles enumerate node-disjoint path covers by exponential subset DP or
solve a dense n x n assignment over link gains, the grid oracle scans
unit directions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from tracklink.flow import SINK, SOURCE, FlowGraph


def _path_cost(g: FlowGraph, path, entry, exit_, trans):
    cost = entry[path[0]] + exit_[path[-1]]
    for node in path:
        cost += g.node_cost(node)
    for a, b in zip(path, path[1:]):
        cost += trans[(a, b)]
    return cost


def enumerate_paths(g: FlowGraph):
    """All simple source->sink paths as (frozen node set, node tuple, cost)."""
    entry, exit_, trans = {}, {}, {}
    succ: dict[int, list[int]] = {}
    for u, v, cost in g.edges:
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            key = (u, v)
            trans[key] = min(cost, trans.get(key, math.inf))
            succ.setdefault(u, []).append(v)
    paths = []

    def extend(path):
        tail = path[-1]
        if tail in exit_:
            paths.append(tuple(path))
        for nxt in succ.get(tail, []):
            if nxt not in path:
                extend(path + [nxt])

    for first in entry:
        extend([first])
    return [
        (frozenset(p), p, _path_cost(g, p, entry, exit_, trans)) for p in paths
    ]


def min_cover_cost(g: FlowGraph, mode: str) -> float:
    """Minimum total cost over all sets of node-disjoint paths that cover
    every must_cover node (mode=cover_all) or over all sets including the
    empty one (mode=free).  Exponential subset DP; intended for <= ~10
    nodes."""
    nodes = sorted(g.node_ids)
    index = {n: i for i, n in enumerate(nodes)}
    must_mask = 0
    for n in g.must_cover_ids:
        must_mask |= 1 << index[n]
    paths = []
    for _, p, cost in enumerate_paths(g):
        mask = 0
        for n in p:
            mask |= 1 << index[n]
        paths.append((mask, cost))

    n_bits = len(nodes)
    full = 1 << n_bits
    best_exact = [math.inf] * full
    best_exact[0] = 0.0
    for subset in range(1, full):
        low_bit = subset & (-subset)
        acc = math.inf
        for mask, cost in paths:
            if mask & low_bit and mask & subset == mask:
                rest = best_exact[subset ^ mask]
                if rest + cost < acc:
                    acc = rest + cost
        best_exact[subset] = acc

    required = must_mask if mode == "cover_all" else 0
    best = math.inf
    for subset in range(full):
        if subset & required == required and best_exact[subset] < best:
            best = best_exact[subset]
    return best


def random_cover_dag(rng, max_nodes=8, dyadic=True):
    """A random feasible DAG: every node has entry and exit edges, so
    cover_all is always satisfiable; costs are dyadic rationals in
    [-2, 2] for exact float arithmetic."""
    n = int(rng.integers(2, max_nodes + 1))

    def cost():
        if dyadic:
            return float(rng.integers(-128, 129)) / 64.0
        return float(rng.uniform(-2.0, 2.0))

    g = FlowGraph()
    for i in range(1, n + 1):
        g.add_node(i, cost=cost(), must_cover=bool(rng.random() < 0.7))
    for i in range(1, n + 1):
        g.add_edge(SOURCE, i, cost())
        g.add_edge(i, SINK, cost())
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.4:
            g.add_edge(i, j, cost())
    return g


def assignment_cover_cost(g: FlowGraph) -> float:
    """Minimum cover_all cost of a DAG whose nodes are all must_cover and
    all have an entry and an exit edge; polynomial, for large graphs.

    Start from every node on its own path.  Taking link u->v joins two
    paths and changes the total by ``c_uv - exit_u - entry_v``; a cover
    is a set of links giving each node at most one successor and one
    predecessor, so the best cover is a dense n x n assignment over the
    gains ``min(0, c_uv - exit_u - entry_v)`` (zero means "no link").
    """
    nodes = sorted(g.node_ids)
    assert set(g.must_cover_ids) == set(nodes)
    index = {n: k for k, n in enumerate(nodes)}
    entry, exit_ = {}, {}
    gain = np.zeros((len(nodes), len(nodes)))
    links = []
    for u, v, cost in g.edges:
        if u == SOURCE:
            entry[v] = min(cost, entry.get(v, math.inf))
        elif v == SINK:
            exit_[u] = min(cost, exit_.get(u, math.inf))
        else:
            links.append((u, v, cost))
    assert set(entry) == set(nodes) and set(exit_) == set(nodes)
    for u, v, cost in links:
        i, j = index[u], index[v]
        gain[i, j] = min(gain[i, j], cost - exit_[u] - entry[v])
    rows, cols = linear_sum_assignment(gain)
    base = math.fsum(g.node_cost(n) + entry[n] + exit_[n] for n in nodes)
    return base + math.fsum(gain[rows, cols].tolist())


def random_tie_dag(rng, n_nodes, entry_cost=-math.log(0.1)):
    """A frame-ordered must-cover DAG like a motion-only association
    graph: every node has entry and exit edges and links forward to a few
    of the next nodes (sometimes twice), with link costs from
    {0, ln 2, ln 3}, so many covers tie on cost.  Returns the graph and
    its edges in insertion order."""
    tie_costs = (0.0, math.log(2.0), math.log(3.0))
    edges = []
    for i in range(1, n_nodes + 1):
        edges.append((SOURCE, i, entry_cost))
        edges.append((i, SINK, entry_cost))
        for j in range(i + 1, min(n_nodes, i + 12) + 1):
            if rng.random() < 0.4:
                edges.append((i, j, tie_costs[int(rng.integers(3))]))
                if rng.random() < 0.1:  # a parallel edge; the cheaper copy counts
                    edges.append((i, j, tie_costs[int(rng.integers(3))]))
    return build_graph(range(1, n_nodes + 1), edges), edges


def build_graph(node_ids, edges) -> FlowGraph:
    """A graph of zero-cost must_cover nodes with the given edges, added
    in the given order."""
    g = FlowGraph()
    for n in node_ids:
        g.add_node(n, must_cover=True)
    for u, v, cost in edges:
        g.add_edge(u, v, cost)
    return g


def grid_search_separating_direction(pos, neg, steps=360):
    """Scan unit directions in the plane for one ordering all positive
    difference vectors below all negative ones; returns the best
    fraction of correctly ordered (p, n) pairs."""
    best = 0.0
    for k in range(steps):
        ang = math.pi * k / steps
        w = np.array([math.cos(ang), math.sin(ang)])
        dp = (pos @ w) ** 2
        dn = (neg @ w) ** 2
        frac = float(np.mean(dp[:, None] < dn[None, :]))
        best = max(best, frac)
    return best
