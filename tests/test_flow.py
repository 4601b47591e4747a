import math
import os
import subprocess
import sys

import numpy as np
import pytest

from tracklink.flow import (
    SINK,
    SOURCE,
    FlowGraph,
    FlowGraphError,
    InfeasibleCoverError,
    min_cost_paths,
    solve_paths,
)

from oracles import (
    assignment_cover_cost,
    build_graph,
    enumerate_paths,
    min_cover_cost,
    random_cover_dag,
    random_tie_dag,
)


def chain_example():
    """Spec example: two must_cover nodes with a cheap connecting edge."""
    g = FlowGraph()
    g.add_node(1, must_cover=True)
    g.add_node(2, must_cover=True)
    g.add_edge(SOURCE, 1, 0.1)
    g.add_edge(2, SINK, 0.1)
    g.add_edge(1, 2, 0.05)
    g.add_edge(1, SINK, 0.1)
    g.add_edge(SOURCE, 2, 0.1)
    return g


class TestSolveExamples:
    def test_cover_all_prefers_single_chain(self):
        res = solve_paths(chain_example(), mode="cover_all")
        assert res.paths == [[1, 2]]
        assert res.total_cost == pytest.approx(0.25)

    def test_free_all_positive_is_empty(self):
        g = FlowGraph()
        g.add_node(1)
        g.add_edge(SOURCE, 1, 1.0)
        g.add_edge(1, SINK, 1.0)
        res = solve_paths(g, mode="free")
        assert res.paths == []
        assert res.total_cost == 0.0

    def test_free_takes_profitable_chain(self):
        g = FlowGraph()
        g.add_node(1, cost=-1.7)
        g.add_edge(SOURCE, 1, 0.1)
        g.add_edge(1, SINK, 0.1)
        res = solve_paths(g, mode="free")
        assert res.paths == [[1]]
        assert res.total_cost == pytest.approx(-1.5)

    def test_cover_all_infeasible_names_nodes(self):
        g = FlowGraph()
        g.add_node(1, must_cover=True)
        g.add_node(2, must_cover=True)
        g.add_node(3)
        g.add_edge(SOURCE, 1, 0.0)
        g.add_edge(SOURCE, 2, 0.0)
        g.add_edge(1, 3, 0.0)
        g.add_edge(2, 3, 0.0)
        g.add_edge(3, SINK, 0.0)
        with pytest.raises(InfeasibleCoverError) as err:
            solve_paths(g, mode="cover_all")
        assert set(err.value.uncoverable) <= {1, 2}
        assert len(err.value.uncoverable) >= 1


def random_gappy_dag(rng, max_nodes):
    """A DAG on nodes 1..n, added in random order.  Entry edges favour
    early nodes and exit edges late ones, so some must-cover nodes lie on
    no source->sink path and others on paths that cannot be disjoint."""
    n = int(rng.integers(1, max_nodes + 1))
    rank = rng.permutation(n) + 1  # rank[k]: the node at topological position k
    g = FlowGraph()
    for v in rng.permutation(rank).tolist():
        g.add_node(v, cost=float(rng.normal()), must_cover=bool(rng.random() < 0.8))
    for k, v in enumerate(rank.tolist()):
        if rng.random() < 1.0 - k / n:
            g.add_edge(SOURCE, v, float(rng.normal()))
        if rng.random() < (k + 1) / n:
            g.add_edge(v, SINK, float(rng.normal()))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                g.add_edge(int(rank[a]), int(rank[b]), float(rng.normal()))
    return g


class TestInfeasibleDiagnosis:
    def test_names_must_cover_nodes_on_no_path(self):
        rng = np.random.default_rng(23)
        seen = {"feasible": 0, "off_path": 0, "all": 0}
        for _ in range(400):
            g = random_gappy_dag(rng, max_nodes=7)
            on_path = {v for nodes, _, _ in enumerate_paths(g) for v in nodes}
            off_path = sorted(set(g.must_cover_ids) - on_path)
            try:
                solve_paths(g, mode="cover_all")
            except InfeasibleCoverError as err:
                assert err.uncoverable == (off_path or g.must_cover_ids)
                seen["off_path" if off_path else "all"] += 1
            else:
                assert not off_path
                seen["feasible"] += 1
        assert min(seen.values()) >= 5, seen

    def test_exact_uncoverable_list(self):
        g = FlowGraph()
        for v in (4, 2, 1, 3):
            g.add_node(v, must_cover=True)
        g.add_node(5)
        g.add_edge(SOURCE, 1, 0.0)
        g.add_edge(1, SINK, 0.0)
        g.add_edge(2, 3, 0.0)  # 2 has no entry and no predecessor
        g.add_edge(SOURCE, 3, 0.0)
        g.add_edge(3, SINK, 0.0)
        g.add_edge(SOURCE, 4, 0.0)  # 4 has no exit and no successor
        g.add_edge(4, 5, 0.0)
        with pytest.raises(InfeasibleCoverError) as err:
            solve_paths(g, mode="cover_all")
        assert err.value.uncoverable == [2, 4]


class TestOracleEquality:
    def test_cover_all_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            g = random_cover_dag(rng, max_nodes=7)
            res = solve_paths(g, mode="cover_all")
            assert res.total_cost == min_cover_cost(g, "cover_all")
            covered = {n for p in res.paths for n in p}
            assert set(g.must_cover_ids) <= covered

    def test_free_matches_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            g = random_cover_dag(rng, max_nodes=7)
            res = solve_paths(g, mode="free")
            best = min_cover_cost(g, "free")
            assert res.total_cost == min(best, 0.0)

    def test_parallel_copies_and_source_sink_edge(self):
        # only the cheapest copy of an edge counts, and a source->sink
        # edge, a path through no node, counts for nothing
        rng = np.random.default_rng(24)
        for mode in ("free", "cover_all"):
            for _ in range(40):
                g = random_cover_dag(rng, max_nodes=7)
                entries = [e for e in g.edges if e[0] == SOURCE]
                exits = [e for e in g.edges if e[1] == SINK]
                links = [e for e in g.edges if e[0] != SOURCE and e[1] != SINK]
                for kind in (entries, exits, links):
                    for k in rng.permutation(len(kind))[: max(1, len(kind) // 2)].tolist():
                        u, v, cost = kind[k]
                        g.add_edge(u, v, cost + 0.5)
                        g.add_edge(u, v, cost - 0.25)
                g.add_edge(SOURCE, SINK, -1.0)
                assert solve_paths(g, mode=mode).total_cost == min_cover_cost(g, mode)

    def test_large_tie_heavy_cover_all_matches_assignment(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            n = int(rng.integers(100, 301))
            g, edges = random_tie_dag(rng, n)
            res = solve_paths(g, mode="cover_all")
            assert res.total_cost == pytest.approx(assignment_cover_cost(g), rel=1e-12)
            assert sorted(v for p in res.paths for v in p) == list(range(1, n + 1))
            links = {(u, v) for u, v, _ in edges}
            assert all(step in links for p in res.paths for step in zip(p, p[1:]))
            shuffled = [edges[k] for k in rng.permutation(len(edges))]
            again = solve_paths(build_graph(range(1, n + 1), shuffled), mode="cover_all")
            assert again.paths == res.paths

    def test_near_tie_solve_returns(self):
        # LAPJVsp run on these real-valued costs (shifted to be nonzero)
        # never returns; run in a child so a regression fails, not hangs
        code = (
            "import numpy as np; from oracles import random_tie_dag; "
            "from tracklink.flow import solve_paths; "
            "solve_paths(random_tie_dag(np.random.default_rng(19), 300)[0], 'cover_all')"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)


class TestInvariants:
    def test_paths_node_disjoint(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            g = random_cover_dag(rng, max_nodes=8)
            res = solve_paths(g, mode="cover_all")
            seen = [n for p in res.paths for n in p]
            assert len(seen) == len(set(seen))

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = random_cover_dag(rng, max_nodes=8)
            first = solve_paths(g, mode="cover_all")
            second = solve_paths(g, mode="cover_all")
            assert first.paths == second.paths
            assert first.total_cost == second.total_cost

    def test_cost_tie_prefers_smaller_node_sequence(self):
        # two equal-cost routes forced through a shared bottleneck node;
        # which one wins the tie is not specified
        g = FlowGraph()
        g.add_node(1)
        g.add_node(2)
        g.add_node(3)
        g.add_edge(SOURCE, 1, -2.0)
        g.add_edge(SOURCE, 2, -2.0)
        g.add_edge(1, 3, 0.0)
        g.add_edge(2, 3, 0.0)
        g.add_edge(3, SINK, 0.5)
        res = solve_paths(g, mode="free")
        assert res.paths in ([[1, 3]], [[2, 3]])
        assert res.total_cost == pytest.approx(-1.5)

    def test_lowering_edge_cost_never_raises_total(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            g = random_cover_dag(rng, max_nodes=6)
            base = solve_paths(g, mode="cover_all").total_cost
            edges = [e for e in g.edges if e[0] not in (SOURCE,) and e[1] not in (SINK,)]
            if not edges:
                continue
            u, v, cost = edges[rng.integers(len(edges))]
            g2 = FlowGraph()
            for n in g.node_ids:
                g2.add_node(n, cost=g.node_cost(n), must_cover=g.is_must_cover(n))
            lowered = False
            for eu, ev, ec in g.edges:
                if not lowered and (eu, ev, ec) == (u, v, cost):
                    g2.add_edge(eu, ev, ec - 1.0)
                    lowered = True
                else:
                    g2.add_edge(eu, ev, ec)
            assert solve_paths(g2, mode="cover_all").total_cost <= base


class TestValidation:
    def test_duplicate_node(self):
        g = FlowGraph()
        g.add_node(1)
        with pytest.raises(FlowGraphError):
            g.add_node(1)

    def test_unknown_endpoint(self):
        g = FlowGraph()
        g.add_node(1)
        with pytest.raises(FlowGraphError):
            g.add_edge(1, 99, 0.0)

    def test_nonfinite_cost(self):
        g = FlowGraph()
        g.add_node(1)
        with pytest.raises(FlowGraphError):
            g.add_edge(SOURCE, 1, math.inf)

    def test_cycle_rejected(self):
        g = FlowGraph()
        g.add_node(1)
        g.add_node(2)
        g.add_edge(1, 2, 0.0)
        g.add_edge(2, 1, 0.0)
        with pytest.raises(FlowGraphError):
            solve_paths(g, mode="free")

    def test_empty_graph(self):
        res = solve_paths(FlowGraph(), mode="free")
        assert res.paths == [] and res.total_cost == 0.0
        res = solve_paths(FlowGraph(), mode="cover_all")
        assert res.paths == [] and res.total_cost == 0.0

    def test_from_arrays_checks_like_add_edge(self):
        def build(ids=(3, 5), cost=(0.0, 0.0), entry=(0.0, math.inf), src=(0,), dst=(1,), link=(1.0,)):
            return FlowGraph.from_arrays(ids, cost, [True] * len(ids), entry, entry, src, dst, link)

        for bad in (
            dict(ids=(3, SINK)),
            dict(ids=(5, 5)),
            dict(ids=(3.0, 5.0)),
            dict(ids=(3, 5, 7)),
            dict(cost=(0.0, math.nan)),
            dict(entry=(0.0, -math.inf)),
            dict(src=(2,)),
            dict(dst=(-1,)),
            dict(src=(1,)),
            dict(link=(math.inf,)),
            dict(src=(0, 1), dst=(1,), link=(1.0,)),
        ):
            with pytest.raises(FlowGraphError):
                build(**bad)
        g = build()
        assert g.node_ids == [3, 5]
        assert sorted(g.edges) == [(SOURCE, 3, 0.0), (3, SINK, 0.0), (3, 5, 1.0)]

    def test_from_arrays_copies_and_keeps_cheapest_copy(self):
        link = np.array([2.0, 0.5, 1.0])
        g = FlowGraph.from_arrays(
            [7, 4], [0.25, 0.0], [True, True], [1.0, 1.0], [1.0, 1.0], [1, 1, 1], [0, 0, 0], link
        )
        link[:] = 9.0
        assert sorted(g.edges) == sorted(
            [(SOURCE, 7, 1.0), (SOURCE, 4, 1.0), (7, SINK, 1.0), (4, SINK, 1.0), (4, 7, 0.5)]
        )
        res = solve_paths(g, mode="cover_all")
        assert res.paths == [[4, 7]] and res.total_cost == 1.0 + 0.5 + 0.25 + 1.0

    def test_array_links_must_be_distinct_pairs(self):
        # the assignment matrix would sum a repeated pair's arcs
        free, ends = np.zeros(2, dtype=bool), np.zeros(2)
        for src, dst in (([0, 0], [1, 1]), ([1], [1])):
            with pytest.raises(FlowGraphError):
                min_cost_paths(np.zeros(2), free, ends, ends, src, dst, np.zeros(len(src)))
