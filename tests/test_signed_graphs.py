"""Tests for the signed graph dictionary and the pseudoforest classifier."""

import itertools
import random

import pytest

from coxeter_ehrhart.linalg import rank
from coxeter_ehrhart.roots import is_integral, positive_roots
from signed_graphs_reference import (
    SignedGraph,
    classify,
    halfedge,
    negative_edge,
    negative_loop,
    positive_edge,
)
from helpers import (
    all_tree_components_even,
    chi,
    graph_from_roots,
    relative_volume,
    roots_from_graph,
    vertex_switch,
)


def test_dictionary_on_single_roots():
    assert graph_from_roots([(1, -1, 0)]).edges == frozenset({positive_edge(1, 2)})
    assert graph_from_roots([(1, 0, 1)]).edges == frozenset({negative_edge(1, 3)})
    assert graph_from_roots([(0, 1, 0)]).edges == frozenset({halfedge(2)})
    assert graph_from_roots([(0, 0, 2)]).edges == frozenset({negative_loop(3)})


def test_dictionary_rejects_non_roots():
    for bad in [(0, 0), (1, 1, 1), (2, 1), (3, 0), (1, -2), (-1, 1)]:
        with pytest.raises(ValueError):
            graph_from_roots([bad])
    with pytest.raises(ValueError):
        graph_from_roots([(1, -1), (1, -1)])
    with pytest.raises(ValueError):
        graph_from_roots([])


def test_round_trip_through_every_family():
    for family in "ABCD":
        for n in range(1, 6):
            rs = positive_roots(family, n)
            graph = graph_from_roots(rs.roots, n=n)
            assert sorted(roots_from_graph(graph)) == sorted(rs.roots)
            assert graph_from_roots(roots_from_graph(graph), n=n) == graph


def test_round_trip_on_arbitrary_subgraphs():
    rng = random.Random(9)
    all_items = [positive_edge(i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    all_items += [negative_edge(i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    all_items += [halfedge(j) for j in range(1, 5)]
    all_items += [negative_loop(j) for j in range(1, 5)]
    for _ in range(100):
        chosen = frozenset(rng.sample(all_items, rng.randint(1, 8)))
        graph = SignedGraph(4, chosen)
        assert graph_from_roots(roots_from_graph(graph), n=4) == graph


def test_edge_constructors_validate_vertices():
    with pytest.raises(ValueError):
        positive_edge(0, 1)
    with pytest.raises(ValueError):
        negative_edge(2, 2)
    with pytest.raises(ValueError):
        halfedge(-1)


def test_classify_single_components():
    # spanning tree on three vertices
    stats = classify(SignedGraph(3, {positive_edge(1, 2), positive_edge(2, 3)}))
    assert (stats.tc, stats.hc, stats.lc, stats.pc) == (1, 0, 0, 0)
    assert stats.edge_count == 2
    # a lone vertex is a one-vertex tree
    stats = classify(SignedGraph(2, {halfedge(1)}))
    assert (stats.tc, stats.hc, stats.lc, stats.pc) == (1, 1, 0, 0)
    stats = classify(SignedGraph(1, {negative_loop(1)}))
    assert (stats.tc, stats.hc, stats.lc, stats.pc) == (0, 0, 1, 0)
    # parallel edges of opposite sign form the smallest unbalanced cycle
    stats = classify(SignedGraph(2, {positive_edge(1, 2), negative_edge(1, 2)}))
    assert (stats.tc, stats.hc, stats.lc, stats.pc) == (0, 0, 0, 1)


def test_classify_rejects_balanced_cycles_and_crowding():
    triangle = {positive_edge(1, 2), positive_edge(1, 3), positive_edge(2, 3)}
    assert classify(SignedGraph(3, triangle)) is None
    unbalanced = {positive_edge(1, 2), positive_edge(1, 3), negative_edge(2, 3)}
    stats = classify(SignedGraph(3, unbalanced))
    assert stats is not None and stats.pc == 1
    # two extra features in one component is too many
    assert classify(SignedGraph(2, {positive_edge(1, 2), halfedge(1), halfedge(2)})) is None
    assert classify(SignedGraph(1, {halfedge(1), negative_loop(1)})) is None
    # even-length cycle whose sign product is positive is balanced as well
    square = {positive_edge(1, 2), negative_edge(2, 3), positive_edge(3, 4), negative_edge(1, 4)}
    assert classify(SignedGraph(4, square)) is None


def test_component_counts_add_up():
    graph = SignedGraph(
        6,
        {
            positive_edge(1, 2),
            halfedge(3),
            negative_loop(4),
            positive_edge(5, 6),
            negative_edge(5, 6),
        },
    )
    stats = classify(graph)
    assert (stats.tc, stats.hc, stats.lc, stats.pc) == (1, 1, 1, 1)
    assert stats.components == 4
    assert stats.edge_count == 5
    assert stats.all_trees_even  # the only tree component has two vertices


def test_all_tree_components_even():
    assert all_tree_components_even(SignedGraph(2, {positive_edge(1, 2)}))
    assert not all_tree_components_even(SignedGraph(3, {positive_edge(1, 2)}))
    assert all_tree_components_even(SignedGraph(3, {positive_edge(1, 2), halfedge(3)}))
    with pytest.raises(ValueError):
        all_tree_components_even(
            SignedGraph(3, {positive_edge(1, 2), positive_edge(1, 3), positive_edge(2, 3)})
        )


def test_vertex_switch_is_a_stats_preserving_involution():
    rng = random.Random(31)
    items = [positive_edge(i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    items += [negative_edge(i, j) for i, j in itertools.combinations(range(1, 5), 2)]
    items += [halfedge(j) for j in range(1, 5)] + [negative_loop(j) for j in range(1, 5)]
    for _ in range(60):
        graph = SignedGraph(4, frozenset(rng.sample(items, rng.randint(1, 7))))
        m = rng.randint(1, 4)
        switched = vertex_switch(graph, m)
        assert vertex_switch(switched, m) == graph
        assert classify(switched) == classify(graph)


def test_vertex_switch_preserves_lattice_visibility():
    # switching negates one coordinate, which maps the lattice to itself and
    # moves a half-integral shift by an integer vector, so chi cannot change
    rng = random.Random(2718)
    rs = positive_roots("B", 3)
    forests = []
    for size in range(1, 10):
        for subset in itertools.combinations(rs.roots, size):
            if classify(graph_from_roots(subset, n=3)) is not None:
                forests.append(subset)
    for subset in rng.sample(forests, 40):
        graph = graph_from_roots(subset, n=3)
        m = rng.randint(1, 3)
        switched_roots = roots_from_graph(vertex_switch(graph, m))
        for t in (1, 2, 3):
            assert chi(rs.shift, switched_roots, t) == chi(rs.shift, subset, t)


def test_vertex_switch_flips_ordinary_edges_only():
    graph = SignedGraph(3, {positive_edge(1, 2), negative_edge(1, 3), halfedge(1)})
    switched = vertex_switch(graph, 1)
    assert switched.edges == frozenset(
        {negative_edge(1, 2), positive_edge(1, 3), halfedge(1)}
    )


def test_forest_dictionary_exhaustive():
    """Independence of a root subset matches the pseudoforest condition."""
    for family, n in [("A", 4), ("B", 3), ("C", 3), ("D", 4)]:
        roots = positive_roots(family, n).roots
        for size in range(len(roots) + 1):
            for subset in itertools.combinations(roots, size):
                stats = classify(graph_from_roots(subset, n=n))
                independent = rank(subset, dim=n) == len(subset)
                assert independent == (stats is not None)
                if stats is None:
                    continue
                assert len(subset) == n - stats.tc
                if subset:
                    assert relative_volume(subset) == 2 ** (stats.pc + stats.lc)


def test_forest_dictionary_sampled_rank_four():
    rng = random.Random(123)
    for family in ("B", "C"):
        roots = positive_roots(family, 4).roots
        for _ in range(300):
            subset = tuple(rng.sample(roots, rng.randint(1, 8)))
            stats = classify(graph_from_roots(subset, n=4))
            independent = rank(subset, dim=4) == len(subset)
            assert independent == (stats is not None)
            if stats is not None:
                assert len(subset) == 4 - stats.tc
                assert relative_volume(subset) == 2 ** (stats.pc + stats.lc)


def test_lattice_visibility_matches_tree_parity():
    """For half-integral shifts, an odd dilate of the span of an independent
    subset meets the lattice exactly when every tree component is even."""
    for family, n in [("A", 2), ("A", 4), ("B", 1), ("B", 2), ("B", 3)]:
        assert not is_integral(family, n)
        rs = positive_roots(family, n)
        for size in range(len(rs.roots) + 1):
            for subset in itertools.combinations(rs.roots, size):
                if rank(subset, dim=n) < len(subset):
                    continue
                graph = graph_from_roots(subset, n=n)
                expected = all_tree_components_even(graph)
                for t in (1, 3):
                    assert chi(rs.shift, subset, t) == int(expected)
                for t in (2, 4):
                    assert chi(rs.shift, subset, t) == 1
