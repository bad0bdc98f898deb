import pytest

from sgx.core import new_signed_graph, relabel, switch, unbalanced_triangles
from sgx.families import gamma, kn_minus, u1
from sgx.forbidden import (
    ForbiddenSpec,
    book_count,
    count_unbalanced_triangles,
    friendship_count,
    is_forbidden_free,
    max_matching_size,
    parse_forbidden,
)
from sgx.rng import SplitMix64

from oracles import brute_matching_size


def bowtie():
    # two unbalanced triangles sharing exactly vertex 0
    return new_signed_graph(
        5, [(0, 1, -1), (1, 2, 1), (0, 2, 1), (0, 3, -1), (3, 4, 1), (0, 4, 1)]
    )


def random_graph(n, rng, p=0.5, neg=0.3):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.unit() < p:
                edges.append((u, v, -1 if rng.unit() < neg else 1))
    return new_signed_graph(n, edges)


# --- counting -----------------------------------------------------------------


def test_count_examples():
    assert count_unbalanced_triangles(gamma(9, 5)) == 3
    assert count_unbalanced_triangles(kn_minus(5, [])) == 0
    assert count_unbalanced_triangles(kn_minus(6, [(0, 1)])) == 4


def test_tc3_free_examples():
    for n, t in ((7, 3), (9, 4), (9, 7)):
        assert is_forbidden_free(gamma(n, t + 1), ForbiddenSpec("tc3", t))
        assert not is_forbidden_free(gamma(n, t + 2), ForbiddenSpec("tc3", t))


def test_c3_spec_means_single_triangle():
    assert is_forbidden_free(kn_minus(5, []), ForbiddenSpec("c3"))
    assert not is_forbidden_free(gamma(6, 3), ForbiddenSpec("c3"))


def test_tc3_monotone_in_threshold():
    g = gamma(8, 6)
    free = [is_forbidden_free(g, ForbiddenSpec("tc3", t)) for t in range(1, 9)]
    assert free == sorted(free)  # once free, stays free


# --- book ----------------------------------------------------------------------


def test_book_count_gamma():
    edge, cnt = book_count(gamma(6, 4))
    assert edge == (0, 5) and cnt == 2


def test_book_count_u1():
    edge, cnt = book_count(u1(9))
    assert edge == (0, 1) and cnt == 6


def test_book_free():
    assert is_forbidden_free(gamma(6, 4), ForbiddenSpec("book", 3))
    assert not is_forbidden_free(gamma(6, 4), ForbiddenSpec("book", 2))


# --- friendship ------------------------------------------------------------------


def test_friendship_all_positive():
    assert friendship_count(kn_minus(8, [])) == (0, 0)


def test_friendship_single_negative_edge_complete():
    # all unbalanced triangles share the negative edge: matchings stay at 1
    for n in (5, 6, 7):
        v, cnt = friendship_count(kn_minus(n, [(0, 1)]))
        assert cnt == 1
        assert is_forbidden_free(kn_minus(n, [(0, 1)]), ForbiddenSpec("friendship", 2))


def test_friendship_bowtie():
    v, cnt = friendship_count(bowtie())
    assert (v, cnt) == (0, 2)
    assert not is_forbidden_free(bowtie(), ForbiddenSpec("friendship", 2))


def test_friendship_at_most_half_degree():
    rng = SplitMix64(31)
    for _ in range(40):
        g = random_graph(8, rng)
        v, cnt = friendship_count(g)
        assert cnt <= g.degree(v) // 2 if cnt else True


# --- invariance and bounds --------------------------------------------------------


def test_counts_invariant_under_switching_and_relabeling():
    rng = SplitMix64(17)
    for _ in range(40):
        g = random_graph(7, rng)
        u = {v for v in range(7) if rng.unit() < 0.5}
        perm = list(range(7))
        rng.shuffle(perm)
        h = relabel(switch(g, u), perm)
        assert count_unbalanced_triangles(g) == count_unbalanced_triangles(h)
        assert book_count(g)[1] == book_count(h)[1]
        assert friendship_count(g)[1] == friendship_count(h)[1]


def test_counts_bounded_by_total():
    rng = SplitMix64(53)
    for _ in range(40):
        g = random_graph(7, rng)
        total = count_unbalanced_triangles(g)
        assert book_count(g)[1] <= total
        assert friendship_count(g)[1] <= total


# --- matching -----------------------------------------------------------------------


def test_matching_against_brute_force():
    rng = SplitMix64(71)
    for _ in range(60):
        n = 3 + rng.below(5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.unit() < 0.5
        ]
        assert max_matching_size(n, edges) == brute_matching_size(n, edges)


def test_matching_matches_networkx_on_link_graphs():
    nx = pytest.importorskip("networkx")
    rng = SplitMix64(73)
    checked = 0
    for _ in range(30):
        g = random_graph(8 + rng.below(5), rng, p=0.6, neg=0.4)
        link = {v: [] for v in range(g.n)}
        for a, b, c in unbalanced_triangles(g):
            link[a].append((b, c))
            link[b].append((a, c))
            link[c].append((a, b))
        for edges in link.values():
            if not edges:
                continue
            h = nx.Graph(edges)
            ids = {x: i for i, x in enumerate(sorted(h))}
            size = max_matching_size(len(ids), [(ids[x], ids[y]) for x, y in edges])
            assert size == len(nx.max_weight_matching(h, maxcardinality=True))
            checked += 1
    assert checked > 100


def test_matching_blossom_case():
    # odd cycle C5: maximum matching 2, greedy alone can be fooled
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert max_matching_size(5, edges) == 2


# --- spec strings ----------------------------------------------------------------------


def test_parse_forbidden():
    assert parse_forbidden("tc3:4") == ForbiddenSpec("tc3", 4)
    assert parse_forbidden("book:3") == ForbiddenSpec("book", 3)
    assert parse_forbidden("friendship:2") == ForbiddenSpec("friendship", 2)
    assert parse_forbidden("c3") == ForbiddenSpec("c3", 1)
    assert str(parse_forbidden("tc3:4")) == "tc3:4"


def test_parse_forbidden_errors():
    with pytest.raises(ValueError):
        parse_forbidden("tc3")
    with pytest.raises(ValueError):
        parse_forbidden("pentagon:2")
    with pytest.raises(ValueError):
        ForbiddenSpec("tc3", 0)
