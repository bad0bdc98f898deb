import json
import math
from dataclasses import replace

import pytest

from sgx.core import (
    is_balanced,
    is_switching_isomorphic,
    new_signed_graph,
    relabel,
    switch,
    unbalanced_triangles,
)
from sgx.families import gamma, kn_minus, sigma, u1
from sgx.forbidden import ForbiddenSpec, is_forbidden_free, parse_forbidden
from sgx.rng import SplitMix64
from sgx.search import (
    classify,
    enumerate_extremal,
    local_search,
    spectral_bound_value,
    total_switching_classes,
    verify_crossing,
    verify_extremal,
    verify_identities,
    verify_spectral_bound,
    verify_u1_gap,
)
from sgx.spectra import index, largest_real_root
from sgx.families import g_poly

from oracles import labeled_enumerate, naive_enumerate, unscreened_local_search


def _canonical(report) -> str:
    return json.dumps(report.to_json_dict(canonical=True), sort_keys=True)


# --- totals -------------------------------------------------------------------


def test_class_totals_match_brute_force():
    from sgx.search import _decode_adj, _forest_residual, _pairs

    for n in range(2, 6):
        pairs, slot_of = _pairs(n)
        brute = 0
        for gmask in range(1 << len(pairs)):
            slots, adj = _decode_adj(n, gmask)
            _, residual = _forest_residual(slots, adj, slot_of)
            brute += 1 << len(residual)
        assert total_switching_classes(n) == brute


# --- unbalanced-triangle lists on slot masks ------------------------------------


def _mask_side_unbalanced(n, gmask, sig):
    from sgx.search import _decode_adj, _pairs, _triangle_masks, _unbalanced

    pairs, slot_of = _pairs(n)
    slots, adj = _decode_adj(n, gmask)
    return tuple(_unbalanced(sig, _triangle_masks(slots, adj, slot_of, pairs)))


def test_mask_side_unbalanced_triangles_match_core():
    from sgx.search import _mask_graph

    cases = [(4, g, s) for g in range(1 << 6) for s in range(1 << 6) if s & ~g == 0]
    assert len(cases) == 729
    rng = SplitMix64(404)
    for n in range(5, 10):
        for _ in range(40):
            gmask = sig = 0
            for k in range(n * (n - 1) // 2):
                if rng.unit() < 0.6:
                    gmask |= 1 << k
                    if rng.unit() < 0.4:
                        sig |= 1 << k
            cases.append((n, gmask, sig))
    for n, gmask, sig in cases:
        assert _mask_side_unbalanced(n, gmask, sig) == unbalanced_triangles(_mask_graph(n, gmask, sig))


@pytest.mark.parametrize("spec", [ForbiddenSpec("tc3", 3), ForbiddenSpec("book", 2),
                                  ForbiddenSpec("friendship", 2)], ids=str)
def test_move_updates_match_recomputed_triangles(spec):
    from sgx.search import _mask_graph, _moves, _pairs, _random_state

    rng = SplitMix64(515)
    for n in (7, 9):
        pairs, _ = _pairs(n)
        for _ in range(3):
            gmask, sig, tris, _idx = _random_state(n, spec, rng)
            assert tuple(tris) == unbalanced_triangles(_mask_graph(n, gmask, sig))
            moves = list(_moves(n, gmask, sig, tris))
            assert len(moves) == 2 * len(pairs)
            for cand_g, cand_s, cand_tris in moves:
                assert tuple(cand_tris) == unbalanced_triangles(_mask_graph(n, cand_g, cand_s))


# --- exhaustive enumeration ------------------------------------------------------


def test_enumerate_n6_t2_winner():
    rep = enumerate_extremal(6, ForbiddenSpec("tc3", 2), top_k=1)
    top = rep.entries[0]
    assert str(top.tag) == "gamma(6, 3)"
    assert abs(top.index - 4.0) < 1e-9
    assert rep.graphs_visited == 1 << 15
    assert rep.classes_visited == total_switching_classes(6)


def test_enumerate_n6_t5_winner():
    rep = enumerate_extremal(6, ForbiddenSpec("tc3", 5), top_k=1)
    assert str(rep.entries[0].tag) == "gamma(6, 6)"


def test_enumerate_n6_t3_winner_matches_cubic_root():
    rep = enumerate_extremal(6, ForbiddenSpec("tc3", 3), top_k=1)
    top = rep.entries[0]
    assert str(top.tag) == "gamma(6, 4)"
    assert abs(top.index - largest_real_root(g_poly(6, 4).coeffs)) < 1e-8


def test_enumerate_entries_sorted_and_valid():
    rep = enumerate_extremal(5, ForbiddenSpec("tc3", 2), top_k=4)
    idxs = [e.index for e in rep.entries]
    assert idxs == sorted(idxs, reverse=True)
    for e in rep.entries:
        assert not is_balanced(e.graph)
        assert is_forbidden_free(e.graph, ForbiddenSpec("tc3", 2))


def test_enumerate_deterministic_across_runs_and_workers():
    a = enumerate_extremal(5, ForbiddenSpec("tc3", 2), top_k=3, workers=1)
    b = enumerate_extremal(5, ForbiddenSpec("tc3", 2), top_k=3, workers=1)
    c = enumerate_extremal(5, ForbiddenSpec("tc3", 2), top_k=3, workers=2)
    ja = json.dumps(a.to_json_dict(canonical=True), sort_keys=True)
    jb = json.dumps(b.to_json_dict(canonical=True), sort_keys=True)
    jc = json.dumps(c.to_json_dict(canonical=True), sort_keys=True)
    assert ja == jb == jc


def test_enumerate_caps():
    with pytest.raises(ValueError, match="capped"):
        enumerate_extremal(8, ForbiddenSpec("tc3", 2))


def test_enumerate_matches_naive_oracle_small():
    for n, spec in ((4, ForbiddenSpec("tc3", 2)), (4, ForbiddenSpec("c3"))):
        mine = enumerate_extremal(n, spec, top_k=3)
        theirs = naive_enumerate(n, spec, top_k=3)
        assert len(mine.entries) == len(theirs)
        for e, o in zip(mine.entries, theirs):
            assert abs(e.index - o["index"]) <= 1e-10
            assert e.multiplicity == o["mult"]
            assert is_switching_isomorphic(e.graph, o["graph"])


ORACLE_SPECS = ("c3", "tc3:2", "tc3:3", "tc3:5", "tc3:7", "book:1", "book:2",
                "friendship:1", "friendship:2")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumerate_equals_labeled_oracle(n, spec):
    for top_k in (1, 3, 5):
        mine = enumerate_extremal(n, parse_forbidden(spec), top_k=top_k, workers=1)
        assert _canonical(mine) == _canonical(labeled_enumerate(n, parse_forbidden(spec), top_k))


@pytest.mark.parametrize("spec,top_k", [("tc3:3", 1), ("friendship:2", 3)])
def test_enumerate_n6_equals_labeled_oracle(spec, top_k):
    mine = enumerate_extremal(6, parse_forbidden(spec), top_k=top_k, workers=1)
    assert _canonical(mine) == _canonical(labeled_enumerate(6, parse_forbidden(spec), top_k))


# --- isomorph-free generation ----------------------------------------------------

A000088 = (1, 2, 4, 11, 34, 156, 1044)  # graphs on n = 1..7 vertices up to isomorphism


def test_generated_graph_counts_match_a000088():
    from sgx.search import _graphs

    assert tuple(len(_graphs(n)) for n in range(1, 8)) == A000088


def test_generated_orbits_cover_every_labeled_graph_once():
    """Sum over the generated graphs of n!/|Aut(G)|, counted as the distinct
    relabelled slot masks, is the number of labeled graphs exactly."""
    from itertools import permutations

    from sgx.search import _graphs, _pairs

    for n in range(1, 7):
        pairs, slot_of = _pairs(n)
        images = []
        for perm in permutations(range(n)):
            images.append([slot_of[tuple(sorted((perm[u], perm[v])))] for u, v in pairs])
        total = 0
        for gmask in _graphs(n):
            slots = [k for k in range(len(pairs)) if gmask >> k & 1]
            total += len({sum(1 << img[k] for k in slots) for img in images})
        assert total == 1 << len(pairs)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a recorder that maps in-process; the
    list holds the max_workers of every pool asked for."""
    import sgx.search as search

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", SerialPool)
    return started


def test_enumerate_bounds_the_process_count(monkeypatch, serial_pool):
    import sgx.search as search

    spec = ForbiddenSpec("tc3", 2)
    one = _canonical(enumerate_extremal(5, spec, top_k=3, workers=1))
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    assert _canonical(enumerate_extremal(5, spec, top_k=3, workers=10_000)) == one
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    enumerate_extremal(3, spec, top_k=3, workers=10_000)  # 4 generated graphs
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert _canonical(enumerate_extremal(5, spec, top_k=3, workers=10_000)) == one
    assert serial_pool == [4, 4]


def test_scan_stats_sum_the_workers_and_stay_out_of_json(monkeypatch, serial_pool):
    import sgx.search as search

    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    spec = ForbiddenSpec("friendship", 2)
    rep = enumerate_extremal(5, spec, top_k=3, workers=3)
    ngraphs = len(search._graphs(5))
    want = dict.fromkeys(("graphs_eig", "graphs_enum", "classes_enum", "survivors"), 0)
    for w in range(3):
        lo, hi = ngraphs * w // 3, ngraphs * (w + 1) // 3
        _, st = search._scan_extremal_range((5, "friendship", 2, lo, hi, search.DEFAULT_POOL))
        for key in want:
            want[key] += st[key]
    want["copies_expanded"] = sum(e.multiplicity for e in rep.entries)
    want["pool_rounds"] = 1
    assert serial_pool == [3]
    assert rep.scan_stats == want
    assert rep.render_table().splitlines()[-1] == (
        f"scan: graphs diagonalised {want['graphs_eig']}  graphs enumerated {want['graphs_enum']}  "
        f"classes filtered {want['classes_enum']}  survivors {want['survivors']}  "
        f"labeled copies {want['copies_expanded']}  pool rounds 1"
    )
    oracle = labeled_enumerate(5, spec, 3)
    assert rep.to_json_dict(canonical=True) == oracle.to_json_dict(canonical=True)
    assert rep.to_json_dict().keys() == oracle.to_json_dict().keys()


def test_small_pool_prunes_and_regrows_to_the_same_report(monkeypatch):
    """A tiny representative pool fills at once, so the Hong and
    underlying-index prunes fire and the pool regrows; the report must not
    change."""
    import sgx.search as search

    want = {spec: _canonical(labeled_enumerate(5, parse_forbidden(spec), 3))
            for spec in ("tc3:3", "book:2", "friendship:2")}
    monkeypatch.setattr(search, "DEFAULT_POOL", 2)
    rounds = []
    for spec, text in want.items():
        rep = enumerate_extremal(5, parse_forbidden(spec), top_k=3, workers=1)
        assert _canonical(rep) == text
        rounds.append(rep.scan_stats["pool_rounds"])
    assert max(rounds) > 1
    _, stats = search._scan_extremal_range((5, "tc3", 3, 0, len(search._graphs(5)), 2))
    assert stats["graphs_eig"] < len(search._graphs(5)) - 1  # the empty graph is never solved


# --- classification ---------------------------------------------------------------


def test_classify_roundtrip():
    assert str(classify(gamma(9, 4))) == "gamma(9, 4)"
    assert str(classify(sigma(1, 4, 3))) == "sigma(1, 4, 3)"
    assert str(classify(u1(9))) == "u1(9)"
    assert str(classify(kn_minus(7, [(2, 5)]))) == "gamma(7, 7)"


def test_classify_invariance():
    g = sigma(1, 4, 3)
    h = relabel(switch(g, {0, 3, 7}), [3, 1, 4, 0, 9, 2, 6, 5, 8, 7])
    assert str(classify(h)) == "sigma(1, 4, 3)"


def test_classify_other():
    c5 = new_signed_graph(
        7, [(0, 1, -1), (1, 2, -1), (2, 3, -1), (3, 4, -1), (0, 4, -1)]
    )
    assert str(classify(c5)) == "other"


# --- local search -------------------------------------------------------------------


def test_local_search_finds_winner_small():
    rep = local_search(7, ForbiddenSpec("tc3", 2), seed=11, restarts=40)
    top = rep.entries[0]
    assert is_switching_isomorphic(top.graph, gamma(7, 3))
    assert abs(top.index - 5.0) < 1e-9


def test_local_search_exclusion():
    rep = local_search(7, ForbiddenSpec("tc3", 2), seed=11, restarts=40, exclude=[gamma(7, 3)])
    top = rep.entries[0]
    assert not is_switching_isomorphic(top.graph, gamma(7, 3))
    assert top.index < 5.0


def test_local_search_incumbents_valid():
    spec = ForbiddenSpec("tc3", 3)
    rep = local_search(8, spec, seed=5, restarts=15)
    top = rep.entries[0]
    assert not is_balanced(top.graph)
    assert is_forbidden_free(top.graph, spec)
    assert len(rep.restart_best_indices) == 15


def test_local_search_deterministic():
    a = local_search(7, ForbiddenSpec("tc3", 2), seed=3, restarts=10)
    b = local_search(7, ForbiddenSpec("tc3", 2), seed=3, restarts=10)
    assert a.restart_best_indices == b.restart_best_indices
    assert a.entries[0].index == b.entries[0].index


def test_local_search_without_exclusion_finds_thm1_winner_n9():
    rep = local_search(9, ForbiddenSpec("tc3", 4), seed=42, restarts=60)
    assert is_switching_isomorphic(rep.entries[0].graph, gamma(9, 5))


# --- the move screen: same moves as solving every move --------------------------------

SEARCH_N9_OPS = [(t, min(t + 1, 9)) for t in range(3, 9)]  # (t, winner's gamma(9, .) parameter)


def _search_n9(search=local_search):
    """The six criterion 09 searches at one restart, seed 42, winner excluded."""
    return [search(9, ForbiddenSpec("tc3", t), seed=42, restarts=1, exclude=[gamma(9, w)])
            for t, w in SEARCH_N9_OPS]


@pytest.fixture(scope="module")
def screened_n9():
    """The six n = 9 reports, with the numbers of _state_index calls and of
    start states drawn (each start state costs one _state_index call)."""
    import sgx.search as search

    calls = {"_state_index": 0, "_random_state": 0}
    real = {name: getattr(search, name) for name in calls}

    def counting(name):
        def call(*args):
            calls[name] += 1
            return real[name](*args)
        return call

    for name in calls:
        setattr(search, name, counting(name))
    try:
        reports = _search_n9()
    finally:
        for name, fn in real.items():
            setattr(search, name, fn)
    return reports, calls


def test_screened_search_equals_unscreened_oracle_n9(screened_n9):
    reports, _ = screened_n9
    want = _search_n9(unscreened_local_search)
    assert [_canonical(r) for r in reports] == [_canonical(r) for r in want]


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("spec", ["tc3:2", "book:2", "friendship:2"])
def test_screened_search_equals_unscreened_oracle(spec, n):
    args = (n, parse_forbidden(spec), 5, 2)
    assert _canonical(local_search(*args)) == _canonical(unscreened_local_search(*args))


def test_screened_search_solves_at_most_2000_states_n9(screened_n9):
    """A deterministic guard in place of a timing test: solving every
    feasible move makes 7,684 _state_index calls over these six searches."""
    _, calls = screened_n9
    assert calls["_state_index"] <= 2000


def test_search_stats_count_the_solves_and_stay_out_of_json(screened_n9):
    reports, calls = screened_n9
    total = dict.fromkeys(reports[0].scan_stats, 0)
    for rep in reports:
        for key, val in rep.scan_stats.items():
            total[key] += val
    assert total["moves_solved"] == calls["_state_index"] - calls["_random_state"]
    assert total["moves_solved"] < total["moves_feasible"]
    assert 0 < total["screen_eighs"] <= total["steps"]
    # every start state is checked, and so is the move of every step but each climb's last
    assert total["exclusion_checks"] >= total["steps"]
    st = reports[-1].scan_stats
    assert reports[-1].render_table().splitlines()[-1] == (
        f"search: steps {st['steps']}  moves feasible {st['moves_feasible']}  "
        f"moves solved {st['moves_solved']}  screen eigendecompositions {st['screen_eighs']}  "
        f"exclusion checks {st['exclusion_checks']}"
    )
    assert reports[-1].to_json_dict() == replace(reports[-1], scan_stats=None).to_json_dict()


def test_move_bound_is_sound():
    """bound + margin >= the Jacobi index of every feasible move, from one
    seeded feasible state per order n = 5..16 under tc3, book and
    friendship in turn."""
    from sgx.search import _balanced, _moves, _random_state, _screen, _state_index
    from sgx.forbidden import triangles_free

    specs = [ForbiddenSpec("tc3", 3), ForbiddenSpec("book", 2), ForbiddenSpec("friendship", 2)]
    rng = SplitMix64(618)
    for n in range(5, 17):
        spec = specs[n % 3]
        gmask, sig, tris, _ = _random_state(n, spec, rng)
        bound, margin = _screen(n, gmask, sig)
        assert 0 < margin < 1e-9  # the screen is on: lambda_1 - lambda_2 >= SCREEN_GAP
        for cand_g, cand_s, cand_tris in _moves(n, gmask, sig, tris):
            if triangles_free(n, cand_tris, spec) and (cand_tris or not _balanced(n, cand_g, cand_s)):
                assert _state_index(n, cand_g, cand_s) <= bound(cand_g, cand_s) + margin


def test_workers_env_override(monkeypatch):
    monkeypatch.setenv("SGX_WORKERS", "2")
    rep = enumerate_extremal(4, ForbiddenSpec("tc3", 2), top_k=2)
    one = enumerate_extremal(4, ForbiddenSpec("tc3", 2), top_k=2, workers=1)
    import json

    assert json.dumps(rep.to_json_dict(canonical=True)) == json.dumps(
        one.to_json_dict(canonical=True)
    )


def test_local_search_bounds():
    with pytest.raises(ValueError):
        local_search(65, ForbiddenSpec("tc3", 2), seed=1, restarts=1)
    with pytest.raises(ValueError):
        local_search(9, ForbiddenSpec("tc3", 2), seed=1, restarts=0)


# --- verifiers -----------------------------------------------------------------------


def test_verify_identities_window():
    rep = verify_identities(9, 12)
    assert rep.ok and len(rep.rows) == 4


def test_verify_crossing_n9():
    rep = verify_crossing(9, 9)
    assert rep.ok
    row = rep.rows[0]
    assert row["gamma_wins_through_t"] == 4  # gamma wins t in {3,4}, sigma wins {5,6}


def test_verify_crossing_n10():
    rep = verify_crossing(10, 10)
    assert rep.ok
    assert rep.rows[0]["gamma_wins_through_t"] == 5


def test_verify_crossing_range_guard():
    with pytest.raises(ValueError):
        verify_crossing(8, 9)


def test_verify_u1_gap():
    rep = verify_u1_gap(9, 12)
    assert rep.ok
    assert all(row["gap"] > 1e-6 for row in rep.rows)


def test_verify_u1_gap_report_only_below_9():
    rep = verify_u1_gap(5, 8)
    assert all(not row["asserted"] for row in rep.rows)
    assert all(row["identity_ok"] for row in rep.rows)


def test_verify_spectral_bound_n4():
    rep = verify_spectral_bound(4)
    assert rep.ok
    assert abs(rep.rows[0]["bound"] - 0.5 * (math.sqrt(8) + 0)) < 1e-12
    assert rep.rows[0]["violations"] == 0


def test_verify_spectral_bound_cap():
    with pytest.raises(ValueError, match="capped"):
        verify_spectral_bound(7)


def test_verify_extremal_small_n_report_only():
    rep = verify_extremal(5, t_values=[2, 3])
    assert rep.ok  # no assertions below the n >= 6 hypothesis
    assert rep.notes
