import json
import math

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
from sgx.forbidden import ForbiddenSpec, is_forbidden_free
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

from oracles import naive_enumerate


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
