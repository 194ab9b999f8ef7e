import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsadjust import adjustment
from zsadjust.adjustment import (
    _GATHER_RATIO,
    _blend_neighbors,
    _nearest,
    _side,
    adjust_seen,
    adjust_unseen,
    knn_seen,
)
from zsadjust.data import LabeledDataset, PrototypeTable
from zsadjust.errors import DataError
from zsadjust.mapping import HyperParams, MappingModel
from zsadjust.trainer import train

from oracles import (
    cosine_similarity,
    per_class_adjust_unseen,
    per_class_knn,
    per_rank_blend_neighbors,
    whole_block_nearest,
)


def test_cosine_self():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine_similarity(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_opposite():
    v = np.array([0.3, -0.7])
    assert cosine_similarity(v, -v) == pytest.approx(-1.0)


def test_cosine_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])


def _table(vectors, seen):
    n = vectors.shape[1]
    return PrototypeTable(np.arange(n), vectors, np.asarray(seen))


def _one_class_setup(proto, x, w):
    """Single seen class 0 plus an unseen class 1."""
    vecs = np.column_stack([proto, np.ones_like(proto)])
    table = _table(vecs, [True, False])
    data = LabeledDataset(np.asarray(x, dtype=float).reshape(-1, 1),
                          np.array([0]), 2)
    return table, data, MappingModel(w)


def test_adjust_seen_noop_when_gamma_zero():
    # gamma1 = 0 disables the blend even with the default lambda1 anchor
    table, data, model = _one_class_setup(
        np.array([1.0, 2.0]), [3.0, 4.0], np.eye(2))
    hp = HyperParams(gamma1=0.0, k=1)
    out = adjust_seen(table, model, data, hp)
    assert np.array_equal(out.vectors, table.vectors)


def test_adjust_seen_pure_mapped_mean():
    table, data, model = _one_class_setup(
        np.array([1.0, 2.0]), [3.0, 4.0], np.eye(2))
    hp = HyperParams(lambda1=0.0, gamma1=0.25, k=1)
    out = adjust_seen(table, model, data, hp)
    assert np.allclose(out.vectors[:, 0], 0.25 * np.array([3.0, 4.0]))


def test_adjust_seen_default_blend_fixed_point():
    # mapped mean equal to the prototype: 0.75 p + 0.25 p = p
    proto = np.array([0.3, -1.7, 0.9])
    w = np.eye(3)
    table, data, model = _one_class_setup(proto, proto, w)
    out = adjust_seen(table, model, data, HyperParams(k=1))
    assert np.max(np.abs(out.vectors[:, 0] - proto)) <= 1e-12


def test_adjust_seen_leaves_unseen_untouched():
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((3, 4))
    table = _table(vecs, [True, True, False, False])
    data = LabeledDataset(rng.standard_normal((3, 6)),
                          np.array([0, 0, 1, 1, 0, 1]), 4)
    model = MappingModel(rng.standard_normal((3, 3)))
    out = adjust_seen(table, model, data, HyperParams(k=1))
    assert np.array_equal(out.vectors[:, 2:], vecs[:, 2:])
    assert np.array_equal(out.seen, table.seen)
    assert np.array_equal(out.class_ids, table.class_ids)


def test_adjust_seen_requires_instances():
    rng = np.random.default_rng(4)
    table = _table(rng.standard_normal((2, 3)), [True, True, False])
    data = LabeledDataset(rng.standard_normal((2, 2)),
                          np.array([0, 0]), 3)  # class 1 has no instances
    with pytest.raises(DataError, match="without instances"):
        adjust_seen(table, MappingModel(np.eye(2)), data, HyperParams(k=1))


def test_adjust_seen_anchors_on_given_table():
    # the blend anchors on the input prototype and the mapped mean
    table, data, model = _one_class_setup(
        np.array([1.0, 0.0]), [0.0, 1.0], np.eye(2))
    out = adjust_seen(table, model, data, HyperParams(k=1))
    assert np.allclose(out.vectors[:, 0], [0.75, 0.25])


def test_knn_full_ranking_matches_exhaustive_sort():
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((4, 7))
    seen = [True] * 6 + [False]
    table = _table(vecs, seen)
    k = 6
    got = knn_seen(table, 6, k)
    sims = {
        cid: cosine_similarity(vecs[:, 6], vecs[:, cid]) for cid in range(6)
    }
    want = sorted(sims.items(), key=lambda kv: (-kv[1], kv[0]))
    assert [c for c, _ in got] == [c for c, _ in want]
    for (gc, gs), (wc, ws) in zip(got, want):
        assert gs == pytest.approx(ws, abs=1e-12)


def test_knn_exact_match_ranked_first():
    vecs = np.array([[1.0, 0.0, 1.0],
                     [0.0, 1.0, 0.0]])
    table = _table(2.0 * vecs, [True, True, False])  # unseen == seen 0 dir
    top = knn_seen(table, 2, 1)
    assert top[0][0] == 0
    assert top[0][1] == pytest.approx(1.0)


def test_knn_tie_breaks_toward_smaller_id():
    vecs = np.array([[1.0, 1.0, 1.0],
                     [0.0, 0.0, 0.0]])
    table = _table(vecs, [True, True, False])
    got = knn_seen(table, 2, 2)
    assert [c for c, _ in got] == [0, 1]


def test_knn_undefined_similarity_ranked_last():
    # finite prototypes whose norms overflow give a NaN cosine; it ranks
    # after every defined one, whatever k
    vecs = np.array([[1e200, 1.0, 2.0, 1e200],
                     [1e200, 3.0, 1.0, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        table = _table(vecs, [True, True, True, False])
        for k in (1, 2, 3):
            got = knn_seen(table, 3, k)
            assert [c for c, _ in got] == [1, 2, 0][:k]
    assert np.isnan(got[-1][1])


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(seed=st.integers(0, 2**16), n_seen=st.integers(1, 8),
       n_query=st.integers(1, 4), huge=st.sets(st.integers(0, 7)),
       huge_queries=st.sets(st.integers(0, 3)))
def test_knn_prefix_equals_smaller_search(seed, n_seen, n_query, huge,
                                          huge_queries):
    # the first k ranks of a search at any larger k are the search at k,
    # rows and similarities, exactly. Integer prototypes with copied
    # columns tie exactly; entries of 1e200 overflow a norm (similarity
    # 0) or, with an overflowing dot product, give NaN.
    rng = np.random.default_rng(seed)
    n = n_seen + 2                  # two unseen columns are never chosen
    vecs = rng.integers(-2, 3, size=(3, n)).astype(float)
    copied = rng.random(n) < 0.4
    vecs[:, copied] = vecs[:, rng.integers(0, n, size=n)[copied]]
    queries = rng.integers(-2, 3, size=(3, n_query)).astype(float)
    vecs[:, [j for j in huge if j < n_seen]] *= 1e200
    queries[:, [j for j in huge_queries if j < n_query]] *= 1e200
    vecs[0, ~vecs.any(axis=0)] = 1.0
    perm = rng.permutation(n)
    with np.errstate(over="ignore", invalid="ignore"):
        source = PrototypeTable(3 * rng.permutation(n) + 1, vecs[:, perm],
                                (np.arange(n) < n_seen)[perm])
        _, _, found = _side(source, True)
        searches = [_nearest(found, queries, k) for k in range(1, n_seen + 1)]
    for k, (top, sims) in enumerate(searches, 1):
        assert top.shape == sims.shape == (k, n_query)
        for big_top, big_sims in searches[k - 1:]:
            assert np.array_equal(big_top[:k], top)
            assert np.array_equal(big_sims[:k], sims, equal_nan=True)


def test_knn_rejects_oversized_k():
    table = _table(np.eye(3), [True, True, False])
    with pytest.raises(DataError, match="exceeds"):
        knn_seen(table, 2, 3)


def test_adjust_unseen_noop_when_gamma_zero():
    rng = np.random.default_rng(6)
    table = _table(rng.standard_normal((3, 5)), [True, True, True, False, False])
    hp = HyperParams(lambda2=1.0, gamma2=0.0, k=2)
    out = adjust_unseen(table, hp)
    assert np.array_equal(out.vectors, table.vectors)
    # idempotent: applying the no-op again changes nothing
    again = adjust_unseen(out, hp)
    assert np.array_equal(again.vectors, table.vectors)


def test_adjust_unseen_default_blend_k1():
    # default blend weights with a single neighbor: p' = 0.8 p + 0.2 q
    q = np.array([0.6, 0.8])
    p = np.array([0.0, 1.0])
    table = _table(np.column_stack([q, p]), [True, False])
    out = adjust_unseen(table, HyperParams(k=1))
    assert np.max(np.abs(out.vectors[:, 1] - (0.8 * p + 0.2 * q))) <= 1e-12
    assert np.array_equal(out.vectors[:, 0], q)  # seen untouched


def test_adjust_unseen_equal_similarities_average():
    # two seen prototypes symmetric about the unseen one: equal cosine,
    # neighbor term is their plain average
    s1 = np.array([1.0, 0.2])
    s2 = np.array([1.0, -0.2])
    p = np.array([1.0, 0.0])
    table = _table(np.column_stack([s1, s2, p]), [True, True, False])
    hp = HyperParams(k=2)
    out = adjust_unseen(table, hp)
    expected = 0.8 * p + 0.2 * (s1 + s2) / 2.0
    assert np.allclose(out.vectors[:, 2], expected, atol=1e-12)


def test_adjust_unseen_weights_normalize_to_one():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((4, 1))
    seen_vecs = base + 0.3 * rng.standard_normal((4, 5))  # positive sims
    unseen = base[:, 0]
    table = _table(np.column_stack([seen_vecs, unseen]), [True] * 5 + [False])
    hp = HyperParams(k=3)
    ranked = knn_seen(table, 5, hp.k)
    weights = np.array([max(s, 0.0) for _, s in ranked])
    weights /= weights.sum()
    assert abs(weights.sum() - 1.0) <= 1e-12
    blend = sum(w * table.vectors[:, table.column_of(c)]
                for w, (c, _) in zip(weights, ranked))
    out = adjust_unseen(table, hp)
    assert np.allclose(out.vectors[:, 5], 0.8 * unseen + 0.2 * blend,
                       atol=1e-12)


def test_adjust_unseen_all_negative_similarities_left_unchanged():
    seen_vecs = np.array([[1.0, 0.8], [0.2, 0.4]])   # all in +x halfspace
    unseen = np.array([-1.0, -0.5])
    table = _table(np.column_stack([seen_vecs, unseen]), [True, True, False])
    out = adjust_unseen(table, HyperParams(k=2))
    assert np.array_equal(out.vectors[:, 2], unseen)


def test_adjust_unseen_neighbor_source_switch():
    q_orig = np.array([1.0, 0.0])
    p = np.array([0.6, 0.8])
    table = _table(np.column_stack([q_orig, p]), [True, False])
    # pretend the seen prototype was adjusted
    moved = table.with_vectors(np.column_stack([[0.0, 2.0], p]))
    hp = HyperParams(k=1)
    from_moved = adjust_unseen(moved, hp)
    from_orig = adjust_unseen(moved, hp, neighbors=table)
    assert np.allclose(from_moved.vectors[:, 1],
                       0.8 * p + 0.2 * np.array([0.0, 2.0]), atol=1e-12)
    assert np.allclose(from_orig.vectors[:, 1],
                       0.8 * p + 0.2 * q_orig, atol=1e-12)


def test_adjust_unseen_rejects_oversized_k():
    table = _table(np.eye(3), [True, False, False])
    with pytest.raises(DataError, match="exceeds"):
        adjust_unseen(table, HyperParams(k=2))


def test_affine_identity_when_everything_coincides():
    # all prototypes at one point and lambda + gamma = 1: adjustment is
    # the identity for both seen and unseen classes
    point = np.array([0.5, 0.5, 0.1])
    vecs = np.column_stack([point, point, point])
    table = _table(vecs, [True, True, False])
    data = LabeledDataset(point.reshape(-1, 1).repeat(2, axis=1),
                          np.array([0, 1]), 3)
    model = MappingModel(np.eye(3))
    hp = HyperParams(k=2)
    step1 = adjust_seen(table, model, data, hp)
    step2 = adjust_unseen(step1, hp)
    assert np.allclose(step2.vectors, vecs, atol=1e-12)


def test_partition_preserved_through_both_steps():
    rng = np.random.default_rng(9)
    table = _table(rng.standard_normal((3, 6)),
                   [True, True, True, True, False, False])
    data = LabeledDataset(rng.standard_normal((3, 8)),
                          np.array([0, 1, 2, 3, 0, 1, 2, 3]), 6)
    model = MappingModel(rng.standard_normal((3, 3)))
    hp = HyperParams(k=3)
    out = adjust_unseen(adjust_seen(table, model, data, hp), hp)
    assert np.array_equal(out.class_ids, table.class_ids)
    assert np.array_equal(out.seen, table.seen)


def test_adjust_seen_zero_blend_names_classes():
    # lambda1 = 0 and class 3's features average to 0: its blend is the
    # zero vector, for the library call and for train
    table = PrototypeTable(np.array([3, 5, 7]),
                           np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                           np.array([True, True, False]))
    data = LabeledDataset(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]),
                          np.array([3, 3, 5]), 8)
    hp = HyperParams(lambda1=0.0, k=1)
    with pytest.raises(DataError,
                       match=r"seen adjustment .* classes \[3\] .*zero"):
        adjust_seen(table, MappingModel(np.eye(2)), data, hp)
    with pytest.raises(DataError,
                       match=r"seen adjustment .* classes \[3\] .*zero"):
        train(data, table, hp)


def _scrambled_table(seed, vector_seed=None, n_seen=9, n_unseen=7, d_s=4):
    """Integer prototypes (exact dot products, so duplicated columns tie
    exactly) under shuffled, non-contiguous ids. Every seen prototype has
    a positive first entry, and one unseen prototype is -e1, so all its
    similarities are negative. ``vector_seed`` draws other vectors for
    the same ids and tags."""
    rng = np.random.default_rng(seed)
    vrng = rng if vector_seed is None else np.random.default_rng(vector_seed)
    n = n_seen + n_unseen
    perm = rng.permutation(n)
    ids = 3 * rng.permutation(n) + 1
    vecs = vrng.integers(-2, 3, size=(d_s, n)).astype(float)
    vecs[0, :n_seen] = vrng.integers(1, 3, size=n_seen)
    vecs[:, 1] = vecs[:, 0]                 # seen tie
    vecs[:, 4] = vecs[:, 2]                 # seen tie
    vecs[:, n_seen] = vecs[:, 0]            # unseen on the first tie
    vecs[:, n_seen + 1] = -np.eye(d_s)[0]   # all-negative similarities
    vecs[0, np.all(vecs == 0, axis=0)] = 1.0
    return PrototypeTable(ids, vecs[:, perm], (np.arange(n) < n_seen)[perm])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("source", ["self", "other"])
def test_adjust_unseen_matches_per_class_oracle(seed, k, source):
    # columns out of id order, exact ties, an all-negative unseen class
    # and k up to the number of seen classes
    table = _scrambled_table(seed)
    neighbors = None if source == "self" else _scrambled_table(seed, 100)
    src = table if neighbors is None else neighbors
    # the unseen queries of table against the seen prototypes of src
    mixed = table.with_vectors(np.where(table.seen, src.vectors,
                                        table.vectors))
    for cid in table.unseen_ids:
        got = knn_seen(mixed, cid, k)
        want = per_class_knn(src, table.vectors[:, table.column_of(cid)],
                             k)
        assert [c for c, _ in got] == [c for c, _ in want]
    hp = HyperParams(k=k)
    out = adjust_unseen(table, hp, neighbors=neighbors)
    want = per_class_adjust_unseen(table, hp, neighbors=neighbors)
    assert np.abs(out.vectors - want).max() <= 1e-14 * np.abs(want).max()
    negative = np.all(table.vectors == -np.eye(4)[:, [0]], axis=0)
    assert negative.any()
    assert np.array_equal(out.vectors[:, negative], table.vectors[:, negative])


def _assert_blends_agree(got, want, queries, live):
    """Blended columns within 1e-14 relative in norm, the others the bits
    of ``queries``."""
    err = np.linalg.norm(got[:, live] - want[:, live], axis=0)
    assert np.all(err <= 1e-14 * np.linalg.norm(want[:, live], axis=0))
    assert np.array_equal(got[:, ~live], queries[:, ~live])
    assert np.array_equal(want[:, ~live], queries[:, ~live])


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(data=st.data(), seed=st.integers(0, 2**16), wide=st.booleans(),
       n_unseen=st.integers(1, 5),
       huge_seen=st.booleans(), huge_unseen=st.booleans(),
       negative=st.booleans(), other=st.booleans(),
       weights=st.sampled_from([(0.8, 0.2), (0.0, 1.0), (2.0, 1.0)]))
def test_blend_matches_per_rank_oracle(data, seed, wide, n_unseen,
                                       huge_seen, huge_unseen, negative,
                                       other, weights):
    # both forms of the neighbour means against the per-rank sum, for a
    # search at any k' >= k: the product for k up to a narrow seen block,
    # the gather (``wide``) from _GATHER_RATIO * k seen classes up.
    # Integer prototypes with copied columns tie exactly; a seen column of
    # 1e200 overflows its norm (similarity 0) and, with an unseen one of
    # 1e200, its dot product (NaN, ranked last). With ``negative`` one
    # unseen class has only negative similarities.
    if wide:
        k = data.draw(st.integers(1, 2))
        n_seen = data.draw(st.integers(_GATHER_RATIO * k,
                                       _GATHER_RATIO * k + 8))
    else:
        n_seen = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, n_seen))
    rng = np.random.default_rng(seed)
    n = n_seen + n_unseen
    perm = rng.permutation(n)
    ids, seen = 3 * rng.permutation(n) + 1, (np.arange(n) < n_seen)[perm]

    def prototypes():
        vecs = rng.integers(-2, 3, size=(3, n)).astype(float)
        copied = rng.random(n) < 0.4
        vecs[:, copied] = vecs[:, rng.integers(0, n, size=n)[copied]]
        if negative:
            vecs[0, :n_seen] = rng.integers(1, 3, size=n_seen)
            vecs[:, n_seen] = -np.eye(3)[0]
        vecs[0, ~vecs.any(axis=0)] = 1.0
        vecs[:, [j for j, big in ((0, huge_seen), (n - 1, huge_unseen))
                 if big]] *= 1e200
        with np.errstate(over="ignore"):    # the norms of those columns
            return PrototypeTable(ids, vecs[:, perm], seen)

    table = prototypes()
    neighbors = prototypes() if other else None
    hp = HyperParams(lambda2=weights[0], gamma2=weights[1], k=k)
    ids_u, cols, queries = _side(table, False)
    _, _, vecs = _side(table if neighbors is None else neighbors, True)
    top, sims = _nearest(vecs, queries, data.draw(st.integers(k, n_seen)))
    with np.errstate(invalid="ignore"):     # NaN similarities
        live = np.maximum(sims[:k], 0.0).sum(axis=0) > 0.0

    got = _blend_neighbors(queries, vecs, top, sims, hp, ids_u)
    want = per_rank_blend_neighbors(queries, vecs, top, sims, hp, ids_u)
    _assert_blends_agree(got, want, queries, live)
    got = adjust_unseen(table, hp, neighbors).vectors
    with mock.patch.object(adjustment, "_blend_neighbors",
                           per_rank_blend_neighbors):
        want = adjust_unseen(table, hp, neighbors).vectors
    assert np.array_equal(got[:, table.seen], table.vectors[:, table.seen])
    assert np.array_equal(want[:, table.seen], table.vectors[:, table.seen])
    _assert_blends_agree(got[:, cols], want[:, cols], queries, live)


def _traced_peak(call):
    """``call()`` and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blend_peaks_no_higher_than_its_search():
    # the neighbour means never outgrow the search's similarities. With
    # more seen classes than semantic dimensions, as here, the blend stays
    # within the search's peak, and a d_s x k x q gather of the neighbours
    # in one block would not. Below _GATHER_RATIO * k seen classes (the
    # first case) the means are one product with a (seen x queries) weight
    # matrix; from there (the second) they are gathered in query chunks.
    rng = np.random.default_rng(0)
    for d_s, n_seen, k in ((50, 200, 20), (100, 200, 12)):
        vecs = rng.standard_normal((d_s, n_seen))
        queries = rng.standard_normal((d_s, 100))
        hp = HyperParams(k=k)
        (top, sims), search = _traced_peak(lambda: _nearest(vecs, queries,
                                                            hp.k))
        _, blend = _traced_peak(lambda: _blend_neighbors(
            queries, vecs, top, sims, hp, np.arange(100)))
        assert d_s * k * 100 * 8 > search
        assert blend <= search


def test_blend_of_live_columns_holds_under_four_blocks():
    # at the criterion-4 shape (d_s = 85, 20 seen x 20 unseen, k = 12),
    # with blocks as _side gathers them: where every column has a positive
    # weight, the blend is made from the queries themselves, not from a
    # copy of them and of their live columns. It then holds the means, the
    # blend and one temporary: under four d_s x q arrays, where the copies
    # made five and a half.
    rng = np.random.default_rng(0)
    table = PrototypeTable(np.arange(40), rng.standard_normal((85, 40)),
                           np.arange(40) < 20)
    ids, _, queries = _side(table, False)
    _, _, vecs = _side(table, True)
    hp = HyperParams(k=12)
    top, sims = _nearest(vecs, queries, hp.k)
    assert (sims > 0).any(axis=0).all()
    _, blend = _traced_peak(lambda: _blend_neighbors(
        queries, vecs, top, sims, hp, ids))
    assert blend < 4 * queries.nbytes


@pytest.mark.parametrize("n_seen, form", [
    (3 * _GATHER_RATIO - 1, "_product_means"),
    (3 * _GATHER_RATIO, "_gathered_means")])
def test_blend_form_follows_the_seen_width(n_seen, form):
    # k = 3: below _GATHER_RATIO * k seen classes the means are one
    # product with a (seen x queries) weight matrix; from there they are
    # gathered, and no such matrix is made
    rng = np.random.default_rng(1)
    n = n_seen + 5
    table = PrototypeTable(np.arange(n), rng.standard_normal((6, n)),
                           np.arange(n) < n_seen)
    calls = Counter()

    def counted(name):
        real = getattr(adjustment, name)

        def spy(*args):
            calls[name] += 1
            return real(*args)
        return mock.patch.object(adjustment, name, spy)

    with counted("_product_means"), counted("_gathered_means"):
        adjust_unseen(table, HyperParams(k=3))
    assert calls == Counter({form: 1})


@pytest.mark.parametrize("cap", [1, 3 * 7, 2 * 3 * 7, 5 * 3 * 7])
def test_gathered_means_are_the_bits_of_any_chunk(monkeypatch, cap):
    # each query's k-term sum is its own product: one query a chunk (a cap
    # of 1 or of k * d_s values), two or five give the bits of all 23 in
    # one chunk, which the similarities' 40 * 23 values allow
    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((7, 40))[:, rng.permutation(40)]
    top, sims = _nearest(vecs, rng.standard_normal((7, 23)), 3)
    weights = np.abs(sims) / np.abs(sims).sum(axis=0)
    want = adjustment._gathered_means(vecs, top, weights)
    monkeypatch.setattr(adjustment, "_CHUNK_VALUES", cap)
    assert np.array_equal(adjustment._gathered_means(vecs, top, weights), want)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data(), seed=st.integers(0, 2**16),
       n_seen=st.integers(1, 12), n_query=st.integers(1, 9),
       cap=st.sampled_from([1, 7, 40, 2 ** 16]))
def test_nearest_is_the_whole_block_search(data, seed, n_seen, n_query,
                                           cap):
    # the search that keeps one (queries x seen) block and takes its keys
    # a row chunk at a time gives the rows and similarities of the search
    # on whole blocks, NaN where it has NaN. Integer prototypes with copied
    # columns tie exactly, also across the k-th value; columns of 1e200
    # give NaN similarities. A cap of 1 or 7 values makes one or a few
    # queries a chunk, 40 a few chunks or one, 2^16 one chunk.
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-2, 3, size=(3, n_seen)).astype(float)
    copied = rng.random(n_seen) < 0.5
    vecs[:, copied] = vecs[:, rng.integers(0, n_seen, size=n_seen)[copied]]
    queries = rng.integers(-2, 3, size=(3, n_query)).astype(float)
    vecs[:, rng.random(n_seen) < 0.2] *= 1e200
    queries[:, rng.random(n_query) < 0.3] *= 1e200
    vecs[0, ~vecs.any(axis=0)] = 1.0
    k = data.draw(st.integers(1, n_seen))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adjustment, "_CHUNK_VALUES", cap)
        top, sims = _nearest(vecs, queries, k)
    want_top, want_sims = whole_block_nearest(vecs, queries, k)
    assert top.flags.c_contiguous and sims.flags.c_contiguous
    assert np.array_equal(top, want_top)
    assert np.array_equal(sims, want_sims, equal_nan=True)


def test_search_peaks_under_two_blocks():
    # at d_s = 50, 400 seen x 300 queries and k = 12 the search holds its
    # (queries x seen) block and a row chunk's temporaries, where forming
    # the sort key and its partition as whole copies peaked at 3.25 blocks
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((50, 400))
    queries = rng.standard_normal((50, 300))
    _, search = _traced_peak(lambda: _nearest(vecs, queries, 12))
    assert search < 2 * 300 * 400 * 8
