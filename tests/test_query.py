import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cascadequery import (
    AnchorConfig,
    Blob,
    ConfigurationError,
    FeaturePyramid,
    QueryConfig,
    ValidationError,
    detections_from_result,
    detections_to_json,
    extract_queries,
    head_flops_dense,
    head_flops_sparse,
    make_fixture_weights,
    make_synthetic_pyramid,
    map_queries_to_keys,
    run_pipeline,
)
from cascadequery.model import BRANCHES, RECEPTIVE_FIELD, SUBNETS, TOWER_DEPTH
from cascadequery import model, query
from cascadequery.query import STRATEGIES, _schedule
from cascadequery.sparse import KeySet, SparseFeature, build_rulebook, conv2d

from conftest import (
    as_map,
    dense_reference,
    dense_rows_at,
    dilate_by,
    level_rows,
    rel_err,
    standard_pyramid,
    standard_weights,
)


def logit(p):
    return math.log(p / (1.0 - p))


def logit_rows(h, w, logits, level=4):
    """Single-channel query logits at every cell of a level, the rows a dense
    level hands to extraction; a cell not given scores sigmoid(-30), about 1e-13."""
    m = np.full((h, w), -30.0, dtype=np.float32)
    for (x, y), v in logits.items():
        m[y, x] = v
    return SparseFeature(KeySet.full(level, h, w), m.reshape(-1, 1))


# --- extraction and the child mapping -------------------------------------------

def test_extract_keeps_only_scores_above_sigma():
    rows = logit_rows(4, 4, {(1, 1): logit(0.2), (3, 0): logit(0.1)})
    out = extract_queries(rows, 0.15)
    assert out.to_json() == [[1, 1]]


def test_extract_threshold_is_strict():
    # logit 0 scores exactly 0.5, so at sigma 0.5 it must not pass
    rows = logit_rows(2, 2, {(0, 0): 0.0, (1, 1): logit(0.50001)}, level=3)
    out = extract_queries(rows, 0.5)
    assert out.to_json() == [[1, 1]]


def test_extract_is_strict_at_the_smallest_logit_step():
    # sigma 0.5 cuts at logit 0: the next float32 above it is in
    tiny = np.nextafter(np.float32(0.0), np.float32(1.0))
    out = extract_queries(logit_rows(1, 2, {(0, 0): 0.0, (1, 0): tiny}), 0.5)
    assert out.to_json() == [[1, 0]]


def test_extract_sigma_zero_keeps_every_row_and_sigma_one_none():
    # sigmoid(-1e30) rounds to 0.0 in float32, yet the score it stands for is
    # above 0; at sigma 1 even a logit of 1e30 stays out
    rows = logit_rows(1, 2, {(0, 0): -1e30, (1, 0): 1e30})
    assert extract_queries(rows, 0.0).to_json() == [[0, 0], [1, 0]]
    assert len(extract_queries(rows, 1.0)) == 0


def test_extract_from_sparse_rows_considers_existing_keys_only():
    ks = KeySet(3, 8, 8, [9, 42])  # (1, 1), (2, 5)
    rows = np.array([[logit(0.4)], [logit(0.05)]], dtype=np.float32)
    out = extract_queries(SparseFeature(ks, rows), 0.15)
    assert out.to_json() == [[1, 1]]
    assert (out.height, out.width, out.level) == (8, 8, 3)


def test_extract_takes_level_and_grid_from_the_rows():
    out = extract_queries(logit_rows(2, 3, {(2, 1): logit(0.9)}, level=5), 0.5)
    assert out.to_json() == [[2, 1]]
    assert (out.level, out.height, out.width) == (5, 2, 3)
    with pytest.raises(ValidationError, match="single-channel"):
        extract_queries(SparseFeature(out, np.ones((1, 2), dtype=np.float32)), 0.5)


def test_children_of_one_query():
    q = KeySet(4, 8, 8, [43])  # (3, 5)
    kids = map_queries_to_keys(q, 16, 16)
    assert kids.to_json() == [[6, 10], [7, 10], [6, 11], [7, 11]]
    assert kids.level == 3


def test_children_of_adjacent_queries_are_deduplicated():
    q = KeySet(4, 8, 8, [9, 10])  # (1, 1), (2, 1)
    kids = map_queries_to_keys(q, 16, 16)
    assert len(kids) == 8  # 2 queries x 4 children, no overlap but shared edge
    assert kids.to_json() == [
        [2, 2], [3, 2], [4, 2], [5, 2],
        [2, 3], [3, 3], [4, 3], [5, 3],
    ]


def test_children_are_clipped_to_odd_child_dims():
    # a 7-cell child side has a ceil(7 / 2) = 4-cell parent side, so the last
    # parent column and row map to a single in-bounds child
    q = KeySet(4, 4, 4, [15])  # (3, 3)
    kids = map_queries_to_keys(q, 7, 7)
    assert kids.to_json() == [[6, 6]]


def test_empty_queries_give_empty_keys():
    kids = map_queries_to_keys(KeySet(4, 4, 4), 8, 8)
    assert len(kids) == 0


@st.composite
def child_grid_and_queries(draw):
    # the parent grid is the ceil-halved child grid, so an odd child side
    # clips the last parent row or column's odd children
    ch, cw = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return ch, cw, draw(st.sets(st.integers(0, -(-ch // 2) * -(-cw // 2) - 1)))


@given(child_grid_and_queries())
@example((7, 8, set()))  # odd and even child sides, no queries
def test_children_are_the_sorted_set_of_the_queries_clipped_children(case):
    ch, cw, cells = case
    ph, pw = -(-ch // 2), -(-cw // 2)
    want = {(2 * y + j) * cw + 2 * x + i for y, x in map(lambda c: divmod(c, pw), cells)
            for i in (0, 1) for j in (0, 1) if 2 * x + i < cw and 2 * y + j < ch}
    with pytest.MonkeyPatch.context() as mp:
        # sorted children of distinct parents need no deduplication
        mp.setattr(np, "unique", lambda *a, **k: pytest.fail("children were deduplicated"))
        kids = map_queries_to_keys(KeySet(4, ph, pw, sorted(cells)), ch, cw)
    assert kids.cells.tolist() == sorted(want)
    assert (kids.level, kids.height, kids.width) == (3, ch, cw)


# --- config ----------------------------------------------------------------------

def test_query_config_validation():
    with pytest.raises(ConfigurationError):
        QueryConfig(strategy="fast")
    with pytest.raises(ConfigurationError):
        QueryConfig(sigma=1.5)


# --- pipeline ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def pyramid():
    return standard_pyramid(4)


@pytest.fixture(scope="module")
def weights():
    return standard_weights(16)


def test_dense_strategy_computes_every_level(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="dense"))
    assert [r.level for r in res.records] == [7, 6, 5, 4, 3, 2]
    assert all(r.mode == "dense" for r in res.records)


def test_cascade_splits_dense_and_sparse_levels(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=0.15))
    modes = {r.level: r.mode for r in res.records}
    assert modes == {7: "dense", 6: "dense", 5: "dense", 4: "dense",
                     3: "sparse", 2: "sparse"}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_level_returns_rows_at_one_key_set(pyramid, weights, strategy):
    # one output type: the branches that ran share one KeySet, the full grid
    # on dense levels and the computed keys below the start level
    res = run_pipeline(pyramid, weights, QueryConfig(strategy=strategy, sigma=0.15))
    for rec in res.records:
        keys = rec.output.keys
        assert all(rows.keys is keys for rows in rec.output.branch_rows().values())
        if rec.mode == "dense":
            assert rec.computed_keys is None and rec.sparse_rows == 0
            assert keys == KeySet.full(rec.level, rec.height, rec.width)
        else:
            assert keys is rec.computed_keys and len(keys) > 0
            assert rec.sparse_rows == len(keys)
    assert [r.mode == "dense" for r in res.records] == \
        [strategy == "dense" or r.level >= 4 for r in res.records]


def test_cascade_keys_come_from_the_level_above(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=0.15))
    for level in (3, 2):
        rec = res.record(level)
        above = res.record(level + 1)
        want = map_queries_to_keys(above.extracted_queries, rec.height, rec.width)
        assert rec.computed_keys == want
        # Eq.-style parentage: every key's floor-half parent was a query
        parents = {(x // 2, y // 2) for x, y in rec.computed_keys.to_json()}
        assert parents <= set(map(tuple, above.extracted_queries.to_json()))


def test_sigma_one_empties_the_cascade(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=1.0))
    assert len(res.record(3).computed_keys) == 0
    assert len(res.record(2).computed_keys) == 0


def test_strategies_share_the_first_sparse_keyset(pyramid, weights):
    keysets = {}
    for strat in ("csq", "cq", "ccq"):
        res = run_pipeline(pyramid, weights, QueryConfig(strategy=strat, sigma=0.15))
        keysets[strat] = res.record(3).computed_keys
    assert keysets["csq"] == keysets["ccq"] == keysets["cq"]


def test_masked_cascade_rows_equal_dense_rows_bitwise(pyramid, weights):
    dense = run_pipeline(pyramid, weights, QueryConfig(strategy="dense"))
    ccq = run_pipeline(pyramid, weights, QueryConfig(strategy="ccq", sigma=0.15))
    for level in (3, 2):
        rec = ccq.record(level)
        want = dense_rows_at(dense.record(level).output.cls_logits, rec.computed_keys)
        np.testing.assert_array_equal(rec.output.cls_logits.features, want)


def test_sparse_cascade_matches_masked_dense_emulation(pyramid, weights):
    # Submanifold semantics: every layer reads missing neighbors as zero and
    # writes only the active cells. Emulate that densely (zero non-keys between
    # layers) and the sparse rows must match; the unmasked dense rows must not,
    # since this blanket has edges.
    dense = run_pipeline(pyramid, weights, QueryConfig(strategy="dense"))
    csq = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=0.15))
    rec = csq.record(3)
    keys = rec.computed_keys
    mask = np.zeros((rec.height, rec.width), dtype=np.float32)
    mask[keys.ys, keys.xs] = 1.0

    x = as_map(pyramid.levels[3]) * mask
    for conv in weights.cls_tower:
        x = np.maximum(as_map(conv2d(level_rows(x), conv)) * mask, np.float32(0.0))
    want = as_map(conv2d(level_rows(x), weights.cls_pred))[:, keys.ys, keys.xs].T

    got = rec.output.cls_logits.features
    assert rel_err(got, want) < 1e-5
    truly_dense = dense_rows_at(dense.record(3).output.cls_logits, keys)
    assert rel_err(got, truly_dense) > 1e-3


def test_cq_level_is_charged_for_its_halo_rulebook(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="cq", sigma=0.15))
    rec = res.record(3)
    keys = rec.computed_keys
    assert rec.mode == "sparse"
    assert rec.dense_positions == 0
    assert len(keys) and rec.sparse_rows == len(keys)
    assert rec.output.cls_logits.features.shape == (len(keys), 4)
    # conv j of each branch reads the keys widened by 6 - j and writes them
    # widened by 5 - j: four C->C tower convs per branch, then the predictors
    sets = [dilate_by(keys, RECEPTIVE_FIELD // 2 - j) for j in range(6)]
    books = [build_rulebook(out, inp) for inp, out in zip(sets, sets[1:])]
    c, a, k = weights.channels, weights.num_anchors, weights.num_classes
    charges = [rb.num_entries * 3 * c * c for rb in books[:-1]]
    charges.append(books[-1].num_entries * c * (a * k + 4 * a + 1))
    assert rec.rulebook_entries == sum(rb.num_entries for rb in books)
    assert rec.rulebook_entries > build_rulebook(keys).num_entries
    assert rec.flops == sum(charges)


def test_cq_is_charged_below_the_full_halo(pyramid, weights):
    # the charge of running every conv over the radius-5 halo, as cq once did
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="cq", sigma=0.15))
    full_halo = 0
    for rec in res.records:
        if rec.computed_keys is None:
            full_halo += rec.flops
            continue
        rb = build_rulebook(dilate_by(rec.computed_keys, RECEPTIVE_FIELD // 2))
        full_halo += head_flops_sparse([rb.num_entries] * (TOWER_DEPTH + 1),
                                       weights.channels, weights.num_anchors,
                                       weights.num_classes)
    assert res.total_flops < full_halo


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), h=st.integers(1, 16), w=st.integers(1, 16),
       density=st.floats(0.0, 0.3))
def test_schedule_narrows_by_one_cell_per_conv(seed, h, w, density):
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < density
    mask[h - 1, rng.integers(w)] = True  # a key on the border
    keys = KeySet(3, h, w, np.flatnonzero(mask))
    books = _schedule(keys, RECEPTIVE_FIELD // 2)
    assert len(books) == TOWER_DEPTH + 1
    assert books[0].inputs == dilate_by(keys, RECEPTIVE_FIELD // 2)
    assert books[-1].keys is keys
    for prev, rb in zip(books, books[1:]):
        assert rb.inputs is prev.keys
    for rb in books:
        # every in-grid 3x3 neighbour of an output cell is an input cell, so
        # the only misses are taps off the grid
        out = rb.keys
        rows = np.minimum(out.ys + 1, h - 1) - np.maximum(out.ys - 1, 0) + 1
        cols = np.minimum(out.xs + 1, w - 1) - np.maximum(out.xs - 1, 0) + 1
        assert rb.num_entries == int((rows * cols).sum())
    csq = _schedule(keys, 0)
    assert all(rb is csq[0] for rb in csq) and csq[0].inputs is csq[0].keys is keys


def test_schedule_builds_each_rulebook_it_returns_once(monkeypatch):
    built = []

    def build(*args):
        built.append(build_rulebook(*args))
        return built[-1]

    monkeypatch.setattr(query, "build_rulebook", build)
    keys = KeySet(3, 9, 9, [40, 72])  # (4, 4), (0, 8)
    for radius in (0, 2, RECEPTIVE_FIELD // 2):
        built.clear()
        books = _schedule(keys, radius)
        assert len(built) == radius + (radius <= TOWER_DEPTH)
        assert {id(rb) for rb in books} == {id(rb) for rb in built}


def test_cq_matches_dense_at_every_key_border_keys_included():
    # broad gate (weight seed 2, C=16) and bright objects by two image edges,
    # so keys on both sparse levels sit within the receptive-field radius of
    # a border
    w = standard_weights(16)
    blobs = [Blob(10.0, 120.0, 8.0, 8.0, 1, 35.0), Blob(200.0, 248.0, 8.0, 8.0, 2, 35.0)]
    pyr = make_synthetic_pyramid(5, 256, 256, 2, 7, 16, blobs)
    dense = run_pipeline(pyr, w, QueryConfig(strategy="dense"))
    res = run_pipeline(pyr, w, QueryConfig(strategy="cq", sigma=0.15))
    r = RECEPTIVE_FIELD // 2
    for level in (3, 2):
        rec = res.record(level)
        keys = rec.computed_keys
        near_border = ((keys.xs < r) | (keys.ys < r)
                       | (keys.xs >= rec.width - r) | (keys.ys >= rec.height - r))
        assert near_border.any()
        want = dense_reference(pyr, w, dense, level)
        for attr, got in rec.output.branch_rows().items():
            assert rel_err(got.features, dense_rows_at(want[attr], keys)) < 1e-5, (level, attr)


@st.composite
def random_cascades(draw):
    """A pyramid with non-square, odd or tiny sides, a random level range and
    a start level above its finest level, 1-8 channels and 0-4 planted
    objects, with a head of 1-3 anchors and 1-4 classes."""
    h, w = draw(st.integers(8, 300)), draw(st.integers(8, 300))
    finest = draw(st.integers(2, 6))
    coarsest = draw(st.integers(finest + 1, 7))
    start = draw(st.integers(finest + 1, coarsest))
    channels = draw(st.integers(1, 8))
    blobs = [Blob(draw(st.floats(0.0, w - 1.0)), draw(st.floats(0.0, h - 1.0)),
                  draw(st.floats(2.0, 64.0)), draw(st.floats(2.0, 64.0)),
                  amplitude=draw(st.floats(-40.0, 40.0)))
             for _ in range(draw(st.integers(0, 4)))]
    seed = draw(st.integers(0, 2**16))
    pyr = make_synthetic_pyramid(seed, h, w, finest, coarsest, channels, blobs)
    head = make_fixture_weights(seed, channels, draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return pyr, head, start


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=random_cascades(), sigmas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_every_strategy_agrees_with_dense_on_random_pyramids(case, sigmas):
    pyr, w, start = case
    lo, hi = sorted(sigmas)

    def run(strategy, sigma):
        return run_pipeline(pyr, w, QueryConfig(strategy, sigma, start))

    dense = run("dense", 0.0)

    def assert_matches_dense(res, exact):
        for rec in res.records:
            keys = rec.computed_keys
            if keys is None or not len(keys):
                continue
            want = dense_reference(pyr, w, dense, rec.level)
            for attr, rows in rec.output.branch_rows().items():
                got, ref = rows.features, dense_rows_at(want[attr], keys)
                if exact:
                    np.testing.assert_array_equal(got, ref)
                else:
                    assert rel_err(got, ref) <= 1e-5, (rec.level, attr)

    assert_matches_dense(run("ccq", lo), exact=True)
    assert_matches_dense(run("cq", lo), exact=False)
    sweep = [run("csq", s) for s in (0.0, lo, hi, 1.0)]
    assert_matches_dense(sweep[0], exact=False)
    for rec in sweep[0].records:
        if rec.level >= start:
            continue
        assert len(rec.computed_keys) == rec.height * rec.width, rec.level  # every cell
        counts = [len(res.record(rec.level).computed_keys) for res in sweep]
        assert counts == sorted(counts, reverse=True) and counts[-1] == 0, (rec.level, counts)


def test_report_shape_and_echo(pyramid, weights):
    # the cascade runs the pyramid's own levels: here L3 is the finest
    fine3 = FeaturePyramid(pyramid.image_height, pyramid.image_width,
                           {l: t for l, t in pyramid.levels.items() if l >= 3})
    cfg = QueryConfig(strategy="csq", sigma=0.3, start_level=5)
    res = run_pipeline(fine3, weights, cfg)
    rep = res.report()
    assert rep["schema"] == "qd/1"
    assert rep["strategy"] == "csq"
    assert rep["config"] == {"strategy": "csq", "sigma": 0.3, "start_level": 5}
    assert [r["level"] for r in rep["levels"]] == [7, 6, 5, 4, 3]
    for row in rep["levels"]:
        for field in ("mode", "computed_keys", "extracted_queries",
                      "dense_positions", "sparse_rows", "flops", "millis"):
            assert field in row
    assert 0 < rep["flops_fraction_of_dense"] <= 1.0
    json.dumps(rep)  # must be serializable as-is


def test_sparse_flops_fraction_shrinks_with_sigma(pyramid, weights):
    low = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=0.1))
    high = run_pipeline(pyramid, weights, QueryConfig(strategy="csq", sigma=0.9))
    assert high.total_flops <= low.total_flops
    assert high.report()["flops_fraction_of_dense"] < 1.0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_dense_equiv_flops_is_the_dense_charge_of_every_level(pyramid, strategy):
    # three anchors and five classes, so that swapping the two changes the
    # predictors' width (3*5 + 3*4 + 1 = 28 outputs, not 5*3 + 5*4 + 1 = 36).
    # The dense charge is all three branches' on every level, whichever ran;
    # a full-map level is charged for the branches it ran.
    w = make_fixture_weights(2, 16, 3, 5)
    res = run_pipeline(pyramid, w, QueryConfig(strategy=strategy))
    if strategy != "dense":  # seed 2 leaves keys on both levels below the start level
        assert all(r.sparse_rows for r in res.records if r.level < 4)
    dense = {r.level: head_flops_dense(r.height, r.width, 16, 3, 5) for r in res.records}
    assert res.dense_equiv_flops == sum(dense.values())
    assert res.report()["dense_equiv_flops"] == sum(dense.values())
    for r in res.records:
        if r.mode != "sparse":
            assert r.flops == head_flops_dense(r.height, r.width, 16, 3, 5,
                                               query=r.output.query_logits is not None)
    if strategy == "dense":  # cls and reg alone: 2 * 4 * 16 + 15 + 12 of 3 * 4 * 16 + 28
        assert res.total_flops * (3 * 4 * 16 + 28) == res.dense_equiv_flops * (2 * 4 * 16 + 27)


def test_dense_strategy_never_runs_the_query_branch(pyramid, weights):
    res = run_pipeline(pyramid, weights, QueryConfig(strategy="dense"))
    for rec, row in zip(res.records, res.report()["levels"]):
        assert rec.output.query_logits is None and rec.extracted_queries is None
        assert rec.output.branches == SUBNETS and row["branches"] == list(SUBNETS)


@pytest.mark.parametrize("strategy", ["csq", "cq", "ccq"])
def test_dense_is_the_cascade_started_at_the_finest_level(pyramid, weights, strategy):
    # no level lies below the start, so none has children or reads query scores
    dense = run_pipeline(pyramid, weights, QueryConfig(strategy="dense"))
    res = run_pipeline(pyramid, weights, QueryConfig(strategy=strategy,
                                                     start_level=min(pyramid.levels)))
    assert len(res.records) == len(dense.records)
    for got, want in zip(res.records, dense.records):
        assert (got.level, got.mode, got.flops) == (want.level, want.mode, want.flops)
        assert got.computed_keys is None and got.extracted_queries is None
        assert got.output.keys == want.output.keys
        assert got.output.branches == want.output.branches == SUBNETS
        for name, rows in want.output.branch_rows().items():
            np.testing.assert_array_equal(getattr(got.output, name).features, rows.features)
    assert (res.total_flops, res.dense_equiv_flops) == (dense.total_flops,
                                                        dense.dense_equiv_flops)
    anchors = AnchorConfig(num_anchors=weights.num_anchors)
    dets = [detections_to_json(detections_from_result(r, anchors, weights.num_classes))
            for r in (res, dense)]
    assert dets[0] and dets[0] == dets[1]


@pytest.mark.parametrize("strategy", ["csq", "cq", "ccq"])
@pytest.mark.parametrize("finest,start", [(2, 4), (2, 6), (3, 4), (4, 4)])
def test_cascade_runs_the_query_branch_only_where_its_scores_are_read(pyramid, weights,
                                                                      strategy, finest, start):
    # query rows from the start level down to the level above the finest, and
    # nowhere else: none above the start level, none at the finest level
    pyr = FeaturePyramid(pyramid.image_height, pyramid.image_width,
                         {l: t for l, t in pyramid.levels.items() if l >= finest})
    res = run_pipeline(pyr, weights, QueryConfig(strategy=strategy, sigma=0.15,
                                                 start_level=start))
    read = set(range(finest + 1, start + 1))
    assert {r.level for r in res.records if r.output.query_logits is not None} == read
    assert {r.level for r in res.records if r.extracted_queries is not None} == read
    for rec, row in zip(res.records, res.report()["levels"]):
        assert row["branches"] == list(BRANCHES if rec.level in read else SUBNETS)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_total_flops_are_the_macs_of_the_convs_that_ran(pyramid, weights, monkeypatch,
                                                         strategy):
    # every conv the head runs, counted where it runs: 9 * H * W * C_in * C_out
    # for a full-map conv, rulebook entries * C_in * C_out for a sparse one
    macs = []
    real_conv2d, real_sparse_conv = model.conv2d, model.sparse_conv

    def conv2d_counted(inp, w):
        macs.append(9 * inp.height * inp.width * w.in_channels * w.out_channels)
        return real_conv2d(inp, w)

    def sparse_conv_counted(inp, w, rb):
        macs.append(rb.num_entries * w.in_channels * w.out_channels)
        return real_sparse_conv(inp, w, rb)

    monkeypatch.setattr(model, "conv2d", conv2d_counted)
    monkeypatch.setattr(model, "sparse_conv", sparse_conv_counted)
    res = run_pipeline(pyramid, weights, QueryConfig(strategy=strategy, sigma=0.15))
    assert sum(macs) == res.total_flops
    assert res.total_flops < res.dense_equiv_flops


def test_pipeline_rejects_channel_mismatch(pyramid):
    w8 = standard_weights(8)
    with pytest.raises(ConfigurationError, match="channels"):
        run_pipeline(pyramid, w8, QueryConfig(strategy="dense"))


def test_cascade_requires_start_level_present(weights):
    pyr = make_synthetic_pyramid(0, 512, 512, 5, 7, 16)
    with pytest.raises(ConfigurationError, match="start_level"):
        run_pipeline(pyr, weights, QueryConfig(strategy="csq"))


def test_cascade_runs_down_to_level_0(weights):
    # at sigma 0 every level-1 cell is a query, so level 0 is computed at every cell
    pyr = make_synthetic_pyramid(0, 30, 27, 0, 2, 16)
    result = run_pipeline(pyr, weights, QueryConfig(strategy="csq", sigma=0.0, start_level=1))
    assert [r.level for r in result.records] == [2, 1, 0]
    assert len(result.record(0).computed_keys) == 30 * 27


@pytest.mark.parametrize("strategy", ["dense", "ccq", "csq", "cq"])
def test_every_strategy_rejects_a_non_finite_key_feature(weights, strategy):
    # a NaN at a cell that the cascade computes on the finest level must stop
    # every strategy, the sparse one included
    pyr = standard_pyramid(4, image=256)
    csq = run_pipeline(pyr, weights, QueryConfig(strategy="csq", sigma=0.15))
    keys = csq.record(2).computed_keys
    assert len(keys)
    level = pyr.levels[2]
    rows = level.features.copy()
    rows[keys.cells[0], 0] = np.nan  # one key's row
    poisoned = FeaturePyramid(pyr.image_height, pyr.image_width,
                              {**pyr.levels, 2: SparseFeature(level.keys, rows)})
    with pytest.raises(ValidationError, match="non-finite"):
        run_pipeline(poisoned, weights, QueryConfig(strategy=strategy, sigma=0.15))
