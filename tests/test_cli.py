"""End-to-end command-line tests, run in-process via cli.main(argv)."""

import dataclasses
import hashlib
import inspect
import json
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from cascadequery import (GroundTruthSet, KeySet, QueryConfig, SparseFeature, build_rulebook,
                          detections_from_result, query_target_for_level, run_benchmark)
from cascadequery import cli as cli_mod
from cascadequery import model as model_mod
from cascadequery import query as query_mod
from cascadequery.cli import (
    CHECKSUMS_FILE,
    GROUND_TRUTH_FILE,
    PYRAMID_FILE,
    WEIGHTS_FILE,
    main,
)
from cascadequery.model import RECEPTIVE_FIELD
from cascadequery.tensor import write_container

from conftest import as_map, dilate_by

SMALL = ["--seed", "3", "--image-size", "128", "--channels", "8"]


def gen_small(out_dir, extra=()):
    rc = main(["gen-fixture", "--out", str(out_dir), *SMALL, *extra])
    assert rc == 0
    return out_dir


def run_args(fixture_dir, out_dir, *extra):
    return ["run", "--pyramid", str(fixture_dir / PYRAMID_FILE),
            "--weights", str(fixture_dir / WEIGHTS_FILE),
            "--out", str(out_dir), *extra]


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    return gen_small(tmp_path_factory.mktemp("fix"))


# --- gen-fixture -------------------------------------------------------------------

def test_gen_fixture_writes_the_full_set(small_fixture):
    for name in (PYRAMID_FILE, WEIGHTS_FILE, GROUND_TRUTH_FILE, CHECKSUMS_FILE):
        assert (small_fixture / name).exists()
    sums = json.loads((small_fixture / CHECKSUMS_FILE).read_text())
    assert sums["schema"] == "qd/1"
    for name, want in sums["files"].items():
        got = hashlib.sha256((small_fixture / name).read_bytes()).hexdigest()
        assert got == want


def test_gen_fixture_is_byte_deterministic(tmp_path):
    a = gen_small(tmp_path / "a")
    b = gen_small(tmp_path / "b")
    for name in (PYRAMID_FILE, WEIGHTS_FILE, GROUND_TRUTH_FILE):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("extra,digest", [
    ((), "7f132c917a3a79499aec62bc173a36c9fb138cd90fde11ac13e880ee3667dcc6"),
    (("--blob", "40,52,7,7,1,32", "--blob", "90,30,6,9"),
     "97fd0a55ca499c8ec752325186bf1c8734c65e7b7eac4c981c5a9370d20b8b9b"),
], ids=["random-objects", "explicit-blobs"])
def test_gen_fixture_bytes_are_pinned(tmp_path, extra, digest):
    # checksums.json holds the sha256 of every other fixture file
    gen_small(tmp_path, extra)
    assert hashlib.sha256((tmp_path / CHECKSUMS_FILE).read_bytes()).hexdigest() == digest


def test_explicit_blobs_land_verbatim_in_ground_truth(tmp_path):
    d = gen_small(tmp_path, extra=["--blob", "40,52,7,7,1,32", "--blob", "90,30,6,9"])
    gt = json.loads((tmp_path / GROUND_TRUTH_FILE).read_text())
    assert gt == [
        {"cx": 40.0, "cy": 52.0, "w": 7.0, "h": 7.0, "class": 1},
        {"cx": 90.0, "cy": 30.0, "w": 6.0, "h": 9.0, "class": 0},
    ]
    assert d == tmp_path


@pytest.mark.parametrize("blob", ["1,2,3", "a,b,c,d", "999,10,5,5", "40,52,7,7,1,32,9"])
def test_bad_blob_is_a_usage_error(tmp_path, blob, capsys):
    rc = main(["gen-fixture", "--out", str(tmp_path), *SMALL, "--blob", blob])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --- run ---------------------------------------------------------------------------

def test_run_writes_report_and_detections(small_fixture, tmp_path):
    assert main(run_args(small_fixture, tmp_path, "--strategy", "csq")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema"] == "qd/1"
    assert report["strategy"] == "csq"
    assert report["config"]["sigma"] == 0.15
    assert [r["level"] for r in report["levels"]] == [7, 6, 5, 4, 3, 2]
    assert 0.0 < report["flops_fraction_of_dense"] <= 1.0
    assert report["postproc_millis"] >= 0.0
    dets = json.loads((tmp_path / "detections.json").read_text())
    assert isinstance(dets, list)
    assert report["detections"] == len(dets)


def test_run_reports_where_the_query_branch_ran(small_fixture, tmp_path, capsys):
    # dense runs cls and reg alone, charged as such; csq runs the query branch
    # at the start level and the level above the finest, whose scores it reads
    weights = model_mod.load_weights(small_fixture / WEIGHTS_FILE)
    c, a, k = weights.channels, weights.num_anchors, weights.num_classes
    share = (2 * 4 * c + a * k + 4 * a) / (3 * 4 * c + a * k + 4 * a + 1)
    for strategy, read in (("dense", set()), ("csq", {4, 3})):
        out = tmp_path / strategy
        assert main(run_args(small_fixture, out, "--strategy", strategy)) == 0
        printed = capsys.readouterr().out
        assert f"the dense strategy runs {share:.2f} of it" in printed
        report = json.loads((out / "report.json").read_text())
        for row in report["levels"]:
            query = row["level"] in read
            assert row["branches"] == ["cls", "reg", "query"][:2 + query]
            assert (row["extracted_queries"] is not None) == query
        if strategy == "dense":
            assert report["flops_fraction_of_dense"] == pytest.approx(share, rel=1e-12)


def test_dense_and_masked_runs_yield_identical_detection_files(tmp_path):
    fix = tmp_path / "fix"
    args = ["gen-fixture", "--out", str(fix), "--seed", "9"]
    for b in ("120,96,7,7,1,32", "300,260,8,8,2,30", "430,400,7,8,0,34"):
        args += ["--blob", b]
    assert main(args) == 0
    payloads = {}
    for strat in ("dense", "ccq"):
        out = tmp_path / strat
        assert main(run_args(fix, out, "--strategy", strat, "--sigma", "0.05")) == 0
        payloads[strat] = (out / "detections.json").read_bytes()
    assert payloads["dense"] == payloads["ccq"]
    assert len(json.loads(payloads["dense"])) > 0


def test_impossible_threshold_empties_every_sparse_level(small_fixture, tmp_path):
    assert main(run_args(small_fixture, tmp_path, "--strategy", "csq",
                         "--sigma", "1.0")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sparse_rows = [r for r in report["levels"] if r["mode"] == "sparse"]
    assert len(sparse_rows) == 2  # levels 3 and 2 below the default start level
    for row in sparse_rows:
        assert row["computed_keys"] == [] and row["sparse_rows"] == 0
        assert row["flops"] == 0


def test_cq_run_charges_each_level_for_its_halo_rulebook(small_fixture, tmp_path):
    # sigma 0.02 gives this fixture keys on both levels below the start level
    assert main(run_args(small_fixture, tmp_path, "--strategy", "cq",
                         "--sigma", "0.02")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    weights = model_mod.load_weights(small_fixture / WEIGHTS_FILE)
    cq_rows = [r for r in report["levels"] if r["level"] < 4]
    assert [r["mode"] for r in cq_rows] == ["sparse", "sparse"]
    c, a, k = weights.channels, weights.num_anchors, weights.num_classes
    for row in cq_rows:
        h, w = row["shape"]
        keys = KeySet(row["level"], h, w, [y * w + x for x, y in row["computed_keys"]])
        # conv j reads the keys widened by 6 - j and writes them widened by 5 - j
        sets = [dilate_by(keys, RECEPTIVE_FIELD // 2 - j) for j in range(6)]
        books = [build_rulebook(out, inp) for inp, out in zip(sets, sets[1:])]
        # L3's query scores pick L2's keys; L2's are read by no level
        query = row["level"] == 3
        assert row["branches"] == ["cls", "reg", "query"][:2 + query]
        charges = [rb.num_entries * (2 + query) * c * c for rb in books[:-1]]
        charges.append(books[-1].num_entries * c * (a * k + 4 * a + query))
        assert len(keys) and row["sparse_rows"] == len(keys)
        assert row["dense_positions"] == 0
        assert row["rulebook_entries"] == sum(rb.num_entries for rb in books)
        assert row["flops"] == sum(charges)


def test_one_collapsed_box_does_not_abort_a_run(tmp_path, capsys):
    # amplitude -1e30 drives box deltas so far that some decoded boxes have no
    # extent in float64; those candidates are dropped and the run goes on
    fix = tmp_path / "fx"
    assert main(["gen-fixture", "--out", str(fix), "--image-size", "64", "--max-level", "4",
                 "--channels", "4", "--blob", "10,10,5,5,0,-1e30"]) == 0
    for strategy in query_mod.STRATEGIES:
        out = tmp_path / strategy
        assert main(run_args(fix, out, "--strategy", strategy)) == 0, capsys.readouterr().err
        assert json.loads((out / "detections.json").read_text())


def test_run_without_inputs_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path)])
    assert rc == 2
    assert "--pyramid" in capsys.readouterr().err


def _must_not_load(path):
    raise AssertionError(f"loaded {path} before rejecting the options")


BAD_POSTPROC = [("--iou-threshold", "2"), ("--iou-threshold", "nan"),
                ("--score-threshold", "-0.1"), ("--score-threshold", "1.5"),
                ("--top-k", "-1")]


@pytest.mark.parametrize("flag,value", BAD_POSTPROC)
def test_bad_postproc_option_fails_run_before_any_work(small_fixture, tmp_path, flag,
                                                       value, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "load_pyramid", _must_not_load)
    out = tmp_path / "out"
    assert main(run_args(small_fixture, out, flag, value)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", BAD_POSTPROC)
def test_bad_postproc_option_fails_verify_before_any_work(small_fixture, tmp_path, flag,
                                                          value, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "load_pyramid", _must_not_load)
    out = tmp_path / "out"
    assert main(["verify", "--fixture", str(small_fixture), "--out", str(out),
                 flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("gen-fixture", ("--seed", "-1")), ("gen-fixture", ("--blobs", "-3")),
    ("flops", ("--channels", "-1")),
    # an inverted level range, and levels above 30
    ("flops", ("--min-level", "5", "--max-level", "3")),
    ("targets-check", ("--min-level", "5", "--max-level", "3")),
    ("flops", ("--max-level", "31")), ("targets-check", ("--max-level", "31")),
    ("bench", ("--start-level", "31")),
    # a non-finite field, a side <= 0, a class beyond --classes 4 or below 0, and
    # an amplitude that is not finite
    ("gen-fixture", ("--blob", "10,10,5,5,0,nan")), ("gen-fixture", ("--blob", "10,10,nan,5")),
    ("gen-fixture", ("--blob", "10,10,-5,5")), ("gen-fixture", ("--blob", "10,10,5,5,9")),
    ("gen-fixture", ("--blob", "10,10,5,5,-1")), ("gen-fixture", ("--blob", "10,10,5,5,0,inf")),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_bad_option_fails_before_any_file_is_touched(small_fixture, tmp_path, command, flags,
                                                     capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "load_pyramid", _must_not_load)
    out = tmp_path / "out"
    inputs = {  # a ground-truth file that is not there: reading it would exit 1
        "targets-check": ["--gt", str(tmp_path / "missing.json")],
        "bench": ["--pyramid", str(small_fixture / PYRAMID_FILE),
                  "--weights", str(small_fixture / WEIGHTS_FILE)],
    }
    assert main([command, "--out", str(out), *inputs.get(command, []), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} ")
    assert not out.exists()


def test_unknown_strategy_is_rejected_at_parse_time(small_fixture, tmp_path):
    with pytest.raises(SystemExit):
        main(run_args(small_fixture, tmp_path, "--strategy", "bogus"))


def test_non_finite_weights_file_exits_1_naming_the_conv(small_fixture, tmp_path, capsys):
    weights = tmp_path / WEIGHTS_FILE
    data = bytearray((small_fixture / WEIGHTS_FILE).read_bytes())
    # the payload ends with query_pred's 3x3 kernel, then its one-element bias
    data[-8:-4] = struct.pack("<f", float("nan"))
    weights.write_bytes(bytes(data))
    rc = main(["run", "--pyramid", str(small_fixture / PYRAMID_FILE),
               "--weights", str(weights), "--out", str(tmp_path / "out"),
               "--strategy", "csq"])
    assert rc == 1
    assert "query_pred" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _with_manifest(data: bytes, header: bytes) -> bytes:
    """A container's bytes with its JSON manifest replaced by `header`."""
    (hlen,) = struct.unpack("<I", data[8:12])
    return data[:8] + struct.pack("<I", len(header)) + header + data[12 + hlen:]


def _edit_manifest(data: bytes, edit) -> bytes:
    """A container's bytes with its JSON manifest passed through `edit`."""
    (hlen,) = struct.unpack("<I", data[8:12])
    manifest = json.loads(data[12:12 + hlen])
    edit(manifest)
    return _with_manifest(data, json.dumps(manifest).encode("utf-8"))


def _run_on_corrupt_file(tmp_path, capsys, kind, corrupt, named):
    """`run` on a C=4, A=1, K=4 fixture whose `kind` file went through
    `corrupt` must exit 1 naming that file and `named`, and write nothing.
    Kind "pyramid-c1" corrupts a one-channel pyramid instead."""
    files = {"pyramid": tmp_path / PYRAMID_FILE, "weights": tmp_path / WEIGHTS_FILE}
    channels = 1 if kind == "pyramid-c1" else 4
    kind = kind.removesuffix("-c1")
    model_mod.save_pyramid(model_mod.make_synthetic_pyramid(1, 64, 64, 2, 5, channels),
                           files["pyramid"])
    model_mod.save_weights(model_mod.make_fixture_weights(1, 4, 1, 4), files["weights"])
    bad = tmp_path / f"bad-{files[kind].name}"
    bad.write_bytes(corrupt(files[kind].read_bytes()))
    files[kind] = bad
    rc = main(["run", "--pyramid", str(files["pyramid"]), "--weights", str(files["weights"]),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {bad}: ")
    assert named in err
    assert not (tmp_path / "out").exists()


# conv 0 is cls_tower.0, conv 5 is reg_tower.1; level entry 0 is level 2 (16x16 at C=4)
CORRUPT_MANIFESTS = [
    pytest.param("weights", lambda m: m["convs"][0].pop("k"), "cls_tower.0", id="conv-without-k"),
    pytest.param("weights", lambda m: m["convs"][5].update(out=-4), "reg_tower.1",
                 id="conv-out-negative"),
    pytest.param("weights", lambda m: m.update(convs=5), "convs", id="convs-not-a-list"),
    pytest.param("weights", lambda m: m["convs"][0].update(role="bogus"), "conv roles",
                 id="conv-role-unknown"),
    pytest.param("weights", lambda m: m.update(channels=999), "channels 999",
                 id="channels-disagree-with-convs"),
    pytest.param("weights", lambda m: m["convs"][5].update(out=True), "reg_tower.1",
                 id="conv-out-bool"),
    pytest.param("weights", lambda m: m.update(channels="x"), "channels", id="channels-string"),
    pytest.param("weights", lambda m: m.update(num_anchors=True), "num_anchors",
                 id="num-anchors-bool"),
    pytest.param("weights", lambda m: m.update(num_classes=0), "num_classes",
                 id="num-classes-zero"),
    pytest.param("weights", lambda m: m.update(num_classes=2), "cls_pred must emit 2",
                 id="num-classes-disagree-with-convs"),
    pytest.param("pyramid", lambda m: m["levels"][0].pop("shape"), "level 2",
                 id="level-without-shape"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(shape=[4, -16, -16]), "level 2",
                 id="level-shape-negative"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(shape=[4, "16", 16]), "level 2",
                 id="level-shape-string"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(shape=[True, 16, 16]), "level 2",
                 id="level-shape-bool"),
    pytest.param("pyramid-c1", lambda m: m.update(channels=True), "channels",
                 id="channels-bool-on-a-one-channel-pyramid"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(shape=[2, 16, 32]),
                 "level 2 shape", id="level-channels-disagree"),
    pytest.param("weights", lambda m: m["convs"][0].update(k=5), "cls_tower.0", id="conv-k5"),
    pytest.param("pyramid", lambda m: m["levels"][0].pop("l"), "level entry 0",
                 id="level-without-l"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(l="2"), "level entry 0",
                 id="level-l-string"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(l=-1), "level entry 0",
                 id="level-l-negative"),
    pytest.param("pyramid", lambda m: m["levels"][0].update(l=True), "level entry 0",
                 id="level-l-bool"),
    pytest.param("pyramid", lambda m: m["levels"][1].update(l=2), "level entry 1",
                 id="level-l-duplicated"),
    pytest.param("pyramid", lambda m: m.pop("image"), "malformed pyramid manifest",
                 id="image-missing"),
    pytest.param("pyramid", lambda m: m.update(image=["64", 64]), "image", id="image-string"),
    pytest.param("pyramid", lambda m: m.update(image=[64.5, 64]), "image", id="image-float"),
    pytest.param("pyramid", lambda m: m.update(image=[64]), "image", id="image-one-side"),
    pytest.param("pyramid", lambda m: m.update(image=[64, 128]), "level 2 is 16x16",
                 id="image-disagrees-with-levels"),
]


@pytest.mark.parametrize("kind,edit,named", CORRUPT_MANIFESTS)
def test_corrupt_manifest_exits_1_naming_the_file_and_entry(tmp_path, capsys, kind, edit,
                                                            named):
    _run_on_corrupt_file(tmp_path, capsys, kind, lambda data: _edit_manifest(data, edit), named)


@pytest.mark.parametrize("levels,named", [
    pytest.param({2000: (1, 1)}, "level 2000 lies outside [0, 30]", id="only-level-2000"),
    pytest.param({2: (16, 16), 4: (4, 4)}, "pyramid levels [2, 4] are not consecutive",
                 id="levels-2-and-4"),
])
def test_pyramid_file_whose_levels_are_no_pyramid_exits_1_naming_the_file(tmp_path, capsys,
                                                                          levels, named):
    # a well-formed file: each level's payload has the manifest's shape
    pyramid, weights = tmp_path / PYRAMID_FILE, tmp_path / WEIGHTS_FILE
    write_container(pyramid, model_mod.PYRAMID_MAGIC, {
        "image": [64, 64], "channels": 4,
        "levels": [{"l": l, "shape": [4, *hw]} for l, hw in levels.items()],
    }, [np.ones((4, *hw)) for hw in levels.values()])
    model_mod.save_weights(model_mod.make_fixture_weights(1, 4, 1, 4), weights)
    rc = main(["run", "--pyramid", str(pyramid), "--weights", str(weights),
               "--out", str(tmp_path / "out"), "--strategy", "dense", "--score-threshold", "0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {pyramid}: {named}\n"
    assert not (tmp_path / "out").exists()


# byte-level damage that the container reader catches before any manifest field is read
CORRUPT_CONTAINERS = [
    pytest.param("pyramid", lambda d: d[:10], "truncated header", id="header-truncated"),
    pytest.param("weights", lambda d: _with_manifest(d, b"{not json"), "unreadable manifest",
                 id="manifest-not-json"),
    pytest.param("pyramid", lambda d: _with_manifest(d, b"[1, 2]"), "not a JSON object",
                 id="manifest-a-list"),
    pytest.param("weights", lambda d: d + bytes(4), "4 trailing bytes", id="trailing-bytes"),
]


@pytest.mark.parametrize("kind,corrupt,named", CORRUPT_CONTAINERS)
def test_corrupt_container_exits_1_naming_the_file(tmp_path, capsys, kind, corrupt, named):
    _run_on_corrupt_file(tmp_path, capsys, kind, corrupt, named)


# ground-truth files the reader refuses, and what the error names
BAD_GROUND_TRUTH = [
    pytest.param('[{"cy": 10, "w": 5, "h": 5}]', "entry 0", id="entry-without-cx"),
    pytest.param('{"cx": 10, "cy": 10, "w": 5, "h": 5}', "list", id="object-not-list"),
    pytest.param("not json", "not valid JSON", id="not-json"),
    pytest.param('[{"cx": 10, "cy": 10, "w": 5, "h": 5, "class": "x"}]', "entry 0",
                 id="class-string"),
    pytest.param('[{"cx": 10, "cy": 10, "w": 5, "h": 5}, {"cx": 10, "cy": 10, "w": NaN, '
                 '"h": 5}]', "entry 1", id="width-nan"),
    pytest.param('[{"cx": 10, "cy": 10, "w": 5, "h": 5, "class": -3}]', "entry 0",
                 id="class-negative"),
    pytest.param('[{"cx": 1' + "0" * 400 + ', "cy": 5, "w": 4, "h": 4}]', "entry 0",
                 id="cx-too-large-for-a-float"),
]


@pytest.mark.parametrize("text,named", BAD_GROUND_TRUTH)
def test_malformed_ground_truth_exits_1_naming_the_file(tmp_path, capsys, text, named):
    gt = tmp_path / "gt.json"
    gt.write_text(text)
    out = tmp_path / "maps"
    assert main(["targets-check", "--gt", str(gt), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gt}: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("name,text", [
    *(pytest.param(GROUND_TRUTH_FILE, p.values[0], id=f"ground-truth-{p.id}")
      for p in BAD_GROUND_TRUTH),
    pytest.param(CHECKSUMS_FILE, "not json", id="checksums-not-json"),
    pytest.param(CHECKSUMS_FILE, "[1]", id="checksums-list"),
    pytest.param(CHECKSUMS_FILE, '{"files": [1]}', id="checksums-files-list"),
    pytest.param(CHECKSUMS_FILE, '{"files": {"x": 5}}', id="checksums-sum-not-string"),
])
def test_verify_exits_1_on_a_malformed_fixture_file(small_fixture, tmp_path, capsys, name,
                                                     text):
    fix = tmp_path / "fix"
    shutil.copytree(small_fixture, fix)
    (fix / name).write_text(text)
    assert main(["verify", "--fixture", str(fix)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {fix / name}: ")


def test_missing_pyramid_file_maps_to_io_exit_code(tmp_path, capsys):
    rc = main(["run", "--pyramid", str(tmp_path / "nope.qdpyr"),
               "--weights", str(tmp_path / "nope.qdwts"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- config file -------------------------------------------------------------------

def test_flag_beats_config_beats_default(small_fixture, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "pyramid": str(small_fixture / PYRAMID_FILE),
        "weights": str(small_fixture / WEIGHTS_FILE),
        "sigma": 0.9,
    }))
    out1 = tmp_path / "flagged"
    assert main(["run", "--config", str(cfg), "--out", str(out1),
                 "--sigma", "0.3"]) == 0
    assert json.loads((out1 / "report.json").read_text())["config"]["sigma"] == 0.3

    out2 = tmp_path / "plain"
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    report = json.loads((out2 / "report.json").read_text())
    assert report["config"]["sigma"] == 0.9
    assert report["config"]["start_level"] == 4  # untouched default


def test_unknown_config_key_is_rejected(small_fixture, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # cq_patch, base and warmup are removed knobs
    for payload in ({"sigmaa": 0.5}, {"cq_patch": 11}, {"base": 4.0}, {"warmup": 2}):
        cfg.write_text(json.dumps(payload))
        rc = main(run_args(small_fixture, tmp_path, "--config", str(cfg)))
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err


# cq's crop is always the head's receptive field, the anchor base is
# targets.ANCHOR_BASE, the warm-up rounds are analysis.WARMUP and the cascade
# runs down to the pyramid's finest level; there is no flag for any of them
@pytest.mark.parametrize("command,flags", [
    ("run", ("--strategy", "cq", "--cq-patch", "13")), ("run", ("--base", "4")),
    ("verify", ("--base", "4")), ("targets-check", ("--base", "4")),
    ("bench", ("--warmup", "2")),
    ("run", ("--min-level", "2")), ("verify", ("--min-level", "2")),
    ("bench", ("--min-level", "2")),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_removed_flag_is_rejected_at_parse_time(small_fixture, tmp_path, command, flags):
    inputs = {
        "run": run_args(small_fixture, tmp_path)[1:],
        "verify": ["--fixture", str(small_fixture)],
        "targets-check": ["--gt", str(small_fixture / GROUND_TRUTH_FILE),
                          "--out", str(tmp_path)],
        "bench": ["--pyramid", str(small_fixture / PYRAMID_FILE),
                  "--weights", str(small_fixture / WEIGHTS_FILE), "--out", str(tmp_path)],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs[command], *flags])
    assert exc.value.code == 2


def readme_commands():
    """Each `cascadequery <subcommand> ...` line of README's "Command line"
    block, its backslash continuations joined and a trailing comment dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("cascadequery ")]


def test_readme_command_examples_parse():
    # parsing touches no file, so a flag the docs keep after the code dropped
    # it fails here
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli_mod.COMMANDS)
    for argv in commands:
        cli_mod.build_parser().parse_args(argv)


def test_library_parameters_default_to_the_librarys_values():
    # each default is stated once, in the library, and OPTIONS reads it
    default = {name: spec[1] for name, spec in cli_mod.OPTIONS.items()}
    assert {k: default[k] for k in ("strategy", "sigma", "start_level")} == \
        dataclasses.asdict(QueryConfig())
    post = inspect.signature(detections_from_result).parameters
    assert {k: default[k] for k in cli_mod.POSTPROC_KEYS} == \
        {k: post[k].default for k in cli_mod.POSTPROC_KEYS}
    assert default["repeats"] == inspect.signature(run_benchmark).parameters["repeats"].default


def test_every_option_is_offered_by_some_command():
    # an option no subcommand takes would still be accepted from --config
    offered = {name for _, _, required, other in cli_mod.COMMANDS.values()
               for name in (required + " " + other).split()}
    assert offered == set(cli_mod.OPTIONS)


# run never reads repeats, but a config value of the wrong type fails all the same
@pytest.mark.parametrize("text", ["[1, 2]", "{not json", '{"sigma": "high"}',
                                  '{"repeats": "x"}'])
def test_malformed_config_is_rejected(small_fixture, tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(run_args(small_fixture, tmp_path, "--config", str(cfg)))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------------

def test_verify_passes_on_a_pristine_fixture(small_fixture, tmp_path, capsys):
    # sigma 0.02 gives this fixture cascade keys, so every comparison has rows
    rc = main(["verify", "--fixture", str(small_fixture), "--out", str(tmp_path),
               "--sigma", "0.02"])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert verdict["passed"] is True
    assert verdict["warnings"] == []
    assert {c["name"] for c in verdict["checks"]} == {
        "ccq-exact", "csq-sigma0", "cq-dense", "query-targets", "flops-identity",
    }
    assert all(c["passed"] for c in verdict["checks"])
    on_disk = json.loads((tmp_path / "verify.json").read_text())
    assert on_disk == verdict


@pytest.mark.parametrize("flags,cells", [
    # 600 px: L4 is 38 cells wide and L3 75, so the last L3 row and column
    # are reached only through a last L4 cell that owns one child per side
    (("--image-size", "600"), 75 * 75 + 150 * 150),
    # a -1e30 bump drives one L4 query logit to about -1e28, whose float32
    # sigmoid is 0.0: sigma = 0 keeps it all the same
    (("--image-size", "64", "--max-level", "4", "--channels", "4",
      "--blob", "10,10,5,5,0,-1e30"), 8 * 8 + 16 * 16),
], ids=["600px", "saturated-query"])
def test_verify_csq_at_sigma_zero_computes_every_cell(tmp_path, capsys, flags, cells):
    assert main(["gen-fixture", "--out", str(tmp_path), *flags]) == 0
    capsys.readouterr()  # drop the gen-fixture status line
    assert main(["verify", "--fixture", str(tmp_path)]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["csq-sigma0"]["detail"] == \
        f"max relative error 0.000e+00 over {cells} keys"


def test_verify_runs_one_dense_pipeline(small_fixture, monkeypatch, capsys):
    real = cli_mod.run_pipeline
    strategies = []

    def counting(pyr, weights, cfg):
        strategies.append(cfg.strategy)
        return real(pyr, weights, cfg)

    monkeypatch.setattr(cli_mod, "run_pipeline", counting)
    assert main(["verify", "--fixture", str(small_fixture)]) == 0
    capsys.readouterr()
    assert strategies.count("dense") == 1
    assert sorted(strategies) == ["ccq", "cq", "csq", "dense"]


@pytest.mark.parametrize("weights_channels,flags,message", [
    pytest.param(8, ("--start-level", "9"), "lack start_level=9", id="start-level-absent"),
    pytest.param(4, (), "pyramid has 8 channels, head expects 4", id="channels-disagree"),
])
def test_verify_exits_2_when_the_options_and_inputs_disagree(small_fixture, tmp_path, capsys,
                                                             weights_channels, flags, message):
    # like run and bench: a configuration error is no failed check
    fix = tmp_path / "fix"
    shutil.copytree(small_fixture, fix)
    model_mod.save_weights(model_mod.make_fixture_weights(1, weights_channels, 1, 4),
                           fix / WEIGHTS_FILE)
    out = tmp_path / "out"
    assert main(["verify", "--fixture", str(fix), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_fails_each_strategy_check_when_the_dense_run_crashes(small_fixture,
                                                                     monkeypatch, capsys):
    real = cli_mod.run_pipeline

    def dense_crashes(pyr, weights, cfg):
        if cfg.strategy == "dense":
            raise RuntimeError("dense exploded")
        return real(pyr, weights, cfg)

    monkeypatch.setattr(cli_mod, "run_pipeline", dense_crashes)
    assert main(["verify", "--fixture", str(small_fixture)]) == 1
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("ccq-exact", "csq-sigma0", "cq-dense"):
        assert by_name[name] == {"name": name, "passed": False,
                                 "detail": "RuntimeError: dense exploded"}
    assert by_name["query-targets"]["passed"] and by_name["flops-identity"]["passed"]


def test_verify_warns_on_edited_file_but_checks_still_pass(tmp_path, capsys):
    fix = gen_small(tmp_path)
    gt_path = tmp_path / GROUND_TRUTH_FILE
    gt_path.write_bytes(gt_path.read_bytes() + b" \n")  # content-equivalent edit
    capsys.readouterr()  # drop the gen-fixture status line
    rc = main(["verify", "--fixture", str(fix), "--sigma", "0.02"])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0 and verdict["passed"] is True
    assert len(verdict["warnings"]) == 1
    assert GROUND_TRUTH_FILE in verdict["warnings"][0]
    assert "checksum" in verdict["warnings"][0]


def test_verify_warns_when_a_comparison_checked_no_keys(small_fixture, capsys):
    # at the default sigma this fixture has no keys below the start level, so
    # ccq-exact and cq-dense pass on zero rows; only csq-sigma0 compares any
    rc = main(["verify", "--fixture", str(small_fixture)])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0 and verdict["passed"] is True
    by_name = {c["name"]: c["detail"] for c in verdict["checks"]}
    assert "at 0 keys" in by_name["ccq-exact"] and "over 0 keys" in by_name["cq-dense"]
    assert sorted(w.split(":")[0] for w in verdict["warnings"]) == ["ccq-exact", "cq-dense"]
    assert all("compared 0 keys" in w for w in verdict["warnings"])


def test_verify_compares_ccq_detections_when_keys_cover_every_hot_position(small_fixture,
                                                                            capsys):
    # at sigma 0 every position is a key, so ccq-exact goes on to the detections
    assert main(["verify", "--fixture", str(small_fixture), "--sigma", "0"]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["ccq-exact"] == {
        "name": "ccq-exact", "passed": True,
        "detail": "bitwise equal at 1280 keys; 100 detections identical"}


def test_verify_catches_ccq_detections_that_differ_from_dense(small_fixture, monkeypatch,
                                                               capsys):
    real = cli_mod.detections_from_result

    def ccq_loses_one(result, *args, **kwargs):
        dets = real(result, *args, **kwargs)
        return dets[:-1] if result.strategy == "ccq" else dets

    monkeypatch.setattr(cli_mod, "detections_from_result", ccq_loses_one)
    assert main(["verify", "--fixture", str(small_fixture), "--sigma", "0"]) == 1
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["ccq-exact"]["passed"] is False
    assert "detections differ" in by_name["ccq-exact"]["detail"]


def test_verify_catches_a_sparse_conv_that_drops_bias(small_fixture, monkeypatch, capsys):
    real = model_mod.sparse_conv

    def no_bias(inp, conv, rulebook):
        stripped = dataclasses.replace(conv, bias=np.zeros_like(conv.bias))
        return real(inp, stripped, rulebook)

    monkeypatch.setattr(model_mod, "sparse_conv", no_bias)
    # sigma 0.02 gives cq keys on this fixture; the default gives it none
    rc = main(["verify", "--fixture", str(small_fixture), "--sigma", "0.02"])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 1 and verdict["passed"] is False
    by_name = {c["name"]: c for c in verdict["checks"]}
    assert by_name["csq-sigma0"]["passed"] is False  # the injected fault
    assert by_name["cq-dense"]["passed"] is False    # cq runs the same sparse head
    assert by_name["ccq-exact"]["passed"] is True    # masked-dense path unaffected
    assert by_name["query-targets"]["passed"] is True


def verdict_checks(capsys) -> dict:
    return {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def test_verify_catches_masked_outputs_that_drift_from_dense(small_fixture, monkeypatch,
                                                              capsys):
    real = query_mod.gather
    weights = model_mod.load_weights(small_fixture / WEIGHTS_FILE)
    cls_width = weights.num_anchors * weights.num_classes
    assert cls_width != weights.channels  # so cls rows are told from a pyramid level

    def masked_drifts(rows, keys):
        # csq and cq gather pyramid levels; ccq's child levels gather the
        # dense pass's rows at their keys
        out = real(rows, keys)
        if rows.channels != cls_width:
            return out
        return SparseFeature(keys, np.nextafter(out.features, np.inf))

    monkeypatch.setattr(query_mod, "gather", masked_drifts)
    assert main(["verify", "--fixture", str(small_fixture), "--sigma", "0.02"]) == 1
    by_name = verdict_checks(capsys)
    assert by_name["ccq-exact"]["passed"] is False
    assert "cls_logits outputs not bitwise equal" in by_name["ccq-exact"]["detail"]
    assert by_name["csq-sigma0"]["passed"] and by_name["cq-dense"]["passed"]


def test_verify_catches_query_targets_that_disagree_with_brute_force(small_fixture,
                                                                     monkeypatch, capsys):
    real = cli_mod.query_target_for_level

    def one_cell_flipped(gt, level):
        target = real(gt, level).copy()
        target[0, 0] = 1.0 - target[0, 0]
        return target

    monkeypatch.setattr(cli_mod, "query_target_for_level", one_cell_flipped)
    assert main(["verify", "--fixture", str(small_fixture)]) == 1
    assert verdict_checks(capsys)["query-targets"] == {
        "name": "query-targets", "passed": False,
        "detail": "level 2: 1 cells disagree with brute force"}


def test_verify_catches_a_rulebook_that_misses_an_input(small_fixture, monkeypatch, capsys):
    real = cli_mod.build_rulebook

    def first_key_not_an_input(keys):
        rest = KeySet(keys.level, keys.height, keys.width, keys.cells[1:])
        return real(keys, rest)

    monkeypatch.setattr(cli_mod, "build_rulebook", first_key_not_an_input)
    assert main(["verify", "--fixture", str(small_fixture)]) == 1
    detail = verdict_checks(capsys)["flops-identity"]["detail"]
    assert detail.startswith("full-coverage rulebook at ") and "expected" in detail


def test_verify_warns_on_a_file_listed_in_checksums_but_missing(tmp_path, capsys):
    fix = gen_small(tmp_path)
    sums_path = tmp_path / CHECKSUMS_FILE
    sums = json.loads(sums_path.read_text())
    sums["files"]["extra.bin"] = "0" * 64
    sums_path.write_text(json.dumps(sums))
    capsys.readouterr()  # drop the gen-fixture status line
    assert main(["verify", "--fixture", str(fix), "--sigma", "0.02"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    assert verdict["warnings"] == ["extra.bin: listed in checksums but missing"]


# --- bench / flops / targets-check -------------------------------------------------

def test_bench_rejects_single_repeat(small_fixture, tmp_path, capsys):
    rc = main(["bench", "--pyramid", str(small_fixture / PYRAMID_FILE),
               "--weights", str(small_fixture / WEIGHTS_FILE),
               "--out", str(tmp_path), "--repeats", "1"])
    assert rc == 2
    assert "repeats" in capsys.readouterr().err


def test_bench_sweeps_the_threshold_grid(small_fixture, tmp_path):
    rc = main(["bench", "--pyramid", str(small_fixture / PYRAMID_FILE),
               "--weights", str(small_fixture / WEIGHTS_FILE),
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bench.csv").read_text().strip().split("\n")
    assert lines[0] == "strategy,sigma,level,keys,flops,millis"
    assert len(lines) == 1 + (1 + 19) * 6  # dense baseline + 19 sigmas, 6 levels each
    payload = json.loads((tmp_path / "bench.json").read_text())
    assert payload["schema"] == "qd/1"
    sigmas = [r["sigma"] for r in payload["results"][1:]]
    assert sigmas == [round(0.05 * i, 2) for i in range(1, 20)]
    assert all(r["strategy"] == "csq" for r in payload["results"][1:])


def test_flops_reports_the_stride4_cost_ratio(capsys):
    rc = main(["flops", "--image-size", "512", "--channels", "256"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p2_cost_increase"] == pytest.approx(3.00, abs=0.02)
    assert len(payload["levels"]) == 6
    assert payload["dense_total_macs"] > 0
    assert "sparse_total_macs" not in payload  # analytic run has no sparse counts


def test_flops_writes_a_file_when_asked(tmp_path, capsys):
    out = tmp_path / "flops.json"
    assert main(["flops", "--image-size", "256", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["image"] == [256, 256]
    # the query branch's share: one C -> C tower and a one-logit predictor of 16 channels
    for row in payload["levels"]:
        h, w = row["shape"]
        assert row["dense_query_macs"] == 9 * h * w * 16 * (4 * 16 + 1)
    assert payload["dense_query_macs"] == sum(r["dense_query_macs"] for r in payload["levels"])
    assert str(out) in capsys.readouterr().out


def test_targets_check_emits_per_level_maps(tmp_path, capsys):
    # 100 px: L5 and L7 round up to 4 and 1 cells a side
    objects = [{"cx": 40.0, "cy": 52.0, "w": 6.0, "h": 6.0, "class": 1}]
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(objects))
    out = tmp_path / "maps"
    rc = main(["targets-check", "--gt", str(gt_path), "--out", str(out),
               "--image-size", "100"])
    assert rc == 0
    assert capsys.readouterr().out == \
        f"query targets for 1 objects -> {out / 'v_star.qdpyr'}\n"
    summary = json.loads((out / "targets_summary.json").read_text())
    assert summary["objects"] == 1 and summary["file"] == "v_star.qdpyr"
    assert [r["level"] for r in summary["levels"]] == [2, 3, 4, 5, 6, 7]
    maps = model_mod.load_pyramid(out / summary["file"])
    assert (maps.image_height, maps.image_width, maps.channels) == (100, 100, 1)
    gt = GroundTruthSet.from_json(objects, 100, 100)
    for row in summary["levels"]:
        vmap = as_map(maps.levels[row["level"]])[0]
        np.testing.assert_array_equal(vmap, query_target_for_level(gt, row["level"]))
        assert 0 < row["positives"] == vmap.sum() <= row["total"] == vmap.size
        assert row["shape"] == list(vmap.shape)
    assert [r["shape"] for r in summary["levels"]] == [[25, 25], [13, 13], [7, 7], [4, 4],
                                                      [2, 2], [1, 1]]
