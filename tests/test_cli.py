"""End-to-end command-line tests, run in-process via cli.main(argv)."""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from cascadequery import KeySet, build_rulebook, dilate, head_flops_sparse
from cascadequery import cli as cli_mod
from cascadequery import model as model_mod
from cascadequery.cli import (
    CHECKSUMS_FILE,
    GROUND_TRUTH_FILE,
    PYRAMID_FILE,
    WEIGHTS_FILE,
    main,
)
from cascadequery.model import RECEPTIVE_FIELD

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
    for row in cq_rows:
        keys = KeySet(row["level"], *row["shape"], row["computed_keys"])
        rb = build_rulebook(dilate(keys, RECEPTIVE_FIELD // 2))
        assert len(keys) and row["sparse_rows"] == len(keys)
        assert row["dense_positions"] == 0
        assert row["rulebook_entries"] == rb.num_entries
        assert row["flops"] == head_flops_sparse(len(rb.keys), rb.num_entries,
                                                 weights.channels, weights.num_anchors,
                                                 weights.num_classes)


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
    for payload in ({"sigmaa": 0.5}, {"cq_patch": 11}):  # cq_patch: removed knob
        cfg.write_text(json.dumps(payload))
        rc = main(run_args(small_fixture, tmp_path, "--config", str(cfg)))
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err


def test_removed_cq_patch_flag_is_rejected_at_parse_time(small_fixture, tmp_path):
    # cq's crop is always the head's receptive field; there is no flag for it
    with pytest.raises(SystemExit):
        main(run_args(small_fixture, tmp_path, "--strategy", "cq", "--cq-patch", "13"))


@pytest.mark.parametrize("text", ["[1, 2]", "{not json", '{"sigma": "high"}'])
def test_malformed_config_is_rejected(small_fixture, tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    rc = main(run_args(small_fixture, tmp_path, "--config", str(cfg)))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------------

def test_verify_passes_on_a_pristine_fixture(small_fixture, tmp_path, capsys):
    rc = main(["verify", "--fixture", str(small_fixture), "--out", str(tmp_path)])
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
    rc = main(["verify", "--fixture", str(fix)])
    verdict = json.loads(capsys.readouterr().out)
    assert rc == 0 and verdict["passed"] is True
    assert len(verdict["warnings"]) == 1
    assert GROUND_TRUTH_FILE in verdict["warnings"][0]
    assert "checksum" in verdict["warnings"][0]


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
    assert str(out) in capsys.readouterr().out


def test_targets_check_emits_per_level_maps(tmp_path, capsys):
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps([
        {"cx": 40.0, "cy": 52.0, "w": 6.0, "h": 6.0, "class": 1},
    ]))
    out = tmp_path / "maps"
    rc = main(["targets-check", "--gt", str(gt_path), "--out", str(out),
               "--image-size", "128"])
    assert rc == 0
    summary = json.loads((out / "targets_summary.json").read_text())
    assert summary["objects"] == 1
    assert [r["level"] for r in summary["levels"]] == [2, 3, 4, 5, 6, 7]
    for row in summary["levels"]:
        assert (out / row["file"]).exists()
        assert 0 < row["positives"] <= row["total"]
        h, w = row["shape"]
        assert row["total"] == h * w
