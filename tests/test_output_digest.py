import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import numpy as np

import cascadequery as cq
from cascadequery.query import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def digest(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_output_digest_is_identical_against_itself_and_names_a_one_ulp_change(tmp_path):
    for side in ("a", "b"):
        done = digest("record", ROOT, tmp_path / side, "--cases", "small")
        assert done.returncode == 0, done.stderr
    same = digest("compare", tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0, same.stdout
    assert same.stdout.splitlines()[-1] == "identical"
    assert "rows: 4 of 4 records identical" in same.stdout

    # the same fixture with one class bias one ULP up, recorded in this process
    tool = load_tool()
    pyr, w = tool.small_case(cq)
    w.cls_pred.bias[0] = np.nextafter(w.cls_pred.bias[0], np.float32(np.inf))
    rec = tool.Recorder(tmp_path / "c")
    tool.record_small(cq, rec, pyr, w, tmp_path)
    rec.close(str(ROOT))
    out = io.StringIO()
    changed = tool.compare(tmp_path / "a", tmp_path / "c", out=out)
    log = out.getvalue()
    assert changed.pop("small/load-weights") == ["file", "loaded"]
    assert "cls.4.bias: 1 of 4 values differ" in log
    assert sorted(changed) == [f"small/{s}" for s in sorted(STRATEGIES)]
    for fields in changed.values():  # cls logits move; keys and reports cannot
        assert "rows" in fields and not {"keys", "report"} & set(fields)
    assert "L2.cls_logits:" in log and "max abs" in log
    assert log.splitlines()[-1] == "5 records differ"
    assert digest("compare", tmp_path / "a", tmp_path / "c").returncode == 1
