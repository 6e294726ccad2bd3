"""tools/equivalence.py on a one-day subset of its matrix: the tree
against itself is equal, and a changed idle cost is named at its first
differing event."""
from __future__ import annotations

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[1]
SUBSET = dict(cases=("fh-rho0.0", "case-study", "fh-hooked"),
              protocols=("ewan", "single_hop"), seeds=(1,), days=1)


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "equivalence", ROOT / "tools" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


equivalence = _load_tool()


def test_the_tree_against_itself_is_equal():
    report = equivalence.compare(ROOT, ROOT, **SUBSET)
    assert report.startswith("equal: 6 runs"), report


def test_a_changed_idle_cost_is_named_at_its_first_event(tmp_path):
    shutil.copytree(ROOT / "src" / "ewansim", tmp_path / "src" / "ewansim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run_py = tmp_path / "src" / "ewansim" / "protocol" / "run.py"
    text = run_py.read_text()
    idle = 'self.load_idle = (eparams.p_idle, "idle")'
    assert idle in text
    run_py.write_text(text.replace(
        idle, 'self.load_idle = (eparams.p_idle * 1.01, "idle")'))
    report = equivalence.compare(ROOT, tmp_path, **SUBSET).splitlines()
    assert report[0] == "differ"
    assert report[1].startswith(
        "fh-rho0.0.ewan.1.pkl: field events differs, first at RunEvent ")
    assert report[2].startswith("  this:    ")
    assert report[3].startswith("  against: ")
    assert report[2] != report[3]
