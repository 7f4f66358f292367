"""tools/byte_check.py: CLI outputs of two source trees compared byte for byte."""

import importlib.util
import io
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("byte_check", ROOT / "tools" / "byte_check.py")
byte_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_check)

DESIGN = ("design-p2p", "configs/eigen-known-csi.cfg")


def tree(path, seed=1):
    """A source tree at ``path``: this checkout's sources, one config."""
    shutil.copytree(ROOT / "src" / "securewave", path / "src" / "securewave")
    (path / "configs").mkdir()
    text = (ROOT / DESIGN[1]).read_text().replace("seed = 1\n", f"seed = {seed}\n")
    (path / DESIGN[1]).write_text(text)
    return path


def test_identical_trees_pass_and_a_moved_output_is_reported(tmp_path):
    parent, same, moved = (tree(tmp_path / "parent"), tree(tmp_path / "same"),
                           tree(tmp_path / "moved", seed=2))
    out = io.StringIO()
    assert byte_check.compare(parent, same, (DESIGN,), out=out) == []
    assert out.getvalue() == "same     " + " ".join(DESIGN) + "\n"
    out = io.StringIO()
    assert byte_check.compare(parent, moved, (DESIGN,), out=out) == [DESIGN]
    assert out.getvalue().startswith("DIFFERS  ") and "+++ change stdout" in out.getvalue()


def test_a_command_failing_in_both_trees_is_reported(tmp_path):
    parent, same = tree(tmp_path / "parent"), tree(tmp_path / "same")
    missing = ("sweep", "configs/missing.cfg")
    out = io.StringIO()
    assert byte_check.compare(parent, same, (missing,), out=out) == [missing]
    assert out.getvalue().startswith("FAILS    sweep configs/missing.cfg\n    exit ")
