"""tools/sdp_path_check.py: SDP solves of two source trees compared bit for bit."""

import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import sdp_path_check  # noqa: E402


def tree(path):
    """A source tree at ``path``: this checkout's sources and configs."""
    shutil.copytree(ROOT / "src" / "securewave", path / "src" / "securewave")
    shutil.copytree(ROOT / "configs", path / "configs")
    return path


def test_two_copies_solve_alike_and_a_moved_solve_is_reported(tmp_path):
    parent, same, moved = (tree(tmp_path / name) for name in ("parent", "same", "moved"))
    sdp_py = moved / "src" / "securewave" / "sdp.py"
    text = sdp_py.read_text()
    assert text.count("_STEP_DAMPING = 0.98\n") == 1
    sdp_py.write_text(text.replace("_STEP_DAMPING = 0.98\n", "_STEP_DAMPING = 0.97\n"))
    out = io.StringIO()
    assert sdp_path_check.compare(parent, same, draws=2, out=out) == []
    assert out.getvalue().splitlines() == [
        "shipped caps: 24/24 identical; converged 24",
        "cap edge: 64/64 identical; SdpInfeasibleError 9, converged 27, least-energy 28",
    ]
    out = io.StringIO()
    differing = sdp_path_check.compare(parent, moved, draws=2, out=out)
    assert differing and "differs in" in out.getvalue()
