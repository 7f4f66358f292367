"""tools/byte_check.py: CLI outputs of two source trees compared byte for byte."""

import importlib.util
import io
import os
import shutil
from pathlib import Path

import pytest

import securewave.cli as cli
import securewave.harness as harness
import securewave.sdr as sdr
from securewave.sdp import solve_sdp
from securewave.sdr import multicast_design

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


def test_a_failing_command_must_fail_alike_in_both_trees(tmp_path):
    parent, same, moved = (tree(tmp_path / "parent"), tree(tmp_path / "same"),
                           tree(tmp_path / "moved", seed=2))
    singular = ("design-p2p", byte_check.SINGULAR_R)
    out = io.StringIO()
    assert byte_check.compare(parent, same, (), out=out, failing=(singular,)) == []
    assert out.getvalue() == "fails    design-p2p SINGULAR_R.cfg\n"
    # A command listed to fail that succeeds is reported, as is a failure
    # whose output moved.
    out = io.StringIO()
    assert byte_check.compare(parent, same, (), out=out, failing=(DESIGN,)) == [DESIGN]
    assert out.getvalue().startswith("PASSES   " + " ".join(DESIGN) + "\n    exit 0")
    (moved / "src" / "securewave" / "errors.py").write_text(
        (ROOT / "src" / "securewave" / "errors.py").read_text().replace(
            "super().__init__(message)", "super().__init__(message.upper())"))
    out = io.StringIO()
    assert byte_check.compare(parent, moved, (), out=out, failing=(singular,)) == [singular]
    assert out.getvalue().startswith("DIFFERS  ") and "+++ change stderr" in out.getvalue()


@pytest.mark.skipif(not byte_check.ONE_CPU or len(os.sched_getaffinity(0)) < 2,
                    reason="a pinned rerun needs two CPUs to differ from")
def test_a_ber_output_that_moves_on_one_cpu_is_reported(tmp_path):
    # The moved tree renders its numbers scaled by the thread count, so its
    # pinned rerun prints other bytes than its own run on every CPU.
    parent, same, moved = (tree(tmp_path / "parent"), tree(tmp_path / "same"),
                           tree(tmp_path / "moved"))
    ber = ("simulate-ber", "configs/ber-uncoded.cfg", "--trials", "1")
    for path in (parent, same, moved):
        shutil.copy(ROOT / ber[1], path / ber[1])
    harness_py = moved / "src" / "securewave" / "harness.py"
    text = harness_py.read_text()
    assert text.count('return f"{value:.9g}"') == 1
    harness_py.write_text(text.replace('return f"{value:.9g}"',
                                       'return f"{value * (_BER_THREADS > 1):.9g}"'))
    out = io.StringIO()
    assert byte_check.compare(parent, same, (ber,), out=out) == []
    assert out.getvalue() == "same     " + " ".join(ber) + "\n"
    out = io.StringIO()
    assert byte_check.compare(parent, moved, (ber,), out=out) == [ber]
    assert out.getvalue().startswith("ONE-CPU  ") and "+++ one-CPU stdout" in out.getvalue()


def test_the_cap_edge_design_succeeds(tmp_path, monkeypatch, capsys):
    # Designs capped at or just above their least energy, of either
    # objective: the main solve stalls or no waveform fits the cap, and the
    # least-energy program or design must answer each.
    cap_edge = [args for args in byte_check.COMMANDS if args[0] == "design-multicast"
                and "--emax" in args and "--gamma-db" not in args]
    assert len(cap_edge) == 3
    here = tree(tmp_path / "here")
    out = io.StringIO()
    assert byte_check.compare(here, here, tuple(cap_edge), out=out) == []
    assert out.getvalue().count("same     design-multicast") == 3
    # Each takes the path its comment names: the least-energy program's
    # matrix for the stalled solves at seed 3, the least-energy design for
    # the solved relaxation at seed 1.
    solutions, designs = [], []

    def recording_solve(problem):
        solutions.append(solve_sdp(problem))
        return solutions[-1]

    def recording_design(problem, rng, solution):
        designs.append(multicast_design(problem, rng, solution))
        return designs[-1]

    monkeypatch.setattr(sdr, "solve_sdp", recording_solve)
    monkeypatch.setattr(harness, "multicast_design", recording_design)
    for args, matrix in zip(cap_edge, (True, True, False)):
        solutions.clear()
        designs.clear()
        assert cli.main(list(args)) == 0, args
        assert solutions[0].least_energy[0] == matrix, args
        assert [design.info["method"] for design, _ in designs] == ["least-energy"], args
    capsys.readouterr()


def test_the_cap_edge_sweep_answers_its_first_trial_by_the_least_energy_program(
        tmp_path, monkeypatch, capsys):
    # Trial (0, 0) of the CAP_EDGE.cfg sweep is the draw of the seed-3
    # min-energy cap-edge design: in a stack of 12 trials, the least-energy
    # program's matrix answers it and only it.
    args = next(args for args in byte_check.COMMANDS if "CAP_EDGE.cfg" in args)
    config = tmp_path / "CAP_EDGE.cfg"
    config.write_text(byte_check.CONFIGS["CAP_EDGE.cfg"])
    solutions, designs = [], []

    def recording_solve(problem):
        solutions.append(solve_sdp(problem))
        return solutions[-1]

    def recording_design(problem, rng, solution):
        designs.append(multicast_design(problem, rng, solution))
        return designs[-1]

    monkeypatch.setattr(sdr, "solve_sdp", recording_solve)
    monkeypatch.setattr(harness, "multicast_design", recording_design)
    assert cli.main([str(config) if arg == config.name else arg for arg in args]) == 0
    stack, = solutions
    assert stack.least_energy.tolist() == [True] + [False] * 11
    assert [design.info["method"] for design, _ in designs] == ["least-energy"] + ["extraction"] * 11
    capsys.readouterr()
