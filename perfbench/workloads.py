"""The benchmark's workloads and the set-up that turns one into SweepSpecs.

Every table is a shipped config from ``configs/`` run through the public
config API with the workload seed as its master seed and a reduced trial
count.  Importing this module imports neither numpy nor securewave, so the
caller can pin BLAS threads first.
"""

import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SRC = ROOT / "src"

# The seed every shipped config carries, and the only seed whose tables have
# reference CSVs under perfbench/reference/; other seeds are held out.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Table:
    """One sweep of a workload: a shipped config plus benchmark edits."""

    name: str
    config: str
    trials: int
    edits: dict = field(default_factory=dict)
    ber: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: tuple
    # Input sets of one cycle; a run repeats whole cycles.  Enough trials
    # that counts and the cost do not hinge on a few draws (a third of
    # cap-active's trials bisect, at 30x the cost).
    sets: int
    # Spans that must record calls on this workload (the coverage guard).
    dominant: tuple
    # Reference kernel kind closest to the workload's work (see run.py).
    kernel: str = "linalg"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="analytic-sweep",
        why="Shipped eigen, AN, min-energy and sum-SINR sweeps: channel draws "
            "and small kernel eigensolves dominate, the batched-trial target.",
        tables=(
            Table("eigen-known-csi", "eigen-known-csi", 10),
            Table("an-unknown-csi", "an-unknown-csi", 10),
            Table("min-energy-no-an", "min-energy-no-an", 10),
            Table("sum-sinr", "sum-sinr", 5),
        ),
        sets=6,
        dominant=(
            "channel.draw_wiretap_trial", "channel.effective_q", "channel.sinr",
            "channel.sinr_with_an", "kernel.generalized_eigh",
            "kernel.hermitian_eig", "kernel.left_singular_basis",
            "p2p.design_p2p", "p2p.eigen_design", "an.min_energy_design",
            "an.an_pipeline_single", "an.an_covariance", "sdr.sum_sinr_design",
        ),
    ),
    Workload(
        name="cap-active",
        why="Known-Eve design at 6 dB swept over small energy caps, so about a "
            "third of trials take the KKT bisection and its pencil solves.",
        tables=(
            Table("eigen-known-csi-emax", "eigen-known-csi", 10,
                  edits={"gamma_db": "6", "sweep": "emax", "sweep_values": "3,5,10"}),
        ),
        sets=40,
        dominant=("p2p.kkt_bisection", "kernel.generalized_eigh"),
    ),
    Workload(
        name="multicast-sdr",
        why="Shipped SDR multicast configs (Q_e and identity objectives, K=5, "
            "L=16): the interior-point SDP solver takes almost all the time.",
        tables=(
            Table("multicast-sdr", "multicast-sdr", 1),
            Table("multicast-min-energy-an", "multicast-min-energy-an", 1),
        ),
        sets=10,
        dominant=("sdp.solve_sdp", "sdr.multicast_design",
                  "an.an_pipeline_multicast", "kernel.hermitian_eig"),
    ),
    Workload(
        name="ber-isi",
        why="Shipped uncoded-BER config with ISI and 10^4 bits per trial: chip "
            "simulation in the channel layer, unused by the analytic sweeps.",
        tables=(Table("ber-uncoded", "ber-uncoded", 1, ber=True),),
        sets=8,
        dominant=("channel.simulate_received_block", "channel.max_sinr_filter"),
        kernel="bulk",
    ),
)}


# Input set j of a cycle uses master seed seed + j * SET_SEED_STRIDE, so the
# sets draw distinct trials while set 0 is exactly the tables of the seed.
SET_SEED_STRIDE = 2**32


def set_seed(seed, index):
    return seed + index * SET_SEED_STRIDE


@dataclass
class Prepared:
    """What set-up hands to the measured passes."""

    harness: object
    config: object
    workload: Workload
    config_parse_s: float

    def specs(self, seed):
        """The workload's SweepSpecs at master seed ``seed``."""
        return tuple(_spec(self.config, table, seed) for table in self.workload.tables)


def setup(workload, seed):
    """Import securewave, build the workload's SweepSpecs and warm up.

    The warm-up runs each table at its first swept value with one trial so
    that lazy imports and first-call costs inside numpy/scipy are paid here
    and not in the first measured pass.
    """
    if not (SRC / "securewave").is_dir():
        raise FileNotFoundError(f"securewave sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from securewave import config, harness

    start = time.perf_counter()
    prepared = Prepared(harness, config, workload, 0.0)
    specs = prepared.specs(seed)
    prepared.config_parse_s = time.perf_counter() - start
    for table, spec in zip(workload.tables, specs):
        warm = replace(spec, values=spec.values[:1], scenario=replace(spec.scenario, trials=1))
        (harness.estimate_ber if table.ber else harness.run_sweep)(warm)
    return prepared


def _spec(config, table, seed):
    values = dict(config.load_config_file(CONFIGS / f"{table.config}.cfg"))
    values.update(table.edits)
    return config.sweep_spec_from_config(values, {"seed": seed, "trials": table.trials})
