"""securewave: SINR-based secure waveform design for multipath wiretap channels.

Submodules
----------
kernel    dense complex-Hermitian eigen/SVD kernels
channel   multipath channels, disturbance covariances, BER simulation
p2p       known-eavesdropper waveform and energy design
an        minimum-energy design and artificial-noise covariances
sdp       self-contained dense Hermitian SDP solver
sdr       semidefinite-relaxation multicast design
harness   Monte Carlo sweeps, BER estimation, CSV emission
config    flat key-value config files
cli       command-line entry point
"""

from .an import AnCovariance, an_covariance, an_pipeline_multicast, an_pipeline_single, min_energy_design
from .channel import (
    ConvolutionChannelMatrix,
    DisturbanceCovariance,
    ScenarioConfig,
    build_disturbance_covariance,
    convolution_channel_matrix,
    draw_multipath_channel,
    draw_wiretap_trial,
    effective_q,
    max_sinr_filter,
    simulate_received_block,
    sinr,
    sinr_with_an,
)
from .errors import (
    DefinitenessError,
    DimensionError,
    NoTransmitError,
    NumericalError,
    SdpInfeasibleError,
    SecureWaveError,
    ValidationError,
)
from .harness import ResultTable, SweepSpec, emit_results, estimate_ber, run_sweep
from .kernel import hermitian_eig, left_singular_basis
from .p2p import P2pProblem, WaveformDesign, check_feasibility, design_p2p, eigen_design, kkt_bisection
from .sdp import SdpProblem, SdpSolution, solve_sdp
from .sdr import MulticastProblem, extract_rank1, gaussian_randomization, multicast_design, sum_sinr_design

__version__ = "0.1.0"
