"""Numerical laboratory for the Chalker-Coddington network model on a cylinder.

Layers: ``model`` (scattering blocks, disorder, finite unitary), ``transfer``
(layer matrices, cocycle kernel, propagator, reconstruction), ``lyapunov``
(QR-stabilized spectrum estimates and exact laws), ``spectral``
(eigendecompositions, density of states, determinant identity, bands,
decay fits), ``invariants`` (the exact-identity checks shared by ``ccnet
verify`` and the acceptance suite), ``cli``/``records`` (harness and
persistence).
"""

__version__ = "0.1.0"

from .model import (
    FiniteOperator,
    ModelParams,
    NodePhaseField,
    PhaseField,
    build_cylinder_operator,
    build_full_cylinder_operator,
    extreme_block_check,
    reduce_phases,
    sample_node_phases,
    sample_phase_field,
    scattering_matrix,
)
from .transfer import (
    LayerPhases,
    Propagator,
    TransferMatrix,
    cocycle_step,
    form_signature,
    layer_matrices,
    propagate,
    reconstruct_and_verify,
    reconstruct_columns,
)
from .lyapunov import (
    CocycleRunConfig,
    LocalizationLength,
    LyapunovResult,
    localization_length,
    lyapunov_spectra,
    thouless_rhs,
    xi_upper_bound,
)
from .spectral import (
    BandStructure,
    DecayFit,
    DetIdentityCheck,
    DOSHistogram,
    ParityOperators,
    SpectrumResult,
    band_grid,
    band_symbol,
    build_parity_operators,
    determinant_identity_residual,
    dos_moments,
    eigendecompose,
    eigenvector_decay_fit,
    krylov_rank,
    ks_statistic,
)
from .records import CSV_HEADER, ResultRecord, canonical_row, emit, read_records
