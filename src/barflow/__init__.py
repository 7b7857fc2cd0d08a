"""Spectral study of metastable shear states of the 2D vorticity equation.

Subpackages by task: :mod:`barflow.fields` (spectral fields, exact states,
anomalous-mode bookkeeping), :mod:`barflow.operators` (banded and dense
linearizations), :mod:`barflow.eigensolve` (spectra and viscosity-scaling fits),
:mod:`barflow.evolution` (linear and pseudo-spectral time integration),
:mod:`barflow.hypocoercivity` (weighted norms and enhanced-decay checks),
and :mod:`barflow.cli` (the experiment runner).
"""

__version__ = "0.1.0"

from .fields import (
    SpectralField,
    VelocityField,
    anomalous_content,
    anomalous_coordinates,
    bar_state,
    biot_savart,
    dipole_state,
    enstrophy,
    grad_norm_sq,
    is_anomalous_free,
    load_field,
    mode_field,
    random_field,
    remove_anomalous,
    save_field,
    seeded_row_field,
    synthesize,
    zero_field,
)
from .operators import (
    DipoleOperator,
    OperatorSlice,
    adjoint_slice,
    advection_matrix,
    anomalous_generator,
    apply_bar_adjoint,
    apply_bar_generator,
    bar_slice,
    commutator_matrix,
    dipole_operator,
    load_matrix,
    save_matrix,
    symmetrized_bar_slice,
    symmetrized_dipole_operator,
)
from .eigensolve import (
    ScalingFit,
    collapse_table,
    compute_spectrum,
    eigen_residual,
    fit_scaling,
    least_decaying,
    nu_sweep,
)
from .evolution import (
    DecayFit,
    IntegratorConfig,
    Trajectory,
    decay_rate_fit,
    diffusion_rate,
    enstrophy_balance_residual,
    evolve_linear,
    evolve_nonlinear,
)
from .hypocoercivity import (
    DissipationReport,
    EnhancedDecayFit,
    FunctionalSample,
    HypoConstants,
    auto_m0,
    decay_check,
    estimate_m0,
    functional_dissipation,
    functional_sample,
    hypo_constants,
    oscillator_min_eig,
    x_norm_sq,
)
