"""Phase-space correlations, blind spots and decoherence timescales of
superpositions of generalized coherent states.

Diagnostics go to the "blindspots" logger as DEBUG records; it has a
NullHandler, so nothing is printed unless the application configures logging.
"""

import logging

from .errors import (
    BadQuadrature,
    BlindspotsError,
    ConfigError,
    DegenerateGeometry,
    DegenerateSpots,
    DissipativeUnsupported,
    ImaginaryResidue,
    NegativeTime,
    NeverLifted,
    NeverPositive,
    NoClosure,
    NoConvergence,
    NoMinimum,
    NonSymmetricWindow,
    NotNormalized,
    NotSymplectic,
    NumericalError,
    SingularJacobian,
    ValidationError,
    WindowTooSmall,
    WrongArity,
    ZeroNorm,
)
from .geometry import J, skew
from .states import (
    GaussianState,
    MixedEnsemble,
    Superposition,
    apply_symplectic,
    shift_origin,
    translate_state,
)
from .chord import (
    chord_exact,
    chord_gradient,
    chord_mixture,
    chord_quadrature,
    chord_values,
    correlation_pure,
    normalize,
    overlap,
    state_norm_squared,
    wavefunction,
    wigner_exact,
    wigner_values,
)
from .fields import (
    FieldGrid,
    chord_grid,
    correlation_grid,
    correlation_mixture,
    fourier_2d,
    grid_value_at,
    self_dual_grid,
    wigner_from_chord_grid,
    wigner_grid,
)
from .spots import (
    BlindSpotLattice,
    DiffractionModel,
    LatticeNode,
    NodalLineSet,
    RefinedSpot,
    TriangleAngles,
    find_spots_generic,
    hexagonal_lattice,
    newton_refine,
    recover_centers,
    small_chord,
    sublattice_nodes,
    trace_nodal_lines,
    triangle_close,
)
from .decoherence import (
    DecoherenceGaussian,
    LiftingRatioResult,
    LiftingResult,
    LindbladModel,
    LineScanSeries,
    correlation_evolved_points,
    decoherence_matrix,
    evolved_chord,
    evolved_chord_grid,
    evolved_correlation,
    husimi_time,
    lifting_ratio,
    lifting_time,
    positivity_time,
    propagator_matrix,
    scan_line,
    wigner_evolved_values,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
