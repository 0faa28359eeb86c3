"""Executable Backlund-transformation machinery.

Closed-form solution generators for the classical transformation pairs
(Cauchy-Riemann, Liouville, sine-Gordon), conjugate electromagnetic
plane-wave construction in vacuum, linear media, and conductors, a
recursion operator for matrix chiral-field symmetries, and a
finite-difference verification layer that certifies every generated
object against the PDE it claims to solve.
"""

from types import ModuleType as _ModuleType

from .chiral_recursion import (
    ConstantField,
    ExpSeedField,
    MatrixField,
    SymmetryCharacteristic,
    TabulatedField,
    chiral_defect_samples,
    chiral_residual,
    hierarchy,
    potential,
    recursion_step,
    symmetry_residual,
)
from .classic_bts import (
    ScalarField2D,
    XYMatchResult,
    bt_residual_cr,
    bt_residual_liouville,
    bt_residual_sine_gordon,
    harmonic_conjugate_match,
    harmonic_conjugate_quadratic,
    harmonic_quadratic,
    laplace_residual,
    liouville_from_trivial,
    liouville_residual,
    monomial_xy,
    sine_gordon_from_vacuum,
    sine_gordon_residual,
    xy_family_match,
    zero_field,
)
from .errors import (
    BtkitError,
    EmptyDomainError,
    IntegrabilityError,
    InvalidGridError,
    InvalidParameterError,
    NonCommutingError,
    NormalizationError,
    PathDependenceError,
    SingularMatrixError,
    TransversalityError,
)
from .maxwell_conductor import (
    ConductorWavePair,
    DispersionSolution,
    conjugate_conducting,
    dispersion_solve,
    modified_wave_residual,
    real_fields_conducting,
)
from .maxwell_vacuum import (
    FieldPair,
    VacuumWaveSpec,
    WavePair,
    conjugate_vacuum,
    maxwell_residual,
    plane_wave,
    real_fields_vacuum,
    wave_residual,
)
from .media import CONSTANTS, EPSILON0, MU0, VACUUM, MediumParams, PhysicalConstants
from .verify import (
    DEFAULT_STEP,
    Grid2D,
    Grid4D,
    ResidualReport,
    report_from_values,
)

# __all__ is derived, not listed: every global bound above that is neither
# private nor a submodule, so each public name is stated once, in its import
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
