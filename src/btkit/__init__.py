"""Executable Backlund-transformation machinery.

Closed-form solution generators for the classical transformation pairs
(Cauchy-Riemann, Liouville, sine-Gordon), conjugate electromagnetic
plane-wave construction in vacuum, linear media, and conductors, a
recursion operator for matrix chiral-field symmetries, and a
verification layer (exact derivatives of closed forms, lattice stencils
for tables) that certifies every generated object against its PDE.

``import btkit`` loads no submodule and not numpy: each public name, and
each submodule named in ``_EXPORTS`` (``btkit.verify``, ...), is imported
on first access (PEP 562), so a caller pays only for the family it uses.
"""

from importlib import import_module as _import_module

# the one declaration of the public API: submodule -> the names it exports
_EXPORTS = {name: module for module, names in {
    "chiral_recursion": (
        "ConstantField", "ExpSeedField", "MatrixField", "SymmetryCharacteristic",
        "TabulatedField", "chiral_defect_samples", "chiral_residual", "hierarchy",
        "potential", "recursion_step", "symmetry_residual"),
    "classic_bts": (
        "ScalarField2D", "bt_residual_cr", "bt_residual_liouville", "bt_residual_sine_gordon",
        "harmonic_conjugate_quadratic", "harmonic_quadratic", "laplace_residual",
        "liouville_from_trivial", "liouville_residual", "monomial_xy",
        "sine_gordon_from_vacuum", "sine_gordon_residual", "zero_field"),
    "errors": (
        "BtkitError", "EmptyDomainError", "IntegrabilityError", "InvalidGridError",
        "InvalidParameterError", "NonCommutingError", "NormalizationError",
        "PathDependenceError", "SingularMatrixError", "TransversalityError"),
    "maxwell_conductor": (
        "ConductorWavePair", "DispersionSolution", "dispersion_solve", "wave_residual"),
    "maxwell_vacuum": (
        "FieldPair", "WavePair", "maxwell_residual", "plane_wave"),
    "media": ("EPSILON0", "MU0", "VACUUM", "MediumParams"),
    "verify": ("Grid2D", "Grid4D", "ResidualReport", "report_from_values"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value   # resolved once; later lookups find the global
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
