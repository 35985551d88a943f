"""Verification engine for operator-valued plane waves of non-Abelian
gauge fields, with a Dirac Zitterbewegung source model and Poynting-flux
cross-checks."""

from .algebra import (
    DimMismatch,
    GeneratorSet,
    NonTracelessBasis,
    UnsupportedGenerator,
    commutator,
    cross,
    custom_generators,
    dot,
    make_generators,
    structure_constants,
)
from .fields import (
    HarmonicField,
    SolutionFamily,
    WaveContext,
    build_fields,
    build_potentials,
    field,
    random_family,
    xz_family,
)

__version__ = "0.1.0"
