"""Exact computation of alpha-determinants, wreath determinants, immanants,
symmetric-group characters and Kostka numbers, plus verification suites that
check the identities relating them by exhaustive exact arithmetic."""

from .adet import (
    adet2_poly,
    adet2_structured,
    adet_at,
    adet_poly,
    adet_structured,
    det_power_coeff,
    subgroup_avg_adet,
    wrdet,
    wreath_average_poly,
)
from .characters import (
    alpha_power_expansion,
    character,
    immanant,
    subgroup_averaged_character,
)
from .errors import (
    AlphadetError,
    DimensionMismatch,
    DivisionByZeroPoly,
    IdentityViolation,
    NotDivisible,
    NotSquare,
    ShapeWeightMismatch,
    SizeCapExceeded,
)
from .matrices import (
    PermutedBlockOnes,
    RatMatrix,
    block_ones,
    column_replicator,
    inflate,
    perm_matrix,
)
from .partitions import (
    conjugate,
    content_poly,
    content_poly_at,
    kostka_ssyt,
    num_standard_tableaux,
    partitions_of,
)
from .perms import (
    Perm,
    block_profile,
    double_coset_index,
    enumerate_perms,
    jucys_murphy_product,
)
from .polynomials import QPoly, QPoly2
from .randmat import SplitMix64, random_matrix
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"
