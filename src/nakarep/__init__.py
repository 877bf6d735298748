"""Exact computations with continuous Nakayama representations.

Interval and string modules on the line and the circle, constrained by a
length profile (a successor map K with K(t) > t): Hom spaces, morphism
kernels and cokernels, projective resolutions, separation points and
orthogonal components, push-forwards along orientation-preserving
homeomorphisms, and the embedding of finite-dimensional serial algebra
module categories.  All arithmetic is exact rational arithmetic.
"""

from .errors import (
    DegreeError,
    DomainError,
    IncompatibleModule,
    InvalidModule,
    InvalidMorphism,
    InvalidSeries,
    NakarepError,
    NotBijective,
    NotGridAligned,
    ParseError,
)
from .pwmap import (
    NEG_INF,
    POS_INF,
    Bound,
    Dom,
    FracLinear,
    Piece,
    PiecewiseMap,
    compose,
    invert,
)
from .interval import (
    CLOSED,
    OPEN,
    EndpointKind,
    Interval,
    canonical_lift,
    contains,
    interval,
    left_intersect,
    translate,
)
from .kupisch import (
    CIRCLE,
    Circle,
    ComponentDescriptor,
    KupischProfile,
    Line,
    SeparationSet,
    Shape,
    Space,
    circle_profile,
    components,
    kappa_at,
    line_profile,
    next_separation,
    normalize_profile,
    orbit,
    push_forward,
    separation_points,
    validate_profile,
    verify_conjugacy,
)
from .repcat import (
    ExceededCap,
    Finite,
    InfinitePeriodic,
    MorphismAnalysis,
    ResolutionReport,
    ScalarMorphism,
    Verdict,
    component_of,
    end_dim,
    hom_dim,
    is_brick,
    is_compatible,
    is_projective,
    map_module,
    morphism_analyze,
    projective_at,
    projective_cover,
    projective_resolution,
)
from .discrete import (
    DiscreteModule,
    KupischSeries,
    algebra_dim_check,
    associated_kupisch,
    discrete_hom_dim,
    embed_module,
    extract_module,
    validate_series,
)

__version__ = "0.1.0"
