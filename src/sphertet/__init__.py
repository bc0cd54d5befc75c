"""Exact classification of spherical tetrahedra with rational dihedral
angles and rational volume.

Everything numeric is decided exactly: angles are rational multiples of
pi, cosines live in cyclotomic fields, volumes are rational multiples
of pi^2, and every inequality is certified by interval arithmetic with
explicit precision control (never by floating point alone).
"""

from __future__ import annotations

from .angles import HALF_PI, PI, ZERO, RationalAngle, angle
from .certify import (
    CertificationInconclusive,
    CoxeterCell,
    LinkTriangle,
    ObstructionCertificate,
    area_diophantine,
    coxeter_catalog,
    diameter_certificate,
    lifted_volume_fraction,
    link_triangle_sides,
    nondecomposability_certificate,
    recheck_obstruction,
    volume_fraction,
)
from .cyclotomic import (
    CyclotomicNumber,
    SignedInterval,
    cos_as_cyclotomic,
    sign,
    sin_as_cyclotomic,
)
from .families import (
    FamilyInstance,
    FamilyMembership,
    FamilySpec,
    builtin_families,
    classify_quadruple,
    export_catalog,
    family_by_id,
    instantiate,
    member_of,
    verify_domain,
    verify_identity,
    verify_volume_form,
)
from .geometry import (
    EdgeLengths,
    PreconditionError,
    PythagoreanQuadruple,
    RawQuadruple,
    VolumeCoefficient,
    edge_lengths,
    is_pythagorean,
    is_realizable,
    pair_to_quadruple,
    quadruple_residual,
    realizability,
    vertex_links,
    volume,
)
from .lambert import (
    LambertCube,
    companion_tetrahedra,
    lambert_residual,
    lambert_volume,
    search_rational_lambert_cubes,
)
from .search import (
    DenominatorProfile,
    SearchConfig,
    SearchReport,
    SporadicRow,
    TripleReport,
    candidate_count,
    grid_angles,
    rational_length,
    run_sporadic_search,
    search_triples,
    verify_no_length4_solutions,
)
from .trigpoly import AngleForm, PositivityError, TrigPoly, positive_on_open_interval

__version__ = "0.1.0"
