"""Exact quantum sheaf cohomology for toric deformations of tangent bundles."""

from .fan import (Fan, PrimitiveCollection, FanError, NonPrimitiveRay,
                  NonUnimodularCone, IncompleteFan, DuplicateRay, NotInSupport,
                  build_fan, primitive_collections, locate_cone)
from .lattice import (ClassLattice, CurveClass, EquivClass, LatticeError,
                      TorsionDetected, NonIntegralCoefficient,
                      NonProjectiveFan, IneffectiveClass, class_lattice,
                      equiv_classes, beta_K, mori_generators, dominates,
                      find_anchor, effective_cones_coincide, h0, h1)
from .poly import (Polynomial, Ideal, GroebnerBasis, PolyError, NonSquare,
                   NonHomogeneousIdeal, UnsupportedNovikovShape, ParseError,
                   det, groebner, normal_form, quotient_dims,
                   standard_monomials, parse_polynomial)
from .deform import (Deformation, DeformationEntry, LinearData, FreenessVerdict,
                     PolymologyResult, DeformError, CharacterOutsidePolytope,
                     DuplicateEntry, UnknownRayIndex, DegenerateDeformation,
                     d_symbols, tangent_deformation, parse_deformation,
                     linear_part, local_freeness_check, polymology)
from .sectors import (SectorData, SectorError, NotDominating, sector,
                      sector_ideal, sector_gb, transition)
from .quantum import (QuantumError, AnchorDegenerate,
                      NonFanoEnumerationUnbounded, CorrelatorReport, SectorRow,
                      QuantumRelation, four_fermi, correlator_sector,
                      correlator_series, degree_slice, effective_window,
                      novikov_series_str, qsr_generators, verify_qc_relation,
                      relation_annihilates, quantum_normal_form, quantum_groebner)
from .model import Model, ModelError, build_model, load_model

__version__ = "0.1.0"
