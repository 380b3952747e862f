"""Exact computations with finite-type knot invariants.

The package makes the two standard difference calculi on knot diagrams
executable with exact arithmetic: iterated crossing-switch differences
(with type tests for the Conway coefficient c2 and the Jones derivative
j3), iterated detour differences over switch-region families, the
encoding of marked double points as detour families with a checkable
equality between the two difference sums, chord-diagram spaces modulo
the four-term and framing-independence relations, and Hopf-pair bracelet
links with a linking-matrix detector.  Everything answers in integers,
rationals, or Laurent polynomials; nothing is ever rounded.
"""

from .bracelets import (
    BraceletError,
    CyclicLink,
    HopfPairBracelet,
    detect_hopf_pairs,
    odd_degree_empty,
    realize_as_link,
)
from .chord_algebra import (
    MAX_DEGREE,
    ChordDiagram,
    RelationSet,
    WeightSpaceReport,
    dim_a,
    enumerate_diagrams,
    generate_4t,
    generate_fi,
)
from .diagram import (
    Crossing,
    Diagram,
    FormalSum,
    GaussError,
    PDArcError,
    PDError,
    PDOrientationError,
    PDSyntaxError,
    SingularDiagram,
    load_table,
    mark_singular,
    mirror,
    parse_gauss,
    parse_pd,
    serialize_pd,
    switch_crossing,
    to_gauss,
)
from .exact_math import LaurentPoly, SparseMatrix
from .goussarov import (
    MAX_REGIONS,
    DetourFamily,
    FamilyError,
    Route,
    SwitchRegion,
    Theorem1Result,
    delta_g,
    encode_crossing_as_detours,
    encode_singular_as_bracelet,
    goussarov_difference,
    goussarov_type_check,
    parse_family,
    serialize_family,
    switch_family,
    theorem1_identity_check,
)
from .invariants import (
    Invariant,
    InvariantError,
    c2,
    conway,
    evaluate_on_sum,
    get_invariant,
    invariant_names,
    j3,
    jones,
    kauffman_bracket,
    linking_matrix,
)
from .tables import (
    SuiteCase,
    TableError,
    bundled_names,
    bundled_suite_path,
    bundled_table,
    load_suite,
    resolve_diagram_ref,
)
from .vassiliev import (
    TypeCheckCase,
    TypeCheckReport,
    difference_sum,
    resolve_all,
    resolve_once,
    vassiliev_difference,
    vassiliev_type_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # diagrams
    "Crossing",
    "Diagram",
    "SingularDiagram",
    "FormalSum",
    "PDError",
    "PDSyntaxError",
    "PDArcError",
    "PDOrientationError",
    "GaussError",
    "parse_pd",
    "serialize_pd",
    "parse_gauss",
    "to_gauss",
    "load_table",
    "switch_crossing",
    "mirror",
    "mark_singular",
    # exact arithmetic
    "LaurentPoly",
    "SparseMatrix",
    # invariants
    "Invariant",
    "InvariantError",
    "kauffman_bracket",
    "jones",
    "conway",
    "c2",
    "j3",
    "linking_matrix",
    "invariant_names",
    "get_invariant",
    "evaluate_on_sum",
    # crossing-switch differences
    "resolve_once",
    "resolve_all",
    "difference_sum",
    "vassiliev_difference",
    "vassiliev_type_check",
    "TypeCheckCase",
    "TypeCheckReport",
    # detour families
    "MAX_REGIONS",
    "FamilyError",
    "Route",
    "SwitchRegion",
    "DetourFamily",
    "parse_family",
    "serialize_family",
    "delta_g",
    "goussarov_difference",
    "goussarov_type_check",
    "encode_crossing_as_detours",
    "switch_family",
    "encode_singular_as_bracelet",
    "Theorem1Result",
    "theorem1_identity_check",
    # chord diagrams
    "MAX_DEGREE",
    "ChordDiagram",
    "enumerate_diagrams",
    "RelationSet",
    "generate_4t",
    "generate_fi",
    "WeightSpaceReport",
    "dim_a",
    # bracelets
    "BraceletError",
    "CyclicLink",
    "HopfPairBracelet",
    "realize_as_link",
    "detect_hopf_pairs",
    "odd_degree_empty",
    # tables and suites
    "TableError",
    "bundled_table",
    "bundled_names",
    "bundled_suite_path",
    "resolve_diagram_ref",
    "SuiteCase",
    "load_suite",
]
