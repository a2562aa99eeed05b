"""Exact closure-theoretic computations for monomial and polynomial ideals.

The library computes, over arbitrary-precision rationals: Newton polyhedra
and Rees valuations of monomial ideals, integral closures and the ideal of
elements strictly above every bounded facet, certificates of weak
subintegrality and their branched-cover geometry, reductions, cores and
multiplicities, and the relative-closure test of an ideal's own pair along
arc pairs, with a sampling refuter.  Everything is deterministic and
immutable, hence thread-safe.
"""

from .arcs import (
    ArcPair,
    ArcSampler,
    LocalArc,
    Refutation,
    arc_pair_stream,
    ideal_pair_membership,
    pullback,
    pullback_order,
    refute_star_membership,
)
from .closure import (
    i_greater,
    in_i_greater,
    in_integral_closure,
    integral_closure,
    vbar,
)
from .cover import (
    MonicHypersurface,
    deep_roots,
    from_rrs,
    graph_on_deep_locus,
    root_multiplicity,
    unique_deep_root_check,
    zz_membership,
)
from .errors import (
    BudgetExceeded,
    ClosureError,
    DimensionMismatch,
    ParseError,
    PreconditionError,
    UnsupportedIdeal,
)
from .examples import ExamplesReport, run_worked_examples
from .ideals import MonomialIdeal, PolyIdeal, ord_in
from .newton import (
    Facet,
    NewtonPolyhedron,
    ReesValuation,
    newton_polyhedron,
    rees_valuations,
)
from .parser import Request, parse, parse_ideal_text, parse_poly_text
from .poly import SparsePoly
from .reductions import (
    ReductionsClass,
    StarOfReduction,
    TruncatedQuotient,
    classify_reductions,
    colength_poly,
    core_via_colon,
    dim_i_mod_igt,
    intersect_star_two,
    is_reduction_monomial,
    is_reduction_parameter,
    multiplicity,
    star_of_min_reduction,
)
from .rrs import (
    RRSSystem,
    bounded_search,
    construct_from_igt,
    derivative_chain_check,
    search_at,
    verify,
    verify_failure,
    window_equations,
)

__version__ = "0.1.0"
