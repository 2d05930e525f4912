"""Multigraded free resolutions of monomial ideals over exact
rationals, and the multiplicative structures they carry."""

from .betti import BettiTable, betti_table, betti_table_direct, check_subadditivity, t_vector
from .complexes import (
    Element,
    FreeComplex,
    algebraic_scarf,
    is_minimal,
    is_resolution,
    lyubeznik,
    scarf_complex,
    taylor_complex,
)
from .homotopy import contracting_homotopy, laurent_dga, scaled_dga
from .ideals import MonomialIdeal, is_strongly_generic, minimal_generators, polarize, scale_ideal
from .lattices import atom_isomorphism, atom_sets, lcm_lattice
from .minimize import minimal_resolution, minimize
from .morse import cone_morse_matching, ideal_from_cone_complex, morse_quotient, verify_morse_matching
from .multiplication import (
    Multiplication,
    check_dga_axioms,
    gauge_equivalent,
    is_supportive,
    taylor_multiplication,
    transfer_multiplication,
)
from .simplicial import SimplicialComplex, f_vector, is_cone_fvector, kruskal_katona_check
from .solve import forced_products, leibniz_solution_space
from .structure import (
    avramov_obstruction,
    degree_one_generation,
    hilbert_cone_check,
    relabel,
    scarf_product_check,
    supportive_multiplication,
    taylor_algebra_map,
)

__version__ = "0.1.0"
