"""Exact-arithmetic blow-up Whitney forms on simplices and triangulations."""

__version__ = "0.1.0"

from .flagcomb import ArrivalSequence, Flag, enumerate_arrival_sequences, enumerate_flags
from .symexpr import (
    DivergentLimit,
    Poly,
    RationalFn,
    RationalForm,
    exterior_derivative,
    flag_limit,
    wedge,
)
from .shadow import (
    ShadowBasisElement,
    basis_element,
    d_decomposition,
    gram_matrix,
    omega_form,
    poisson_probability,
    reduce_dimension,
    shadow_basis,
    whitney_containment,
    whitney_form,
)
from .dof import dof_evaluate, integrate_monomial_simplex, restrict_to_theta
from .blowcx import betti_numbers, build_blowup_complex
from .mesh import (
    GluingRule,
    Triangulation,
    assemble,
    global_cohomology,
    global_flags,
    load_mesh,
    simplicial_cohomology,
)
from .hiord import (
    HigherBasisCandidate,
    enumerate_experiments,
    face_vanishing_check,
    independence_rank,
    pr_containment,
    r1_reduction_check,
)
from .mcoracle import Estimate, SimulationConfig, estimate_face_integral, estimate_higher, estimate_pF
