"""Exact-arithmetic toolkit for formal delta calculus, vertex Lie algebra
structures, their vacuum modules, and the associated Poisson algebras."""

from .formal_calc import (
    BiSeriesWindow,
    DeltaSeries,
    LaurentPoly,
    decompose,
    delta_window,
    gen_binomial,
    mul_power_diff,
    render,
    swap_side,
)
from .lie_core import BilinearForm, FiniteLieAlgebra, check_invariance, check_lie_axioms, sym_poisson
from .vertex_lie import (
    CommAlgebra,
    VLStructure,
    affine,
    b3_criterion,
    heisenberg,
    loop,
    novikov,
    verify_po_relations,
    virasoro,
    witt,
)
from .vacuum_module import VacuumModule
from .poisson_c2 import (
    PoissonPresentation,
    VPDiffAlgebra,
    c2_reduce,
    p2_bracket,
    p2_product,
    p2_structure,
    pvpa_quotient,
    verify_p2_iso,
)
from .lattice_c2 import (
    EvenLattice,
    PLAlgebra,
    bk_compare,
    build_cocycle,
    build_pl_algebra,
    detect_indefinite,
    enumerate_c2,
)

__version__ = "0.1.0"
