"""Exact decomposition-number arithmetic from integral link data.

The pipeline in one breath: integer matrix reduction (intmat) presents
weight-mod-root lattices of Dynkin types (rootsys); their torsion,
tracked as modules over a complete DVR (omodule) with small symmetry
actions (modrep), feeds the stalk calculus of cone singularities
(perverse); tables and cli wrap the standard grids.
"""

from .intmat import (
    FinAbGroup,
    LatticeError,
    SnfResult,
    cokernel,
    determinant,
    induced_endomorphism,
    smith_normal_form,
)
from .omodule import (
    DegreeWindowError,
    FGraded,
    GradedOModule,
    OModule,
    degree_window,
    poincare_dual,
    reduce_graded,
    truncate_F,
)
from .rootsys import (
    DynkinDiagram,
    FoldingDatum,
    RootSystemData,
    cartan_matrix,
    folding,
    fundamental_group,
    generate_roots,
    long_root_subsystem,
    root_system,
    symmetry_action_on_fundamental_group,
)
from .modrep import (
    EquivariantAbGroup,
    ModularRep,
    composition_multiplicities,
    irreducible_labels,
    reduce_mod_l,
)
from .perverse import (
    ConeData,
    ConeError,
    DecompositionReport,
    ExtensionFlavor,
    FLAVOR_CHAIN,
    LinkEntry,
    decomposition_number,
    equivariant_decomposition,
    extension_stalk,
    f_extension_stalk,
    link_cohomology_minimal,
    link_cohomology_simple,
    localize_stalk,
    subregular_cone,
)

__version__ = "0.1.0"

__all__ = [
    "FinAbGroup", "LatticeError", "SnfResult", "cokernel", "determinant",
    "induced_endomorphism", "smith_normal_form",
    "DegreeWindowError", "FGraded", "GradedOModule", "OModule",
    "degree_window", "poincare_dual", "reduce_graded", "truncate_F",
    "DynkinDiagram", "FoldingDatum", "RootSystemData", "cartan_matrix",
    "folding", "fundamental_group", "generate_roots", "long_root_subsystem",
    "root_system", "symmetry_action_on_fundamental_group",
    "EquivariantAbGroup", "ModularRep", "composition_multiplicities",
    "irreducible_labels", "reduce_mod_l",
    "ConeData", "ConeError", "DecompositionReport", "ExtensionFlavor",
    "FLAVOR_CHAIN", "LinkEntry", "decomposition_number",
    "equivariant_decomposition", "extension_stalk", "f_extension_stalk",
    "link_cohomology_minimal", "link_cohomology_simple", "localize_stalk",
    "subregular_cone",
    "__version__",
]
