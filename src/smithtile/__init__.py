"""Rectangle tilings of finite cylinders from weighted planar maps.

A doubly marked weighted planar map determines a harmonic voltage, a
conjugate width function on the dual, and from the pair a tiling of the
cylinder of circumference eta (the flow strength) by one rectangle per edge,
with aspect ratio equal to the conductance.  The modules hold that one
pipeline: maps, duals and refinement (``map_core``), the voltage and
conjugate solves (``electrical``), the tiling and its checks
(``smith_tiling``, whose ``tile`` is the voltage -> tiling stage and returns
a diagram that carries the voltage, dual and conjugate), the exact walk laws
that ``smith verify`` checks on the tiling (``walk_lab``), mated-CRT and
random test maps (``mated_crt``, ``mapgen``), and the comparison with an a
priori embedding on lattices (``convergence``).
"""

from .map_core import (CombMap, CylinderEmbedding, DualMap, MapError,
                       check_embedding, dual, insert_vertices)
from .electrical import (Conjugate, SolveError, Voltage, conjugate,
                         harmonic_darts, solve_voltage)
from .smith_tiling import (SmithDiagram, SmithEmbedding, TilingError,
                           TilingReport, build_diagram, reduce_mod, render_svg,
                           smith_embedding, tile, validate)
from .walk_lab import (HittingLaw, InadmissibleHeights, LevelMeasure,
                       LevelNotVertexed, StepBudgetExceeded, WalkTrace,
                       admissible_sequences, augment_all_levels,
                       conditional_hitting, exact_law_report,
                       expected_conditional_winding, level_measures,
                       level_sets, projected_step_law, realized_levels,
                       simulate)
from .mated_crt import (Excursion, MatedCrtMap, SampleError,
                        adjacency_oracle, excursion_from_increments,
                        mark_vertices, sample_excursion)
from .convergence import (AffineFit, InvarianceReport, converge_rows,
                          fit_affine, invariance_diagnostic, lattice_report,
                          make_lattice)
from .mapgen import random_map
from .rng import make_rng

__version__ = "0.1.0"

__all__ = [
    "CombMap", "CylinderEmbedding", "DualMap", "MapError",
    "check_embedding", "dual", "insert_vertices",
    "Conjugate", "SolveError", "Voltage", "conjugate", "harmonic_darts",
    "solve_voltage",
    "SmithDiagram", "SmithEmbedding", "TilingError", "TilingReport",
    "build_diagram", "reduce_mod", "render_svg",
    "smith_embedding", "tile", "validate",
    "HittingLaw", "InadmissibleHeights", "LevelMeasure", "LevelNotVertexed",
    "StepBudgetExceeded", "WalkTrace", "admissible_sequences",
    "augment_all_levels", "conditional_hitting", "exact_law_report",
    "expected_conditional_winding", "level_measures", "level_sets",
    "projected_step_law", "realized_levels", "simulate",
    "Excursion", "MatedCrtMap", "SampleError", "adjacency_oracle",
    "excursion_from_increments", "mark_vertices", "sample_excursion",
    "AffineFit", "InvarianceReport", "converge_rows", "fit_affine",
    "invariance_diagnostic", "lattice_report", "make_lattice",
    "random_map", "make_rng",
]
