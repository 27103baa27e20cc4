"""Orbit structure of type A quiver representation spaces.

Exact linear algebra over Q and prime fields, interval rank arrays and
Krull-Schmidt multiplicities, the embedding into an opposite Schubert cell
with its block rank matrices and block permutations, degeneration posets,
reduction of arbitrary orientations to the bipartite case, and a
brute-force oracle for small instances.
"""

from types import ModuleType as _ModuleType

from .errors import (
    FieldMismatchError,
    GuardExceededError,
    InputError,
    InternalCheckError,
    NotARankArrayError,
    NotInOpenLocusError,
    QlociError,
    ShapeError,
    SingularMatrixError,
)
from .fields import DEFAULT_SAMPLING_PRIME, Field, GF2, GF3, PrimeField, QQ, field_from_tag
from .matrices import ExactMatrix
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    Interval,
    TypeAQuiver,
    d_x,
    d_y,
    interval_table,
)
from .reps import (
    LaceArray,
    RankArray,
    Representation,
    act,
    assemble_interval_matrix,
    direct_sum,
    indecomposable_rep,
    lace_to_rank,
    rank_array,
    rank_to_lace,
    rep_from_lace,
    zero_rep,
)
from .zelevinsky import (
    BlockLayout,
    BlockRankMatrix,
    ZelevinskyCellMatrix,
    block_rank_numeric,
    block_rank_symbolic,
    cell_matrix_from_star,
    layout_for,
    snake_matrix,
    zelevinsky_map,
)
from .perms import (
    Permutation,
    bruhat_leq,
    diagram,
    essential_set,
    inversion_length,
    is_block_minimal,
    length_from_blocks,
    w_of,
    zelevinsky_permutation,
)
from .poset import (
    DegenerationPoset,
    OrbitNode,
    build_poset,
    dense_orbit,
    enumerate_orbits,
    hasse,
    order_equivalence_report,
    poset_to_dot,
)
from .reduction import (
    ReductionContext,
    bipartite_double,
    lift_dimension,
    lift_rep,
    project,
    project_group,
    rank_array_arbitrary,
)
from .oracle import (
    OrbitCensus,
    brute_orbit_partition,
    bruhat_via_covers,
    gl_elements,
    orbit_partition,
    verify_rank_determines_orbit,
)

# the submodules stay package attributes, but only the names they define are exported
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
