"""Orbit structure of type A quiver representation spaces.

Exact linear algebra over Q and prime fields, interval rank arrays and
Krull-Schmidt multiplicities, the embedding into an opposite Schubert cell
with its block rank matrices and block permutations, degeneration posets,
reduction of arbitrary orientations to the bipartite case, and a
brute-force oracle for small instances.
"""

from .errors import (
    FieldMismatchError,
    GuardExceededError,
    InputError,
    InternalCheckError,
    InvalidBlockRankError,
    NotARankArrayError,
    NotInOpenLocusError,
    QlociError,
    ShapeError,
    SingularMatrixError,
)
from .fields import DEFAULT_SAMPLING_PRIME, Field, GF2, GF3, PrimeField, QQ, field_from_tag
from .matrices import ExactMatrix, assemble_blocks
from .quiver import (
    BipartiteQuiver,
    DimensionVector,
    Interval,
    TypeAQuiver,
    d_x,
    d_y,
    interval_join,
    interval_meet,
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
    validate_rank_array,
    zero_rep,
)
from .zelevinsky import (
    BlockLayout,
    BlockRankMatrix,
    MinorSpec,
    ZelevinskyCellMatrix,
    block_rank_numeric,
    block_rank_symbolic,
    cell_matrix_from_star,
    defining_minor_specs,
    layout_for,
    recover_rank_array,
    snake_matrix,
    zelevinsky_map,
)
from .perms import (
    BlockSpec,
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
    open_locus_poset,
    project,
    project_group,
    rank_array_arbitrary,
)
from .oracle import (
    OrbitCensus,
    brute_orbit_partition,
    bruhat_via_covers,
    enumerate_reps,
    gl_elements,
    orbit_partition,
    verify_rank_determines_orbit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
