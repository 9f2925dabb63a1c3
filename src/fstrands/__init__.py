"""Strand-diagram calculus for Thompson's group F.

Split/merge strand diagrams and their reduction groupoid, elementary
forests and weighted generalized diagrams, the cube complex of split
chains on (1,n) diagrams, exact piecewise-linear homeomorphisms of
[0,1], and configuration tuples on the line together with the map that
sends a weighted diagram to the positions of its strands.
"""

from .diagrams import (
    M,
    S,
    SliceWord,
    StrandDiagram,
    canonical_encoding,
    equivalent,
    from_slices,
    identity,
    invert,
    is_reduced,
    multiply,
    reduce,
)
from .errors import (
    CompositionError,
    DomainError,
    FormatError,
    InvariantViolation,
    SliceWordError,
)
from .forests import (
    EDGE,
    ElementaryForest,
    GeneralizedStrandDiagram,
    WeightedElementaryForest,
    canonicalize_generalized,
    random_gmove,
)
from .thompson import (
    X0,
    X1,
    FElement,
    PLMap,
    TreePair,
    diagram_to_tree_pair,
    from_word,
    pl_compose,
    pl_eq,
    pl_eval,
    to_pl,
    tree_pair_to_diagram,
)
from .cubes import (
    BallGraph,
    ComplexVertex,
    Cube,
    OrbitKey,
    ball,
    cube_from_forest,
    cubes_at,
    elementary_forests_at,
    holonomy,
    left_act,
    leq,
    orbit_key,
    parameterize,
    trivial_vertex,
    upper_bound,
)
from .configspace import (
    canonicalize_cf,
    config_map,
    df_section,
    expand,
    is_in_cf,
    is_in_df,
    key_config,
    retract,
    retract_path,
)

__all__ = [
    "M", "S", "SliceWord", "StrandDiagram", "canonical_encoding", "equivalent",
    "from_slices", "identity", "invert", "is_reduced", "multiply", "reduce",
    "CompositionError", "DomainError", "FormatError", "InvariantViolation",
    "SliceWordError",
    "EDGE", "ElementaryForest", "GeneralizedStrandDiagram",
    "WeightedElementaryForest", "canonicalize_generalized", "random_gmove",
    "X0", "X1", "FElement", "PLMap", "TreePair", "diagram_to_tree_pair",
    "from_word", "pl_compose", "pl_eq", "pl_eval", "to_pl",
    "tree_pair_to_diagram",
    "BallGraph", "ComplexVertex", "Cube", "OrbitKey", "ball",
    "cube_from_forest", "cubes_at", "elementary_forests_at", "holonomy",
    "left_act", "leq", "orbit_key", "parameterize", "trivial_vertex",
    "upper_bound",
    "canonicalize_cf", "config_map", "df_section", "expand", "is_in_cf",
    "is_in_df", "key_config", "retract", "retract_path",
]
__version__ = "0.1.0"
