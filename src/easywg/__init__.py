"""Exact Weingarten integration over easy quantum groups and their
affine homogeneous spaces.

Everything exact is a fractions.Fraction; space moments are reported in
the rescaled coordinates sqrt(M) times the standard ones, so every value
is rational.
"""

from .characters import (
    BpRow,
    CharacterQuery,
    LimitLaw,
    ProfileRow,
    bp_compare,
    char_moment_asymptotic,
    char_moment_exact,
    convergence_profile,
    limit_law_moments,
)
from .exact_linalg import (
    GramMatrix,
    WeingartenMatrix,
    format_scalar,
    get_weingarten,
    gram_matrix,
    set_disk_cache,
    weingarten_matrix,
)
from .integrator import GroupSpec, IndexSet, MomentQuery, group_moment
from .oracles import (
    SampleReport,
    bell_number,
    catalan_number,
    counting_oracle,
    double_factorial_odd,
    haar_mc_moment,
    poisson_moments,
    sn_exhaustive_moment,
    sn_exhaustive_space_moment,
)
from .partitions import (
    CategoryId,
    Color,
    ColoredWord,
    SetPartition,
    as_category,
    as_word,
    enumerate_partitions,
)
from .spaces import (
    Relation,
    RelationCheck,
    SpaceSpec,
    VerificationReport,
    parse_space,
    preset,
    relation_set,
    space_moment,
    verify_relations,
)

__version__ = "0.1.0"
