"""Block designs, intersection profiles, the friendship relation, friendly
families with their partial order, and power-set classification."""

from .blocks import (
    as_mask,
    format_block,
    full_mask,
    labels_from_mask,
    mask_from_labels,
    subsets_of_size,
)
from .designs import (
    BlockDesign,
    DesignError,
    DesignParams,
    admissible,
    complement_design,
    design,
    detect_design,
    empty_design,
    family,
    full_design,
    whole_design,
)
from .files import DesignFileError, load_design, load_family, save_design
from .profiles import (
    IntersectionProfile,
    check_moment_identities,
    full_design_self_profile,
    penultimate_full_profiles,
    profile,
    self_friend_case,
    theoretical_self_profile,
)
from .friendship import (
    FriendshipVerdict,
    ProfileMismatch,
    are_friends,
    check_count_identity,
    complement_transfer,
    is_self_friend,
    transitivity_counterexample,
)
from .families import (
    FriendlyFamily,
    NotFriendsError,
    OrderRelation,
    alpha,
    build_family,
    check_alpha_hypotheses,
    check_order_preservation,
    export_hasse,
    less_than,
    order_relation,
    transitive_reduction,
)
from .classify import (
    LevelReport,
    SubsetClass,
    Subdivision,
    SubdivisionReport,
    analyze,
    analyze_level,
    classify_all,
    classify_level,
    theorem_k3_classes,
    theorem_k4_classes,
)
from .fields import FieldError, FieldTables, format_field_tables, load_field_tables, prime_field, verify_field
from .planes import projective_plane
from .catalog import (
    CatalogEntry,
    catalog,
    catalog_design,
    fano,
    fano_complement,
    fano_family,
    fano_family_members,
    nine_point_design,
    non_fano_quads,
    non_fano_triples,
    sts13_s1,
    sts13_s2,
)

__version__ = "0.1.0"
