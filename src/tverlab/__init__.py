"""tverlab: exact-arithmetic workbench for tolerant Tverberg partitions.

Everything is computed over arbitrary-precision rationals with replayable
certificates: orientation predicates and moment-curve order types, cyclic
polytope facets by Gale evenness, hull-intersection feasibility by exact
phase-1 simplex, partition tolerance, and certified counterexample search
for the alternating threshold c(d,r).
"""

from .errors import (
    DegenerateInputError,
    InputError,
    InternalError,
    ParseError,
    ResourceGuardError,
)
from .kernel import (
    Hyperplane,
    Point,
    PointSet,
    Rational,
    as_point,
    orientation,
    orientation_signs,
    to_rational,
)
from .ordertype import (
    HomogeneityResult,
    MomentSpec,
    gale_facets,
    homogeneity_witness,
    is_neighborly,
    is_order_homogeneous,
    moment_points,
    path_crossings,
)
from .feasibility import (
    EmptyBlockCertificate,
    FarkasCertificate,
    Witness,
    hulls_common_point,
    intervals_common_point,
    verify_outcome,
)
from .labels import Partition, alternating_partition, iter_partitions
from .tolerance import (
    SandwichReport,
    ToleranceReport,
    alternating_bound,
    alternating_bound_even,
    check_tolerance_sandwich,
    partition_tolerance,
    set_tolerance,
    tolerance_upper_bound,
)
from .search import (
    Counterexample,
    NoneFound,
    SearchStrategy,
    check_growth_inequality,
    find_counterexample,
    n_line,
    n_line_formula,
    scan_c_lower,
    sixteen_point_alphas,
    t_line,
    verified_sixteen_point_example,
)
from .pointset_io import (
    ReportRecord,
    emit_pointset,
    format_rational,
    load_records,
    outcome_payload,
    parse_pointset,
    parse_rational,
    replay_payload,
    replay_record,
)

__version__ = "0.1.0"
