"""povmsim: algebraic-structured measurement simulation at desk scale.

Quantum states and POVMs, classical-quantum auxiliary states, unionized coset
codes over prime fields, the distributed and point-to-point rate regions with
Fourier-Motzkin elimination, explicit construction of pruned structured
approximating POVMs with a faithfulness figure, and Monte-Carlo verification
of the pairwise-independent covering and pruning inequalities.
"""

from .linalg import (
    DensityOperator,
    PureState,
    Povm,
    partial_trace,
    psd_pinv_sqrt,
    psd_sqrt,
    purify,
    trace_norm,
    validate_povm,
    von_neumann_entropy,
)
from .cq import (
    CqState,
    StochasticMap,
    build_sigma1,
    build_sigma2,
    build_sigma3,
    build_sigma_p2p,
    compose,
    cq_mutual_information,
    entropy_of,
    measure_to_cq,
    regroup,
)
from .codes import (
    CodeEnsembleSpec,
    UccCode,
    pairwise_independence_check,
    sample_ensemble,
)
from .regions import (
    InfoQuantities,
    LinearInequality,
    RateRegion,
    check_separable_decomposition,
    check_sum_structure,
    fourier_motzkin_eliminate,
    gain_indicator,
    augmented_region,
    region_membership,
    surface_scan,
    distributed_region,
    point_to_point_region,
    unstructured_sum_constraint,
)
from .protocol import (
    ProtocolParams,
    assemble_overall,
    build_distributed_instance,
    build_instance,
    canonical_ensemble,
    cond_typical_projector,
    cut_post_state,
    faithfulness,
    typical_projector,
    typical_set,
)
from .lab import (
    CoveringInstance,
    check_covering_hypotheses,
    covering_experiment,
    pruning_inequality_experiment,
    sandwich_reduction_check,
)

__version__ = "0.1.0"
