"""One-shot purity distillation toolkit.

Exact small-dimension implementations of one-shot entropies, randomized
measurement compression, and the distributed purity distillation protocols
built on them, with their rate and ancilla accounting.
"""

from .states import (  # noqa: F401
    CQState,
    DensityOperator,
    Povm,
    ProtocolTranscript,
    PureState,
    control_state,
    rank1_refine,
)
from .entropy import (  # noqa: F401
    EntropyResult,
    ImaxResult,
    d_h,
    d_h_many,
    h_h,
    h_h_cond_cq,
    h_max_smooth,
    h_min_cq,
    h_min_cq_smoothed,
    h_prime_max,
    h_tilde_max,
    i_max_cq,
)

__version__ = "0.1.0"
