"""Sequential detection of signal streams with coupled parameters."""

from .engine import Decision, TestKind, Thresholds
from .errors import CapacityError, ConfigError, DomainError, SeqDetectError
from .geometry import (
    InfoConstants,
    assignment_kl,
    info_constants,
    kl_to_region,
    lower_bound,
    phi,
)
from .models import (
    Family,
    JointParameter,
    ParameterSpace,
    Region,
    StreamModel,
)
from .montecarlo import (
    ExperimentConfig,
    Summary,
    derive_trial_seed,
    run_experiment,
    thresholds_from_levels,
)

__version__ = "0.1.0"
