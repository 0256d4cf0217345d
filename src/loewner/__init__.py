"""Evolution families of the unit disk with prescribed boundary regular
fixed points: field construction, Loewner-Kufarev integration, and the
boundary inequality verification suite."""

__version__ = "0.1.0"

from .boundary import (
    AngularDerivativeEstimate,
    angular_derivative,
    check_arc_length,
    check_julia,
    dilation_curve,
)
from .disk import (
    BoundaryPoint,
    CayleyMap,
    pseudo_hyperbolic_distance,
)
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    LoewnerError,
    NotTangentError,
    PoleError,
    ValidationError,
)
from .generators import (
    BerksonPortaField,
    CorollaryField,
    FieldSpec,
    ReciprocalField,
    field_from_dict,
)
from .integrate import (
    EvolutionEvaluator,
    SolverStats,
    ToleranceSettings,
    collect_stats,
    evolution_map,
    evolve,
    evolve_at,
    evolve_on_circle,
    rk4_oracle,
)
from .measures import (
    AtomicCircleMeasure,
    CircleAtom,
    MeasureSchedule,
    ScheduleSegment,
    circle_measure,
)
