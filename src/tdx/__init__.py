"""Temporal data exchange over concrete (interval) and abstract (time-point) views."""

from .errors import (
    InvalidHorizonError,
    KeyNullViolation,
    ParseError,
    PreconditionError,
    SchemaError,
    TdxError,
)
from .temporal import (
    INF,
    ClopenInterval,
    TimePoint,
    build_grid,
    interval_points,
    split_interval,
)
from .model import (
    ABSTRACT,
    CONCRETE,
    MAX_NORMALIZE_FRAGMENTS,
    MAX_SEM_FACTS,
    Fact,
    Instance,
    Null,
    RelationSchema,
    Value,
    Violation,
    conform_instance,
    dumps_instance,
    instance_from_json,
    instance_to_json,
    is_complete,
    is_null,
    loads_instance,
    max_finite_endpoint,
    normalize_instance,
    sem_instance,
    validate_instance,
)
from .mapping_lang import (
    Atom,
    Mapping,
    SttTgd,
    Tkc,
    Ucq,
    Var,
    parse_mapping,
    validate_mapping,
)
from .homomorphism import (
    AbstractHom,
    Binding,
    equivalent,
    find_abstract_hom,
)
from .chase import (
    ChaseOutcome,
    EqClosure,
    Failure,
    Success,
    chase,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    tkc_round_concrete,
)
from .query import (
    AnswerSet,
    NoSolution,
    answers_to_instance,
    certain,
    naive_eval,
)
from .cli import run_cli

__version__ = "0.1.0"
