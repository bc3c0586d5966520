from types import ModuleType

import tdx

# The names ``tdx`` exports, each a value, a type or a function that a command
# or a library caller uses.  A name is added here when it is exported, and
# taken out, as a declared API change, when it is retired.
SUPPORTED = (
    "ABSTRACT", "AbstractHom", "AnswerSet", "Atom", "Binding", "CONCRETE", "ChaseOutcome", "ClopenInterval",
    "EqClosure", "Fact", "Failure", "INF", "Instance", "InvalidHorizonError", "KeyNullViolation",
    "MAX_NORMALIZE_FRAGMENTS", "MAX_SEM_FACTS", "Mapping", "NoSolution", "Null", "ParseError",
    "PreconditionError", "RelationSchema", "SchemaError", "SttTgd", "Success", "TdxError", "TimePoint", "Tkc",
    "Ucq", "Value", "Var", "Violation", "answers_to_instance", "build_grid", "certain", "chase",
    "conform_instance", "dumps_instance", "equivalent", "find_abstract_hom", "instance_from_json",
    "instance_to_json", "interval_points", "is_complete", "is_null", "loads_instance", "max_finite_endpoint",
    "naive_eval", "normalize_instance", "parse_mapping", "run_cli", "sem_instance", "split_interval",
    "st_round_abstract", "st_round_concrete", "tkc_round_abstract", "tkc_round_concrete", "validate_instance",
    "validate_mapping",
)

# perfbench/tracing.py rebuilds each command from these stage functions, looked
# up by name; a missing one silently turns its per-layer metrics into absent stages.
TRACED_STAGES = (
    "conform_instance", "is_complete", "normalize_instance",
    "st_round_concrete", "tkc_round_concrete", "st_round_abstract", "tkc_round_abstract",
    "naive_eval", "sem_instance", "find_abstract_hom", "answers_to_instance",
    "dumps_instance", "instance_to_json", "max_finite_endpoint", "Failure",
)
TRACED_CLI = ("_failure_text", "run_cli")


def test_the_package_exports_the_supported_names():
    """Every name of ``tdx`` that is neither private nor a submodule (the
    function ``chase`` hides the module of that name)."""
    exported = {name for name, value in vars(tdx).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert sorted(exported) == sorted(SUPPORTED) and len(SUPPORTED) == 60


def test_traced_stage_functions_exist():
    missing = [name for name in TRACED_STAGES if not callable(getattr(tdx, name, None))]
    missing += [f"cli.{name}" for name in TRACED_CLI if not callable(getattr(tdx.cli, name, None))]
    assert missing == []
