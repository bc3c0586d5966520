import tdx

# perfbench/tracing.py rebuilds each command from these stage functions, looked
# up by name; a missing one silently turns its per-layer metrics into absent stages.
TRACED_STAGES = (
    "conform_instance", "is_complete", "normalize_instance",
    "st_round_concrete", "tkc_round_concrete", "st_round_abstract", "tkc_round_abstract",
    "naive_eval", "sem_instance", "find_abstract_hom", "answers_to_instance",
    "dumps_instance", "instance_to_json", "max_finite_endpoint", "Failure",
)
TRACED_CLI = ("_failure_text", "run_cli")


def test_traced_stage_functions_exist():
    missing = [name for name in TRACED_STAGES if not callable(getattr(tdx, name, None))]
    missing += [f"cli.{name}" for name in TRACED_CLI if not callable(getattr(tdx.cli, name, None))]
    assert missing == []
