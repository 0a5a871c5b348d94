"""Evaluation: BIRD-style Execution Accuracy and R-VES, workload runners
and table formatting for the benchmark harness."""

from repro.evaluation.metrics import (
    ExampleScore,
    execution_accuracy,
    r_ves,
    r_ves_reward,
    score_example,
    ves,
)
from repro.evaluation.analysis import ErrorBreakdown, analyze_failures
from repro.evaluation.runner import (
    EvalReport,
    ResumeRefusedError,
    assemble_report,
    evaluate_pipeline,
    evaluate_system,
)
from repro.evaluation.report import format_table

__all__ = [
    "EvalReport",
    "ExampleScore",
    "ResumeRefusedError",
    "assemble_report",
    "evaluate_pipeline",
    "evaluate_system",
    "execution_accuracy",
    "format_table",
    "r_ves",
    "r_ves_reward",
    "score_example",
    "ves",
    "ErrorBreakdown",
    "analyze_failures",
]
