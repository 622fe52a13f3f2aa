"""Result analysis: report generation."""

from .report import build_report, result_to_markdown, run_experiments

__all__ = ["build_report", "result_to_markdown", "run_experiments"]
