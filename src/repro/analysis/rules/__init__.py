"""Concrete rules, one module per layer; importing them registers them."""

from repro.analysis.rules import config_rules, layout_rules, program_rules

__all__ = ["config_rules", "layout_rules", "program_rules"]
