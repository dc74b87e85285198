"""Two-way replacement selection: the paper's core contribution."""

from typing import Any

#: Public names and the modules that define them, imported on first
#: use (see :mod:`repro.engine`).
_LAZY = {
    "AdaptiveInput": "repro.core.adaptive",
    "Trend": "repro.core.adaptive",
    "classify_trend": "repro.core.adaptive",
    "recommend_config": "repro.core.adaptive",
    "BUFFER_FRACTIONS": "repro.core.config",
    "BUFFER_SETUPS": "repro.core.config",
    "RECOMMENDED": "repro.core.config",
    "TABLE_5_13_CONFIGS": "repro.core.config",
    "TwoWayConfig": "repro.core.config",
    "INPUT_HEURISTICS": "repro.core.heuristics",
    "OUTPUT_HEURISTICS": "repro.core.heuristics",
    "HeuristicContext": "repro.core.heuristics",
    "InputHeuristic": "repro.core.heuristics",
    "OutputHeuristic": "repro.core.heuristics",
    "Side": "repro.core.heuristics",
    "make_input_heuristic": "repro.core.heuristics",
    "make_output_heuristic": "repro.core.heuristics",
    "InputBuffer": "repro.core.input_buffer",
    "FLOAT": "repro.core.records",
    "FORMAT_NAMES": "repro.core.records",
    "INT": "repro.core.records",
    "STR": "repro.core.records",
    "CallableFormat": "repro.core.records",
    "DelimitedFormat": "repro.core.records",
    "RecordFormat": "repro.core.records",
    "resolve_format": "repro.core.records",
    "RunStreams": "repro.core.streams",
    "TwoWayReplacementSelection": "repro.core.two_way",
    "VictimBuffer": "repro.core.victim_buffer",
    "VictimPhase": "repro.core.victim_buffer",
    "largest_gap": "repro.core.victim_buffer",
}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdaptiveInput",
    "BUFFER_FRACTIONS",
    "BUFFER_SETUPS",
    "CallableFormat",
    "DelimitedFormat",
    "FLOAT",
    "FORMAT_NAMES",
    "INT",
    "RecordFormat",
    "STR",
    "resolve_format",
    "HeuristicContext",
    "INPUT_HEURISTICS",
    "InputBuffer",
    "InputHeuristic",
    "OUTPUT_HEURISTICS",
    "OutputHeuristic",
    "RECOMMENDED",
    "RunStreams",
    "Side",
    "TABLE_5_13_CONFIGS",
    "TwoWayConfig",
    "Trend",
    "TwoWayReplacementSelection",
    "VictimBuffer",
    "VictimPhase",
    "classify_trend",
    "largest_gap",
    "make_input_heuristic",
    "recommend_config",
    "make_output_heuristic",
]
