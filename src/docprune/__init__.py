"""Content- and instruction-driven visual token pruning for document images.

A desk-scale, numpy-only model of a hierarchical windowed-attention
encoder whose compute is gated per token by content probabilities, plus
an instruction filtering stage, exact FLOP accounting, and a deterministic
benchmark pipeline around them.
"""

from .pipeline import (ConfigError, PipelineConfig, RunReport, run, sweep,
                       write_report)

__version__ = "0.1.0"

__all__ = ["ConfigError", "PipelineConfig", "RunReport", "run", "sweep",
           "write_report"]
