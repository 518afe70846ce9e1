"""Adaptive vision/keyword fusion and report generation, desk scale.

Everything runs on a small numpy-backed tensor engine with reverse-mode
autodiff so each component's gradients are checkable by finite differences.
"""

from .config import ModelConfig, TrainConfig, ConfigError
from .model import ReportModel, LossReport
from .tensor import Tensor, grad_check

__all__ = [
    "ModelConfig",
    "TrainConfig",
    "ConfigError",
    "ReportModel",
    "LossReport",
    "Tensor",
    "grad_check",
]

__version__ = "0.1.0"
