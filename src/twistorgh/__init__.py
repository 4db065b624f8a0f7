"""Product twistor geometry over oriented Euclidean R^4 with Gray-Hervella class detection."""

from .classifier import ClassifierError, ClassReport, SamplingConfig, classify, verify_all
from .curvature import CurvatureError, SchemaError, compose, model, read_json, write_json

__all__ = [
    "classify", "SamplingConfig", "ClassReport", "verify_all",
    "model", "compose", "read_json", "write_json",
    "ClassifierError", "CurvatureError", "SchemaError",
]
__version__ = "0.1.0"
