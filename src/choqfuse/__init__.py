"""choqfuse: score-level decision fusion with Choquet integrals.

Builds Sugeno lambda-fuzzy measures from singleton densities, fuses
per-matcher similarity scores with the Choquet integral (or classical
rules: mean, product, min, max, weighted sum, AND/OR/majority vote),
evaluates fused scores with FAR/FRR curves and the equal error rate,
and learns the measure densities with a real-coded genetic algorithm
that minimizes EER on labeled client/impostor data.
"""

from . import aggregate, data, ga, measures, metrics
from .aggregate import *
from .data import *
from .ga import *
from .measures import *
from .metrics import *

__version__ = "0.1.0"

__all__ = aggregate.__all__ + data.__all__ + ga.__all__ + measures.__all__ + metrics.__all__
