"""baselkit: exact Bernoulli/Genocchi arithmetic, even zeta values, and
verified evaluation of the log-singular integrals behind the Basel problem."""

from . import exact
from .exact import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, "__version__"]
