"""Numerics for spaces carrying two norms at once.

The package models C^n equipped with an ambient norm and a weighted inner
product whose norm it dominates, and implements the operator calculus this
situation induces: plus-adjoints, proper norms, oblique projections with
prescribed range and kernel, canonical plus-self-adjoint projections with
quantitative compatibility margins, contour-integral spectral projections,
superoperator models of matrix spaces under the trace norm, and truncation
studies tracking how the margins behave as the dimension grows.
"""

from .errors import *  # noqa: F401,F403
from .space import *  # noqa: F401,F403
from .subspaces import *  # noqa: F401,F403
from .compat import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .schatten import *  # noqa: F401,F403
from .studies import *  # noqa: F401,F403

__version__ = "0.1.0"
