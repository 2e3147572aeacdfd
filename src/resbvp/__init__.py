"""resbvp: operator toolkit for resonant fractional three-point BVPs.

Numerical machinery for boundary value problems

    D^alpha x = f(t, x, D^(alpha-1) x),   1 < alpha <= 2,  t in [0, 1],
    I^(2-alpha) x(0) = 0,                 x(1) = A x(xi),

at resonance (I - xi^(alpha-1) A singular), on finite truncations:
Riemann-Liouville calculus on uniform grids, the pseudoinverse splitting
of the boundary operator, projection-scheme identities, existence
condition checkers, and a damped fixed-point solver.

Each layer's ``__all__`` is the package's export list for that layer.
"""

from . import conditions, fracops, linops, problems, resonance, solver
from .conditions import *  # noqa: F403
from .fracops import *  # noqa: F403
from .linops import *  # noqa: F403
from .problems import *  # noqa: F403
from .resonance import *  # noqa: F403
from .solver import *  # noqa: F403

__all__ = [
    *conditions.__all__,
    *fracops.__all__,
    *linops.__all__,
    *problems.__all__,
    *resonance.__all__,
    *solver.__all__,
]

__version__ = "0.1.0"
