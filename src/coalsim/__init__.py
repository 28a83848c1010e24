"""Coalescing balls-into-boxes processes: exact kernels, seeded Monte Carlo,
deterministic envelopes, tail bounds, and desk-scale experiments.  The
package namespace holds every name in its modules' __all__ lists."""

from . import asymptotics, distributions, dynamics, exact_chain, simulate, tail_bounds, variational
from .distributions import *
from .dynamics import *
from .exact_chain import *
from .simulate import *
from .tail_bounds import *
from .variational import *
from .asymptotics import *

_MODULES = (distributions, dynamics, exact_chain, simulate, tail_bounds, variational, asymptotics)
__all__ = [name for module in _MODULES for name in module.__all__]
__version__ = "0.1.0"
