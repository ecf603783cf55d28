"""Stability analysis for nearest-center clustering partitions under perturbation.

The package exports exactly the names its library modules list in their own ``__all__``; a new public
name goes into its module's ``__all__`` only. ``cli`` and ``formats`` stay out of this namespace.
"""

from . import counterexamples, dynamics, errors, geometry, partitions, presets, stability, stochastic
from .counterexamples import *
from .dynamics import *
from .errors import *
from .geometry import *
from .partitions import *
from .presets import *
from .stability import *
from .stochastic import *

__version__ = "0.1.0"

__all__ = []
__all__ += counterexamples.__all__
__all__ += dynamics.__all__
__all__ += errors.__all__
__all__ += geometry.__all__
__all__ += partitions.__all__
__all__ += presets.__all__
__all__ += stability.__all__
__all__ += stochastic.__all__
