"""Pseudospectral defocusing NLS on a periodic box, with a toolkit of
frequency multipliers, norm diagnostics, and almost-conservation
measurements for frequency-truncated energies."""

from .errors import *
from .spectral import *
from .multipliers import *
from .dynamics import *
from .norms import *
from .imethod import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += spectral.__all__
__all__ += multipliers.__all__
__all__ += dynamics.__all__
__all__ += norms.__all__
__all__ += imethod.__all__
