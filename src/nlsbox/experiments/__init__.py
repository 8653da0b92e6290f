"""Configured studies, their reports, and the command line front end."""

from .config import *
from .corpus import *
from .reports import *
from .studies import *

__all__ = []
__all__ += config.__all__
__all__ += corpus.__all__
__all__ += reports.__all__
__all__ += studies.__all__
