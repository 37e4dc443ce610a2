"""Spectral radius and irregularity measures of r-uniform hypergraphs.

Build or generate an instance, solve for the adjacency-tensor spectral
radius, and check the irregularity measures and inequality suite::

    from hgirr import build, spectral_radius, analyze

    H = build(3, 5, [[1, 2, 3], [1, 4, 5]])
    result = spectral_radius(H)
    report = analyze(H)
"""

from . import constructions, core, hgr, irregularity, spectral
from .constructions import *
from .core import *
from .hgr import *
from .irregularity import *
from .spectral import *

__version__ = "0.1.0"

# Each module declares its public names in its own __all__.
__all__ = sorted(
    constructions.__all__ + core.__all__ + hgr.__all__ + irregularity.__all__ + spectral.__all__
)
