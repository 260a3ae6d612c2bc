"""Numerical laboratory for wave-packet revivals of coherent states.

Coherent states evolved under number-diagonal spectra (Kerr, harmonic,
square well) collapse, interfere, and reassemble; this package provides
the Fock-space numerics, the closed-form moment engine with its
truncated-matrix verification oracle, cat-state decompositions at
fractional revival times, angular-momentum moments of two-mode states,
space-time density carpets, and the classical analogs (pendulum waves,
Talbot self-imaging), plus a deterministic command-line front end.
"""

from .angular import *
from .carpets import *
from .classical import *
from .cli import *
from .fock import *
from .moments import *
from .ordering import *
from .spectra import *

__all__ = sorted(
    angular.__all__ + carpets.__all__ + classical.__all__ + cli.__all__
    + fock.__all__ + moments.__all__ + ordering.__all__ + spectra.__all__
)
