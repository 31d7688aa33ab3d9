"""Narrow-band photon pair sources with focused Gaussian beams.

Absolute pair and singles rates, heralding efficiencies and temporal
correlations of a filtered down-conversion source, computed from classical
nonlinear conversion efficiencies of the reverse processes. The focusing
geometry enters through one dimensionless integral (upsilon); the spatial
collection losses through a Laguerre-Gauss mode decomposition of the
generated field.

The top level re-exports each submodule's ``__all__``.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = ["__version__"]
for _name in (
    "classical",
    "config",
    "filters",
    "materials",
    "modebasis",
    "optimizer",
    "overlap",
    "quadrature",
    "quantities",
    "quantum",
    "validation",
):
    _module = import_module(f".{_name}", __name__)
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _name, _module, import_module
