"""slicegraph: banded distance-weighted graphs over axial slice
sequences, Chebyshev spectral filtering, and a compact multi-label
training/evaluation harness with its own exact gradients.

The package root exports nothing; import from the submodules.
"""

__version__ = "0.1.0"
