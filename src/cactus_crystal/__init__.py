"""Cactus group actions on tensor products of crystals.

Subpackages cover Cartan data, crystal graphs and tensor products, the
Schutzenberger commutor, cactus group variants and their defining relations,
actions on labelled products, tableau combinatorics through RSK, and
concrete coboundary category data with its operadic covering counterpart.
"""

__version__ = "0.1.0"


class CactusError(ValueError):
    """Base of every layer's bad-input error; the CLI maps it to exit 2."""
