"""Cactus group actions on tensor products of crystals.

Subpackages cover Cartan data, crystal graphs and tensor products, the
Schutzenberger commutor, cactus group variants and their defining relations,
actions on labelled products, tableau combinatorics through RSK, and
concrete coboundary category data with its operadic covering counterpart.
"""

import os

__version__ = "0.1.0"

MAX_POINTS_ENV = "CACTUS_CRYSTAL_MAX_POINTS"
DEFAULT_MAX_POINTS = 10 ** 6


class CactusError(ValueError):
    """Base of every layer's bad-input error; the CLI maps it to exit 2."""


def point_budget(error=CactusError):
    """The budget CACTUS_CRYSTAL_MAX_POINTS sets; a bad value raises error."""
    raw = os.environ.get(MAX_POINTS_ENV, str(DEFAULT_MAX_POINTS))
    if not raw.strip().isdecimal() or int(raw) <= 0:
        raise error("%s must be a positive integer, not %r"
                    % (MAX_POINTS_ENV, raw))
    return int(raw)


def clear_caches():
    """Empty every module-level cache; later calls rebuild what they need."""
    from . import cartan, commutor, crystal, groups
    for f in (crystal.build_irreducible, crystal.product_of_weights,
              commutor.reversal_table, commutor.commutor_table, cartan.star,
              cartan.weyl_elements, cartan.longest_element,
              groups._check_generator):
        f.cache_clear()


def check_budget(total, what, budget=None, error=CactusError):
    """Raise error if what, of total points, is over the budget."""
    budget = point_budget(error) if budget is None else budget
    if total > budget:
        raise error("%s has %d points, over the budget of %d; raise %s to "
                    "override" % (what, total, budget, MAX_POINTS_ENV))
