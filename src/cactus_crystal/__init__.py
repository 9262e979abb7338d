"""Cactus group actions on tensor products of crystals.

Subpackages cover Cartan data, crystal graphs and tensor products, the
Schutzenberger commutor, cactus group variants and their defining relations,
actions on labelled products, tableau combinatorics through RSK, and
concrete coboundary category data with its operadic covering counterpart.
"""

import math
import os

__version__ = "0.1.0"

MAX_POINTS_ENV = "CACTUS_CRYSTAL_MAX_POINTS"
DEFAULT_MAX_POINTS = 10 ** 6


class CactusError(ValueError):
    """Base of every layer's bad-input error; the CLI maps it to exit 2."""


# stores a field of a Frozen value, which refuses plain assignment
setfield = object.__setattr__


def fields_repr(obj, names):
    """The dataclass-style text Class(name=value, ...) of obj."""
    return "%s(%s)" % (type(obj).__qualname__, ", ".join(
        "%s=%r" % (name, getattr(obj, name)) for name in names))


class Frozen:
    """Base of the immutable value classes.  A subclass lists its fields in
    __slots__ and its __init__ stores them with setfield, then their tuple
    as _key.  Values are equal when their classes and keys are and hash by
    the key; slots named with a leading underscore stay out of the repr."""

    __slots__ = ("_key",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __repr__(self):
        return fields_repr(self, [n for n in self.__slots__ if n[0] != "_"])


class Memo(dict):
    """The values of f, each computed on the first lookup of its key."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, key):
        self[key] = value = self.f(key)
        return value


def point_budget(error=CactusError):
    """The budget CACTUS_CRYSTAL_MAX_POINTS sets; a bad value raises error."""
    raw = os.environ.get(MAX_POINTS_ENV, str(DEFAULT_MAX_POINTS))
    try:
        budget = int(raw) if raw.strip().isdecimal() else 0
    except ValueError:  # more digits than int() reads
        raise error("%s has %d digits, more than Python reads"
                    % (MAX_POINTS_ENV, len(raw.strip()))) from None
    if budget <= 0:
        raise error("%s must be a positive integer, not %r"
                    % (MAX_POINTS_ENV, raw))
    return budget


def clear_caches():
    """Empty every module-level cache; later calls rebuild what they need."""
    from . import commutor, crystal, groups
    for f in (crystal.build_irreducible, crystal.product_of_weights,
              commutor.reversal_table, commutor.commutor_table,
              groups._check_generator):
        f.cache_clear()


def check_budget(total, what, budget=None, error=CactusError):
    """Raise error if what, of total points, is over the budget."""
    budget = point_budget(error) if budget is None else budget
    if total > budget:
        try:
            count = "%d" % total
        except ValueError:  # more digits than Python turns into a string
            k = int(math.log10(total))
            count = "more than 10^%d" % (k if 10 ** k < total else k - 1)
        raise error("%s has %s points, over the budget of %d; raise %s to "
                    "override" % (what, count, budget, MAX_POINTS_ENV))
