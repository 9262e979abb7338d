"""The Schutzenberger involution and the crystal commutor.

xi is pinned per component by sending the highest element to the lowest and
extending through xi(f_i b) = e_{i*}(xi b).  The commutor is

    sigma(b1 (x) b2) = xi( xi(b2) (x) xi(b1) )

and the longest interval of the cactus group reverses an m-fold product with
one xi per factor and one on the reversed product (Henriques-Kamnitzer):

    b_1 (x) .. (x) b_m  |->  xi( xi(b_m) (x) .. (x) xi(b_1) ).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import fields_repr
from .cartan import star
from .crystal import (
    CrystalError,
    build_irreducible,
    component_ids,
    group_by_component,
    product_of_weights,
    tensor,
)


class CrystalBijection:
    """A bijection between element sets of two crystal graphs; equal when
    domain, codomain and mapping are, and unhashable."""

    def __init__(self, domain, codomain, mapping):
        if len(mapping) != domain.size:
            raise CrystalError("bijection does not cover the domain")
        if sorted(mapping) != list(range(codomain.size)):
            raise CrystalError("mapping is not a bijection onto the codomain")
        self.domain, self.codomain, self.mapping = domain, codomain, mapping

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.domain, self.codomain, self.mapping)
                == (other.domain, other.codomain, other.mapping))

    def __repr__(self):
        return fields_repr(self, ("domain", "codomain", "mapping"))

    def __call__(self, b):
        return self.mapping[b]

    def to_pairs(self):
        return [[b, self.mapping[b]] for b in self.domain.elements()]


def schutzenberger(graph):
    """The involution xi of a normal crystal, as a CrystalBijection.

    A graph that is not normal raises on every call.
    """
    return CrystalBijection(graph, graph, _xi_mapping(graph))


def _xi_mapping(graph):
    """The mapping tuple of xi, computed on the first call and kept on the
    graph; a bare tuple, so that graph and xi form no reference cycle."""
    if graph._xi is not None:
        return graph._xi
    cartan = graph.cartan
    moves = [(graph.f_maps[i], graph.e_maps[star(cartan, i)])
             for i in graph.index_range()]
    comp = component_ids(graph)
    xi = [None] * graph.size
    for group_heads, group_tails in zip(
            group_by_component(comp, graph.highest_weight_elements()),
            group_by_component(comp, graph.lowest_weight_elements())):
        if len(group_heads) != 1 or len(group_tails) != 1:
            raise CrystalError(
                "component is not normal: %d heads, %d tails"
                % (len(group_heads), len(group_tails)))
        xi[group_heads[0]] = group_tails[0]
        frontier = [group_heads[0]]
        while frontier:
            b = frontier.pop()
            xi_b = xi[b]
            for f_map, e_map in moves:
                c = f_map[b]
                if c is None:
                    continue
                val = e_map[xi_b]
                if val is None:
                    raise CrystalError("xi recursion ran off the crystal")
                if xi[c] is None:
                    xi[c] = val
                    frontier.append(c)
                elif xi[c] != val:
                    raise CrystalError("xi recursion is inconsistent")
    if any(v is None for v in xi):
        raise CrystalError("crystal is not generated from its heads by f_i")
    mapping = tuple(xi)
    CrystalBijection(graph, graph, mapping)    # raises unless a bijection
    graph._xi = mapping
    return mapping


def commutor(left, right):
    """sigma: left (x) right -> right (x) left."""
    return commutor_on(left, right, tensor(left, right), tensor(right, left))


def commutor_on(left, right, domain, codomain):
    """sigma: left (x) right -> right (x) left between the given products.

    ``domain`` and ``codomain`` are left (x) right and right (x) left, or
    graphs equal to them id by id: the element a (x) b of a two-fold product
    has id a * |right| + b, which is also its id in a longer product of the
    same factors, since the tensor rule is associative on ids.
    """
    xl, xr, xc = _xi_mapping(left), _xi_mapping(right), _xi_mapping(codomain)
    nl = left.size
    mapping = tuple(xc[yb * nl + ya] for ya in xl for yb in xr)
    return CrystalBijection(domain, codomain, mapping)


@lru_cache(maxsize=None)
def reversal_table(cartan, weights):
    """Reversal map for B(w_1) (x) .. (x) B(w_m), cached by weights.

    Returns a dict from entry tuples to entry tuples; the output entries index
    the factors in reversed order.  The target element with entries
    (c_m, .., c_1), listed in id order, comes from the domain entries
    (xi c_1, .., xi c_m) and goes to its own xi.
    """
    xis = [_xi_mapping(build_irreducible(cartan, w)) for w in weights]
    xi = _xi_mapping(product_of_weights(cartan, weights[::-1]))
    entries = list(product(*(range(len(x)) for x in xis[::-1])))
    return {tuple(x[c] for x, c in zip(xis, target[::-1])): entries[xi[u]]
            for u, target in enumerate(entries)}


def hexagon_holds(cartan, lam, mu, nu):
    """Both hexagon paths B_lam (x) B_mu (x) B_nu -> B_nu (x) B_mu (x) B_lam.

    Left: reverse (mu, nu), then move lam past the block; right: reverse
    (lam, mu), then move nu in front.  Both outer commutors land in the same
    product, so the paths are compared id by id.
    """
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    inner_l = commutor_table(cartan, (mu,), (nu,)).mapping
    outer_l = commutor_table(cartan, (lam,), (nu, mu)).mapping
    inner_r = commutor_table(cartan, (lam,), (mu,)).mapping
    outer_r = commutor_table(cartan, (mu, lam), (nu,)).mapping
    n_lam = build_irreducible(cartan, lam).size
    n_nu = build_irreducible(cartan, nu).size
    n_nm = len(inner_l)
    left = [outer_l[x * n_nm + p] for x in range(n_lam) for p in inner_l]
    right = [outer_r[q * n_nu + z] for q in inner_r for z in range(n_nu)]
    return left == right


@lru_cache(maxsize=None)
def commutor_table(cartan, left_weights, right_weights):
    """Cached commutor between two products given by weight tuples.

    The domain and codomain are the cached products of
    ``left_weights + right_weights`` and ``right_weights + left_weights``.
    """
    return commutor_on(product_of_weights(cartan, left_weights),
                       product_of_weights(cartan, right_weights),
                       product_of_weights(cartan, left_weights + right_weights),
                       product_of_weights(cartan, right_weights + left_weights))
