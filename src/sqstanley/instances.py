"""Enumeration and random generation of ideals, quotients, complexes.

Exhaustive sweeps walk antichains of subset masks depth first, always
appending a numerically larger mask, so every antichain appears exactly
once and the whole sequence is deterministic.  The antichain counts
grow as the Dedekind numbers (3, 6, 20, 168, 7581 for n up to 5),
which is why enumeration is capped; random sampling from a seeded
generator covers larger n.
"""

from collections.abc import Iterator

from .errors import CapExceededError
from .ideals import SqIdeal
from .setcalc import IndexSet, SimplicialComplex
from .sqmod import SqQuotient

ENUMERATION_CAP = 6


def all_antichains(n: int) -> Iterator[tuple[int, ...]]:
    """Every antichain of subset masks, smallest members first."""
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"antichain enumeration needs n <= {ENUMERATION_CAP}, got {n}")
    chosen = []

    def rec(start):
        yield tuple(chosen)
        for m in range(start, 1 << n):
            # earlier masks are numerically smaller, so only they can
            # be submasks of m
            if any(c & m == c for c in chosen):
                continue
            chosen.append(m)
            yield from rec(m + 1)
            chosen.pop()

    yield from rec(0)


def all_sq_ideals(n: int) -> Iterator[SqIdeal]:
    """Every squarefree ideal, the zero and unit ideals included."""
    for masks in all_antichains(n):
        yield SqIdeal.of(n, masks)


def proper_nonzero_ideals(n: int) -> Iterator[SqIdeal]:
    for ideal in all_sq_ideals(n):
        if ideal.gen_masks and not ideal.is_unit:
            yield ideal


def all_complexes(n: int) -> Iterator[SimplicialComplex]:
    """Every nonvoid simplicial complex, by its facet antichain."""
    for masks in all_antichains(n):
        if masks:
            yield SimplicialComplex(n, tuple(IndexSet(n, m) for m in masks))


def all_quotients(n: int) -> Iterator[SqQuotient]:
    """Every nonzero quotient of nested squarefree ideals.

    Quadratic in the Dedekind count, so meant for small n only.
    """
    ideals = [(ideal, ideal.member_word()) for ideal in all_sq_ideals(n)]
    for outer, ow in ideals:
        for inner, iw in ideals:
            if iw != ow and iw & ~ow == 0:
                yield SqQuotient(n, inner, outer)


def random_sq_ideal(rng, n: int, max_gens: int = 4) -> SqIdeal:
    """A random squarefree ideal, possibly zero, never the unit ideal."""
    masks = [rng.randrange(1, 1 << n)
             for _ in range(rng.randrange(max_gens + 1))]
    return SqIdeal.of(n, masks)


def random_quotient(rng, n: int, max_gens: int = 4) -> SqQuotient:
    """A random nonzero quotient of nested squarefree ideals."""
    while True:
        masks = [rng.randrange(1 << n) for _ in range(rng.randrange(1, max_gens + 1))]
        outer = SqIdeal.of(n, masks)
        inner_masks = [m | rng.randrange(1 << n) for m in masks
                       if rng.random() < 0.5]
        mod = SqQuotient(n, SqIdeal.of(n, inner_masks), outer)
        if not mod.is_zero:
            return mod


def random_complex(rng, n: int, max_facets: int = 4) -> SimplicialComplex:
    """A random nonvoid complex from its sampled facets."""
    count = rng.randrange(1, max_facets + 1)
    return SimplicialComplex.from_facets(
        n, [IndexSet(n, rng.randrange(1 << n)) for _ in range(count)])
