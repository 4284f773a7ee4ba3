"""Partitions of a simplicial complex into intervals below its facets.

A complex is partitionable when its face poset splits into boolean
intervals whose tops are facets.  Such a partition is the same thing
as a Stanley decomposition of the face ring in which every interval
reaches a support facet, so the search runs on the shared exact cover
engine, and the result comes back as a decomposition of S/I, the face
ring that sqmod builds from the Stanley-Reisner ideal.

Dualizing trades facet tops for generator bottoms: the complex is
partitionable exactly when the Alexander dual module admits a
decomposition whose bottoms are minimal support members.  The check at
the bottom builds the face ring once and computes both sides
independently, the dual side by a direct search that gates the cover
on generator bottoms rather than by transforming the primal answer.
"""

from dataclasses import dataclass

from .errors import InternalCheckError
from .homology import DEFAULT_CHAR, invariants
from .setcalc import SimplicialComplex
from .sqmod import (
    SqQuotient,
    StanleyDecomposition,
    _cover,
    dualize_decomposition,
    dualize_quotient,
    face_ring,
    validate_decomposition,
)


def _checked(module, what, tops, bottoms=None):
    """The cover of the module's support with these tops, and bottoms if
    given, as a decomposition checked to partition the support, or None."""
    pairs = _cover(module.support_word, tops, bottoms)
    if pairs is None:
        return None
    dec = StanleyDecomposition.from_masks(module.n, pairs)
    if not validate_decomposition(module, dec):
        raise InternalCheckError(f"{what} cover is not a partition")
    return dec


def find_partition(cx: SimplicialComplex):
    """A partition of the complex with facet tops, as a Stanley
    decomposition of its face ring, or None."""
    module = face_ring(cx)
    return _checked(module, "facet-top", module.facet_masks())


def is_partitionable(cx: SimplicialComplex) -> bool:
    return find_partition(cx) is not None


def generator_bottom_decomposition(module: SqQuotient):
    """A decomposition whose bottoms are minimal support members, or None."""
    return _checked(module, "generator-bottom",
                    module.support_masks(), set(module.minimal_masks()))


@dataclass(frozen=True, slots=True)
class PartitionabilityRecord:
    """Both sides of the partitionability duality, plus CM for context;
    partition is the one the check found, or None."""

    n: int
    cohen_macaulay: bool
    partition: StanleyDecomposition | None
    dual_generator_bottoms: bool

    @property
    def partitionable(self) -> bool:
        return self.partition is not None

    @property
    def ok(self) -> bool:
        return self.partitionable == self.dual_generator_bottoms


def partition_duality_check(cx: SimplicialComplex,
                            char: int = DEFAULT_CHAR) -> PartitionabilityRecord:
    """Partition the complex directly and search the dual module with
    generator bottoms; the two must succeed or fail together.

    The primal partition, when present, also dualizes to a witness on
    the other side, which is checked against the dual module.
    """
    if cx.is_void:
        raise ValueError("the void complex has no face ring")
    module = face_ring(cx)
    dual = dualize_quotient(module)
    partition = _checked(module, "facet-top", module.facet_masks())
    if partition is not None:
        transformed = dualize_decomposition(partition)
        if not validate_decomposition(dual, transformed):
            raise InternalCheckError("dualized partition fails on the dual module")
        gens = set(dual.minimal_masks())
        if any(iv.bottom.mask not in gens for iv in transformed.intervals):
            raise InternalCheckError("dualized partition has a non-generator bottom")
    return PartitionabilityRecord(
        n=cx.n,
        cohen_macaulay=invariants(module, char).cohen_macaulay,
        partition=partition,
        dual_generator_bottoms=generator_bottom_decomposition(dual) is not None,
    )
