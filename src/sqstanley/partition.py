"""Partitions of a simplicial complex into intervals below its facets.

A complex is partitionable when its face poset splits into boolean
intervals whose tops are facets.  Such a partition is the same thing
as a Stanley decomposition of the face ring in which every interval
reaches a support facet, so the search runs on the shared exact cover
engine, and the result comes back as a decomposition of S/I.

Dualizing trades facet tops for generator bottoms: the complex is
partitionable exactly when the Alexander dual module admits a
decomposition whose bottoms are minimal support members.  The check at
the bottom computes both sides independently, the dual side by a
direct search that gates the cover on generator bottoms rather than by
transforming the primal answer.
"""

from dataclasses import dataclass

from .cover import first_interval_partition
from .errors import InternalCheckError
from .homology import DEFAULT_CHAR, invariants
from .setcalc import Interval, IndexSet, SimplicialComplex
from .sqmod import (
    SqQuotient,
    StanleyDecomposition,
    dualize_decomposition,
    dualize_quotient,
    validate_decomposition,
)


def face_ring(cx: SimplicialComplex) -> SqQuotient:
    """S/I of the complex; the void complex gives the zero module."""
    return SqQuotient.from_support(cx.n, cx.face_masks())


def find_partition(cx: SimplicialComplex):
    """A partition of the complex with facet tops, as a Stanley
    decomposition of its face ring, or None."""
    module = face_ring(cx)
    facets = sorted(cx.facet_masks(), key=lambda f: (-f.bit_count(), f))

    def tops_for(bottom):
        return [f for f in facets if not bottom & ~f]

    pairs = first_interval_partition(module.support_word, tops_for)
    if pairs is None:
        return None
    dec = StanleyDecomposition.of(
        cx.n, [Interval(IndexSet(cx.n, b), IndexSet(cx.n, t)) for b, t in pairs])
    if not validate_decomposition(module, dec):
        raise InternalCheckError("facet-top cover is not a partition")
    return dec


def is_partitionable(cx: SimplicialComplex) -> bool:
    return find_partition(cx) is not None


def generator_bottom_decomposition(module: SqQuotient):
    """A decomposition whose bottoms are minimal support members, or None."""
    gens = set(module.minimal_masks())
    candidates = sorted(module.support_masks(), key=lambda t: (-t.bit_count(), t))

    def tops_for(bottom):
        if bottom not in gens:
            return []
        return [t for t in candidates if not bottom & ~t]

    pairs = first_interval_partition(module.support_word, tops_for)
    if pairs is None:
        return None
    dec = StanleyDecomposition.of(
        module.n,
        [Interval(IndexSet(module.n, b), IndexSet(module.n, t)) for b, t in pairs])
    if not validate_decomposition(module, dec):
        raise InternalCheckError("generator-bottom cover is not a partition")
    return dec


@dataclass(frozen=True)
class PartitionabilityRecord:
    """Both sides of the partitionability duality, plus CM for context."""

    n: int
    cohen_macaulay: bool
    partitionable: bool
    dual_generator_bottoms: bool

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
    partition = find_partition(cx)
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
        partitionable=partition is not None,
        dual_generator_bottoms=generator_bottom_decomposition(dual) is not None,
    )
