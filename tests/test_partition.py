import random

import pytest

import sqstanley
from sqstanley import sqmod
from sqstanley.errors import CapExceededError
from sqstanley.instances import all_complexes, random_complex
from sqstanley.partition import (
    face_ring,
    find_partition,
    generator_bottom_decomposition,
    is_partitionable,
    partition_duality_check,
)
from sqstanley.setcalc import IndexSet, SimplicialComplex
from sqstanley.sqmod import SqQuotient, dualize_quotient, sdepth


def cx_of(n, facet_masks):
    return SimplicialComplex.from_facets(n, [IndexSet(n, m) for m in facet_masks])


def _random_complex(rng, n):
    count = rng.randrange(1, 4)
    return cx_of(n, [rng.randrange(1 << n) for _ in range(count)])


class TestFaceRing:
    def test_path(self):
        mod = face_ring(cx_of(3, [0b011, 0b110]))
        assert mod.inner.gen_masks == (0b101,)
        assert mod.outer.is_unit

    def test_void_gives_zero_module(self):
        assert face_ring(SimplicialComplex(2, ())).is_zero

    def test_irrelevant_gives_residue_field(self):
        mod = face_ring(cx_of(2, [0]))
        assert mod.support_masks() == (0,)

    def test_one_face_ring(self):
        assert sqstanley.face_ring is face_ring is sqmod.face_ring

    def test_equals_the_presentation_of_its_faces(self):
        # the oracle: every face enumerated, then the minimal presentation
        # of that family
        rng = random.Random(20261020)
        complexes = [cx for n in range(6) for cx in all_complexes(n)]
        complexes += [SimplicialComplex(n, ()) for n in range(8)]
        complexes += [random_complex(rng, n, rng.randrange(1, 9))
                      for n in range(6, 13) for _ in range(150)]
        assert len(complexes) > 8_800
        for cx in complexes:
            assert face_ring(cx) == SqQuotient.from_support(cx.n, cx.face_masks()), cx

    @pytest.mark.parametrize("facets", [(), (0,)], ids=["void", "irrelevant"])
    def test_capped_above_materialization(self, facets):
        with pytest.raises(CapExceededError):
            face_ring(SimplicialComplex(21, tuple(IndexSet(21, m) for m in facets)))


class TestFindPartition:
    def test_path(self):
        dec = find_partition(cx_of(3, [0b011, 0b110]))
        pairs = [(iv.bottom.mask, iv.top.mask) for iv in dec.intervals]
        assert pairs == [(0b000, 0b011), (0b100, 0b110)]

    def test_triangle_boundary(self):
        dec = find_partition(cx_of(3, [0b011, 0b101, 0b110]))
        assert dec is not None
        facets = {0b011, 0b101, 0b110}
        assert all(iv.top.mask in facets for iv in dec.intervals)

    def test_two_disjoint_edges_not_partitionable(self):
        assert find_partition(cx_of(4, [0b0011, 0b1100])) is None
        assert not is_partitionable(cx_of(4, [0b0011, 0b1100]))

    def test_void_trivially_partitionable(self):
        dec = find_partition(SimplicialComplex(3, ()))
        assert dec is not None and not dec.intervals

    def test_deterministic(self):
        cx = cx_of(4, [0b0111, 0b1110, 0b1001])
        assert find_partition(cx) == find_partition(cx)

    def test_every_top_is_a_facet(self):
        rng = random.Random(20260822)
        for _ in range(100):
            cx = _random_complex(rng, rng.randrange(1, 6))
            dec = find_partition(cx)
            if dec is None:
                continue
            facets = set(cx.facet_masks())
            assert all(iv.top.mask in facets for iv in dec.intervals)


class TestGeneratorBottoms:
    def test_free_module(self):
        dec = generator_bottom_decomposition(face_ring(cx_of(2, [0b11])))
        pairs = [(iv.bottom.mask, iv.top.mask) for iv in dec.intervals]
        assert pairs == [(0b00, 0b11)]

    def test_dual_of_disjoint_edges_fails(self):
        dual = dualize_quotient(face_ring(cx_of(4, [0b0011, 0b1100])))
        assert generator_bottom_decomposition(dual) is None

    def test_bottoms_are_generators(self):
        rng = random.Random(3)
        for _ in range(60):
            cx = _random_complex(rng, rng.randrange(1, 6))
            mod = face_ring(cx)
            if mod.is_zero:
                continue
            dec = generator_bottom_decomposition(dualize_quotient(mod))
            if dec is None:
                continue
            gens = set(dualize_quotient(mod).minimal_masks())
            assert all(iv.bottom.mask in gens for iv in dec.intervals)


class TestDualityCheck:
    def test_path(self):
        rec = partition_duality_check(cx_of(3, [0b011, 0b110]))
        assert rec.cohen_macaulay and rec.partitionable
        assert rec.dual_generator_bottoms and rec.ok

    def test_disjoint_edges(self):
        rec = partition_duality_check(cx_of(4, [0b0011, 0b1100]))
        assert not rec.cohen_macaulay
        assert not rec.partitionable
        assert not rec.dual_generator_bottoms
        assert rec.ok

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            partition_duality_check(SimplicialComplex(3, ()))

    def test_random_complexes_agree(self):
        rng = random.Random(14)
        for _ in range(60):
            cx = _random_complex(rng, rng.randrange(1, 6))
            assert partition_duality_check(cx).ok

    def test_partition_bounds_sdepth(self):
        # facet tops make the partition's sdepth the face ring's dimension
        cx = cx_of(3, [0b011, 0b110])
        dec = find_partition(cx)
        best, _ = sdepth(face_ring(cx))
        assert dec.sdepth == best == 2
