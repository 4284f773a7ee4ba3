import random

import pytest

from sqstanley.errors import ZeroModuleError
from sqstanley.homology import (
    betti,
    depth_duality_check,
    eagon_reiner_check,
    invariants,
    terai_check,
)
from sqstanley.ideals import SqIdeal, sr_ideal, tilde
from sqstanley.instances import all_quotients
from sqstanley.setcalc import IndexSet, SimplicialComplex
from sqstanley.sqmod import SqQuotient, dualize_quotient


def ring_mod(gen_masks, n):
    return SqQuotient(n, SqIdeal.of(n, gen_masks), SqIdeal.of(n, [0]))


def ideal_mod(gen_masks, n):
    return SqQuotient(n, SqIdeal.of(n, []), SqIdeal.of(n, gen_masks))


def free_module(n):
    return ring_mod([], n)


def _random_module(rng, n):
    while True:
        masks = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 5))]
        outer = SqIdeal.of(n, masks)
        inner_masks = [m | rng.randrange(1 << n) for m in masks
                       if rng.random() < 0.5]
        mod = SqQuotient(n, SqIdeal.of(n, inner_masks), outer)
        if not mod.is_zero:
            return mod


def small_modules_and_duals():
    for n in range(5):
        for module in all_quotients(n):
            yield module
            yield dualize_quotient(module)


def all_proper_nonzero_ideals(n):
    """Every squarefree ideal with 0 != I != S, via its up-set of masks."""
    universe = list(range(1 << n))
    seen = set()
    out = []
    for pick in range(1 << len(universe)):
        members = {universe[i] for i in range(len(universe)) if pick >> i & 1}
        if not members or 0 in members:
            continue
        if any(m | 1 << j not in members
               for m in members for j in range(n) if not m >> j & 1):
            continue
        ideal = SqIdeal.of(n, members)
        if ideal.gen_masks not in seen:
            seen.add(ideal.gen_masks)
            out.append(ideal)
    return out


class TestBettiTable:
    def test_hypersurface(self):
        table = betti(ring_mod([0b11], 2))
        assert table.entries == ((0, 0, 1), (1, 0b11, 1))
        assert table.value(1, 0b11) == 1
        assert table.value(2, 0b11) == 0
        assert table.projdim == 1
        assert table.reg == 1

    def test_two_variable_ideal(self):
        table = betti(ideal_mod([0b01, 0b10], 2))
        assert table.entries == ((0, 0b01, 1), (0, 0b10, 1), (1, 0b11, 1))
        assert table.generator_masks() == (0b01, 0b10)

    def test_koszul_residue_field(self):
        n = 3
        table = betti(ring_mod([0b001, 0b010, 0b100], n))
        expect = tuple(sorted((m.bit_count(), m, 1) for m in range(1 << n)))
        assert table.entries == expect
        assert [table.total(i) for i in range(4)] == [1, 3, 3, 1]
        assert table.reg == 0
        assert table.projdim == n

    def test_free_module(self):
        table = betti(free_module(4))
        assert table.entries == ((0, 0, 1),)
        assert table.projdim == 0
        assert table.reg == 0

    def test_interval_module(self):
        # (x1)/(x1x3) resolves as 0 -> S(-x1x3) -> S(-x1)
        mod = SqQuotient(3, SqIdeal.of(3, [0b101]), SqIdeal.of(3, [0b001]))
        table = betti(mod)
        assert table.entries == ((0, 0b001, 1), (1, 0b101, 1))

    def test_edge_plus_point(self):
        # two facets {1,2} and {3}: relations x1x3, x2x3
        table = betti(ring_mod([0b101, 0b110], 3))
        assert table.entries == (
            (0, 0, 1),
            (1, 0b101, 1),
            (1, 0b110, 1),
            (2, 0b111, 1),
        )

    def test_zero_module_table_is_empty(self):
        mod = SqQuotient(2, SqIdeal.of(2, [0b01]), SqIdeal.of(2, [0b01]))
        table = betti(mod)
        assert table.is_empty
        with pytest.raises(ZeroModuleError):
            table.projdim

    def test_characteristic_agreement_on_torsion_free_examples(self):
        for mod in (ring_mod([0b11], 2),
                    ring_mod([0b101, 0b110], 3),
                    ideal_mod([0b011, 0b110], 3)):
            reference = betti(mod, 32003).entries
            assert betti(mod, 2).entries == reference
            assert betti(mod, 0).entries == reference

    def test_euler_characteristic_identity(self):
        # sum_i (-1)^i b_{i,sigma} = sum over support members U <= sigma
        # of (-1)^|sigma - U|, the right side for every sigma at once by
        # one Moebius transform over 2^n ints
        for module in small_modules_and_duals():
            n = module.n
            chain = [module.support_word >> m & 1 for m in range(1 << n)]
            for v in range(n):
                for m in range(1 << n):
                    if m >> v & 1:
                        chain[m] -= chain[m ^ 1 << v]
            hom = [0] * (1 << n)
            for i, m, v in betti(module).entries:
                hom[m] += (-1) ** i * v
            assert hom == chain, module

    @pytest.mark.parametrize("char", [0, 2, 3, 32003, 2 ** 61 - 1])
    def test_rp2_torsion(self, char):
        # the 6-vertex real projective plane: H_1 = Z/2, so its face ring
        # has one more syzygy level in characteristic 2
        cx = SimplicialComplex.from_facets(6, [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])
        ring = ring_mod(sr_ideal(cx).gen_masks, 6)
        table = betti(ring, char)
        totals = [1, 10, 15, 7, 1] if char == 2 else [1, 10, 15, 6]
        assert [table.total(i) for i in range(table.projdim + 1)] == totals
        for module in (ring, dualize_quotient(ring)):
            assert terai_check(module, char).ok


class TestInvariants:
    def test_hypersurface(self):
        inv = invariants(ring_mod([0b11], 2))
        assert (inv.projdim, inv.reg, inv.depth, inv.dim) == (1, 1, 1, 1)
        assert inv.cohen_macaulay
        assert not inv.linear_resolution  # generator degree 0, relation degree 2

    def test_residue_field(self):
        inv = invariants(ring_mod([0b001, 0b010, 0b100], 3))
        assert (inv.projdim, inv.reg, inv.depth, inv.dim) == (3, 0, 0, 0)
        assert inv.cohen_macaulay
        assert inv.linear_resolution

    def test_two_variable_ideal_is_linear(self):
        inv = invariants(ideal_mod([0b01, 0b10], 2))
        assert inv.linear_resolution
        assert (inv.depth, inv.dim) == (1, 2)
        assert not inv.cohen_macaulay

    def test_mixed_degree_generators_not_linear(self):
        inv = invariants(ideal_mod([0b100, 0b011], 3))
        assert not inv.linear_resolution

    def test_edge_plus_point_not_cm(self):
        inv = invariants(ring_mod([0b101, 0b110], 3))
        assert (inv.depth, inv.dim) == (1, 2)
        assert not inv.cohen_macaulay

    def test_free_module(self):
        inv = invariants(free_module(3))
        assert (inv.projdim, inv.reg, inv.depth, inv.dim) == (0, 0, 3, 3)
        assert inv.cohen_macaulay
        assert inv.linear_resolution

    def test_zero_module_rejected(self):
        mod = SqQuotient(2, SqIdeal.of(2, [0b01]), SqIdeal.of(2, [0b01]))
        with pytest.raises(ZeroModuleError):
            invariants(mod)


class TestTerai:
    def test_hypersurface(self):
        rec = terai_check(ring_mod([0b11], 2))
        assert rec.projdim == 1 and rec.dual_reg == 1
        assert rec.ok

    def test_residue_field(self):
        rec = terai_check(ring_mod([0b001, 0b010, 0b100], 3))
        assert rec.projdim == 3 and rec.dual_reg == 3
        assert rec.ok

    def test_all_cyclic_quotients_n3(self):
        for ideal in all_proper_nonzero_ideals(3):
            mod = SqQuotient(3, ideal, SqIdeal.of(3, [0]))
            assert terai_check(mod).ok

    def test_random_modules(self):
        rng = random.Random(7)
        for _ in range(80):
            mod = _random_module(rng, rng.randrange(1, 6))
            assert terai_check(mod).ok


class TestEagonReiner:
    def test_path_is_cm_with_linear_dual(self):
        cx = SimplicialComplex.from_facets(3, [IndexSet(3, 0b011), IndexSet(3, 0b110)])
        rec = eagon_reiner_check(cx)
        assert rec.cohen_macaulay and rec.dual_linear and rec.ok

    def test_edge_plus_point_fails_both_sides(self):
        cx = SimplicialComplex.from_facets(3, [IndexSet(3, 0b011), IndexSet(3, 0b100)])
        rec = eagon_reiner_check(cx)
        assert not rec.cohen_macaulay and not rec.dual_linear and rec.ok

    def test_irrelevant_complex(self):
        rec = eagon_reiner_check(SimplicialComplex.from_facets(3, [IndexSet(3, 0)]))
        assert rec.cohen_macaulay and rec.dual_linear

    def test_full_simplex(self):
        rec = eagon_reiner_check(SimplicialComplex.from_facets(3, [IndexSet(3, 0b111)]))
        assert rec.cohen_macaulay and rec.dual_linear

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            eagon_reiner_check(SimplicialComplex(3, ()))

    def test_all_complexes_n3(self):
        seen = 0
        for ideal in all_proper_nonzero_ideals(3):
            cx = SimplicialComplex.from_facets(
                3, [IndexSet(3, m ^ 0b111) for m in tilde(ideal).gen_masks])
            assert sr_ideal(cx).gen_masks == ideal.gen_masks
            assert eagon_reiner_check(cx).ok
            seen += 1
        assert seen == 18  # 20 up-sets of the 3-cube minus the two improper ones


class TestDepthDuality:
    def test_hypersurface(self):
        rec = depth_duality_check(ring_mod([0b11], 2))
        assert (rec.sdepth, rec.depth) == (1, 1)
        assert (rec.dual_hreg_min, rec.dual_reg) == (1, 1)
        assert rec.ok

    def test_random_modules(self):
        rng = random.Random(11)
        for _ in range(50):
            mod = _random_module(rng, rng.randrange(1, 5))
            rec = depth_duality_check(mod)
            assert rec.ok
            # dualizing decompositions trades tops for bottoms exactly
            assert rec.dual_hreg_min == rec.n - rec.sdepth

    def test_zero_module_rejected(self):
        mod = SqQuotient(2, SqIdeal.of(2, [0b01]), SqIdeal.of(2, [0b01]))
        with pytest.raises(ZeroModuleError):
            depth_duality_check(mod)
