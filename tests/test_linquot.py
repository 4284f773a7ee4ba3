import gc
import itertools
import random

import pytest

from sqstanley.homology import invariants
from sqstanley.ideals import Monomial, MonomialIdeal, SqIdeal, minimalize
from sqstanley.linquot import (
    has_linear_quotients,
    linear_quotients_order,
    lq_decomposition,
)
from sqstanley.setcalc import IndexSet
from sqstanley.sqmod import SqQuotient, sdepth, validate_decomposition


def sq(n, masks):
    return SqIdeal.of(n, masks)


def brute_force_has_lq(gens):
    """Try every ordering outright; independent of the backtracker."""
    from sqstanley.linquot import _colon_variable_mask
    for perm in itertools.permutations(gens):
        if all(_colon_variable_mask(list(perm[:i]), perm[i]) is not None
               for i in range(1, len(perm))):
            return True
    return not gens or len(gens) == 1


class TestOrderSearch:
    def test_maximal_ideal(self):
        order = linear_quotients_order(sq(3, [0b001, 0b010, 0b100]))
        assert [str(g) for g in order.gens] == ["x1", "x2", "x3"]
        assert order.colon_vars == (0, 0b001, 0b011)
        assert order.r == 2

    def test_two_disjoint_edges_fail(self):
        assert linear_quotients_order(sq(4, [0b0011, 0b1100])) is None
        assert not has_linear_quotients(sq(4, [0b0011, 0b1100]))

    def test_triangle_edges(self):
        order = linear_quotients_order(sq(3, [0b011, 0b101, 0b110]))
        assert order is not None
        assert order.r == 1

    def test_single_generator(self):
        order = linear_quotients_order(sq(4, [0b1010]))
        assert order.r == 0
        assert order.colon_vars == (0,)

    def test_zero_ideal(self):
        order = linear_quotients_order(sq(3, []))
        assert order.gens == ()
        assert order.r == 0

    def test_non_squarefree_emission(self):
        ideal = MonomialIdeal.of(2, [Monomial.of(2, 0), Monomial.of(1, 1)])
        order = linear_quotients_order(ideal)
        assert order is not None
        assert [str(g) for g in order.gens] == ["x1^2", "x1*x2"]
        assert order.colon_vars == (0, 0b01)
        assert order.r == 1

    def test_first_ordering_is_deterministic(self):
        ideal = sq(4, [0b0011, 0b0101, 0b1001, 0b0110])
        a = linear_quotients_order(ideal)
        b = linear_quotients_order(ideal)
        assert a == b

    def test_matches_brute_force(self):
        rng = random.Random(20260822)
        for _ in range(120):
            n = rng.randrange(2, 5)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))]
            ideal = sq(n, masks)
            mono = [Monomial.from_support(IndexSet(n, m))
                    for m in ideal.gen_masks]
            assert has_linear_quotients(ideal) == brute_force_has_lq(mono)

    @pytest.mark.parametrize("masks", [[0b00011, 0b01100, 0b10001, 0b00110],
                                       [0b00011, 0b00101, 0b00110]])
    def test_search_memo_freed_on_return(self, masks):
        # the first ideal has no linear quotients, so the memo fills up;
        # the second returns from inside the search
        ideal = sq(5, masks)
        gc.collect()
        gc.disable()
        try:
            linear_quotients_order(ideal)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDecomposition:
    def test_maximal_ideal(self):
        dec = lq_decomposition(sq(3, [0b001, 0b010, 0b100]))
        pairs = {(iv.bottom.mask, iv.top.mask) for iv in dec.intervals}
        assert pairs == {(0b001, 0b111), (0b010, 0b110), (0b100, 0b100)}
        assert dec.sdepth == 1

    def test_sdepth_is_n_minus_r(self):
        rng = random.Random(5)
        found = 0
        while found < 60:
            n = rng.randrange(2, 6)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))]
            ideal = sq(n, masks)
            order = linear_quotients_order(ideal)
            if order is None:
                continue
            found += 1
            dec = lq_decomposition(ideal)
            module = SqQuotient(n, sq(n, []), ideal)
            assert validate_decomposition(module, dec)
            assert dec.sdepth == n - order.r

    def test_meets_depth_small(self):
        # n - r is exactly the depth, so the decomposition witnesses
        # sdepth >= depth; the true sdepth may still be larger
        rng = random.Random(9)
        found = 0
        while found < 30:
            n = rng.randrange(2, 5)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 4))]
            ideal = sq(n, masks)
            order = linear_quotients_order(ideal)
            if order is None:
                continue
            found += 1
            module = SqQuotient(n, sq(n, []), ideal)
            assert n - order.r == invariants(module).depth

    def test_sdepth_can_exceed_depth(self):
        # x1*(x2,x3,x4) has depth 2 but Stanley depth 3
        ideal = sq(4, [0b0011, 0b0101, 0b1001])
        order = linear_quotients_order(ideal)
        module = SqQuotient(4, sq(4, []), ideal)
        assert (4 - order.r, invariants(module).depth) == (2, 2)
        assert sdepth(module)[0] == 3

    def test_rejects_ideal_without_linear_quotients(self):
        with pytest.raises(ValueError):
            lq_decomposition(sq(4, [0b0011, 0b1100]))
