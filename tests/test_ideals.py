import itertools
import random

import pytest
from hypothesis import given, strategies as st

from sqstanley.errors import NMismatchError, NonSquarefreeError
from sqstanley.ideals import (
    Monomial,
    MonomialIdeal,
    SqIdeal,
    minimalize,
    sr_complex,
    sr_ideal,
    tilde,
)
from sqstanley.setcalc import IndexSet, SimplicialComplex, alexander_dual


def mono(*e):
    return Monomial.of(*e)


def sq(n, *masklists):
    return SqIdeal.of(n, [IndexSet.of(n, ms) for ms in masklists])


def pairwise_sq_ideal_rule(n, masks):
    """The all-pairs form of the raw SqIdeal rule: sorted, no repeats,
    no nested pair, every mask in range."""
    return masks == sorted(set(masks)) and all(
        0 <= a < 1 << n and not any(a & b == a for b in masks[i + 1:])
        for i, a in enumerate(masks))


class TestMonomial:
    def test_basic_properties(self):
        m = mono(2, 1, 0)
        assert m.degree == 3
        assert m.support.members == (1, 2)
        assert not m.is_squarefree
        assert mono(1, 0, 1).is_squarefree
        assert mono(0, 0).is_one
        assert str(m) == "x1^2*x2"
        assert str(mono(0, 0, 0)) == "1"

    def test_divides_and_arithmetic(self):
        assert mono(1, 1, 0).divides(mono(1, 2, 1))
        assert not mono(2, 0).divides(mono(1, 1))
        assert mono(1, 1) * mono(0, 2) == mono(1, 3)
        assert mono(2, 1).quotient_by(mono(1, 3)) == mono(1, 0)

    def test_from_support(self):
        assert Monomial.from_support(IndexSet.of(3, [1, 3])) == mono(1, 0, 1)

    def test_n_mismatch(self):
        with pytest.raises(NMismatchError):
            mono(1, 0).divides(mono(1, 0, 0))


class TestMinimalize:
    def test_drops_multiples(self):
        got = minimalize([mono(2, 0, 0), mono(1, 1, 0), mono(2, 1, 0), mono(1, 2, 1)])
        assert got == (mono(2, 0, 0), mono(1, 1, 0))

    def test_canonical_order(self):
        # support colex first, then degree
        got = minimalize([mono(0, 1, 1), mono(2, 0, 0), mono(0, 3, 0)])
        assert got == (mono(2, 0, 0), mono(0, 3, 0), mono(0, 1, 1))

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=6))
    def test_idempotent(self, raw):
        gens = [Monomial(t) for t in raw]
        once = minimalize(gens)
        assert minimalize(once) == once

    def test_matches_pairwise_reference(self):
        # the forward pass calling divides on every kept element, as it
        # stood before the support-mask prefilter
        def reference(gens):
            out = []
            for g in sorted(set(gens), key=Monomial.sort_key):
                if not any(h.divides(g) for h in out):
                    out.append(g)
            return tuple(out)

        rng = random.Random(20261018)
        for _ in range(300):
            n = rng.randint(1, 5)
            top = rng.choice((1, 1, 3))
            gens = [Monomial(tuple(rng.randint(0, top) for _ in range(n)))
                    for _ in range(rng.randint(0, 12))]
            got = minimalize(gens)
            assert got == reference(gens)
            assert minimalize(got) == got
            # a monomial over another n anywhere in the list is refused
            odd = Monomial(tuple(rng.randint(0, top) for _ in range(n + 1)))
            if gens:
                at = rng.randint(0, len(gens))
                with pytest.raises(NMismatchError):
                    minimalize(gens[:at] + [odd] + gens[at:])


class TestMonomialIdeal:
    def test_membership(self):
        ideal = MonomialIdeal.of(2, [mono(1, 1)])
        assert mono(1, 2) in ideal
        assert mono(1, 0) not in ideal
        assert mono(0, 0) not in ideal

    def test_zero_and_unit(self):
        zero, unit = MonomialIdeal.zero(2), MonomialIdeal.unit(2)
        assert zero.is_zero and not zero.is_unit
        assert unit.is_unit
        assert mono(0, 0) in unit and mono(1, 1) in unit
        assert mono(1, 1) not in zero

    def test_colon(self):
        # (x1^2, x1x2) : x2x3 = (x1)
        ideal = MonomialIdeal.of(3, [mono(2, 0, 0), mono(1, 1, 0)])
        got = ideal.colon(mono(0, 1, 1))
        assert got == MonomialIdeal.of(3, [mono(1, 0, 0)])
        # colon by a member gives the unit ideal
        assert ideal.colon(mono(2, 1, 0)).is_unit
        # colon by 1 is the identity
        assert ideal.colon(mono(0, 0, 0)) == ideal

    def test_sum_and_containment(self):
        a = MonomialIdeal.of(2, [mono(2, 0)])
        b = MonomialIdeal.of(2, [mono(1, 1)])
        s = a + b
        assert s == MonomialIdeal.of(2, [mono(2, 0), mono(1, 1)])
        assert all(g in s for g in a.gens + b.gens)
        assert mono(1, 1) not in a

    def test_contains_mask(self):
        ideal = MonomialIdeal.of(3, [mono(2, 0, 0), mono(0, 1, 1)])
        # x1^2 cannot divide a squarefree monomial
        assert not ideal.contains_mask(0b001)
        assert ideal.contains_mask(0b110)
        assert ideal.contains_mask(0b111)

    def test_prime(self):
        p = MonomialIdeal.prime(3, IndexSet.of(3, [1, 3]))
        assert p == MonomialIdeal.of(3, [mono(1, 0, 0), mono(0, 0, 1)])

    def test_raw_constructor_validates(self):
        with pytest.raises(ValueError):
            MonomialIdeal(2, (mono(1, 1), mono(1, 2)))


class TestSqIdeal:
    def test_normalization(self):
        ideal = sq(3, [1, 2], [1, 2, 3], [3])
        assert ideal.gen_masks == (0b011, 0b100)

    def test_conversions(self):
        ideal = sq(3, [1, 2], [3])
        mi = ideal.to_monomial_ideal()
        assert mi == MonomialIdeal.of(3, [mono(1, 1, 0), mono(0, 0, 1)])
        assert SqIdeal.from_monomial_ideal(mi) == ideal
        with pytest.raises(NonSquarefreeError):
            SqIdeal.from_monomial_ideal(MonomialIdeal.of(2, [mono(2, 0)]))

    def test_membership(self):
        ideal = sq(3, [1, 2])
        assert IndexSet.of(3, [1, 2, 3]) in ideal
        assert IndexSet.of(3, [1, 3]) not in ideal

    @pytest.mark.parametrize("masks, message", [
        ((2, 1), "antichain"), ((1, 1), "antichain"), ((1, 3), "antichain"),
        ((3, 1), "antichain"), ((1, 8), "mask 8 out of range"),
        ((-1,), "mask -1 out of range"), ((-1, 3), "mask -1 out of range"),
        ((8,), "mask 8 out of range"),
    ])
    def test_raw_constructor_refuses(self, masks, message):
        with pytest.raises(ValueError, match=message):
            SqIdeal(3, masks)

    def test_raw_constructor_accepts_a_sorted_list(self):
        assert SqIdeal(2, [1, 2]).gen_masks == [1, 2]
        assert SqIdeal(3, (0b011, 0b100)) == sq(3, [1, 2], [3])
        assert SqIdeal(0, (0,)).is_unit and SqIdeal(0, ()).is_zero

    def test_raw_constructor_matches_the_pairwise_rule(self):
        # every sequence of length <= 3 over the masks of [n] and two steps
        # beyond the top, one below, n <= 3; SqIdeal.of takes the same
        # sequences and refuses each one with a mask out of range, also
        # when that mask contains another, as 2^n + 1 contains 1
        for n in range(4):
            for length in range(4):
                for masks in itertools.product(range(-1, (1 << n) + 2), repeat=length):
                    try:
                        SqIdeal(n, masks)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == pairwise_sq_ideal_rule(n, list(masks)), (n, masks)
                    if all(0 <= m < 1 << n for m in masks):
                        minimal = [m for m in sorted(set(masks))
                                   if not any(k != m and k & ~m == 0 for k in masks)]
                        assert SqIdeal.of(n, masks).gen_masks == tuple(minimal), (n, masks)
                    else:
                        with pytest.raises(ValueError, match="out of range"):
                            SqIdeal.of(n, masks)

    def test_of_refuses_a_negative_mask_above_a_generator(self):
        # -1 is no subset of [n]; it is refused, not dropped as a multiple of 3
        with pytest.raises(ValueError, match="mask -1 out of range"):
            SqIdeal.of(3, [-1, 3])


class TestStanleyReisner:
    def test_complex_of_edge_ideal(self):
        # (x1x2) on two vertices: faces are {}, {1}, {2}
        cx = sr_complex(sq(2, [1, 2]))
        assert [f.members for f in cx.facets] == [(1,), (2,)]

    def test_zero_ideal_full_simplex(self):
        cx = sr_complex(SqIdeal.of(3, []))
        assert cx.facets == (IndexSet.full(3),)

    def test_unit_rejected_void_rejected(self):
        with pytest.raises(ValueError):
            sr_complex(SqIdeal.of(2, [IndexSet.of(2)]))
        with pytest.raises(ValueError):
            sr_ideal(SimplicialComplex.from_facets(2, []))

    def test_irrelevant_complex(self):
        ideal = sr_ideal(SimplicialComplex.from_facets(2, [()]))
        assert ideal == sq(2, [1], [2])

    def test_bijection_random(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 6)
            k = rng.randint(0, 4)
            cx = SimplicialComplex.from_facets(
                n, [IndexSet(n, rng.randrange(1 << n)) for _ in range(k)])
            if cx.is_void:
                continue
            assert sr_complex(sr_ideal(cx)) == cx
            ideal = sr_ideal(cx)
            if not ideal.is_unit:
                assert sr_ideal(sr_complex(ideal)) == ideal


class TestTilde:
    def test_known_values(self):
        assert tilde(sq(2, [1, 2])) == sq(2, [1], [2])
        assert tilde(sq(3, [1], [2], [3])) == sq(3, [1, 2, 3])
        assert tilde(SqIdeal.of(3, [])).is_unit

    def test_unit_rejected(self):
        with pytest.raises(ValueError):
            tilde(SqIdeal.of(3, [IndexSet.of(3)]))

    def test_generators_are_facet_complements(self):
        ideal = sq(4, [1, 2], [3, 4])
        facets = sr_complex(ideal).facet_masks()
        full = (1 << 4) - 1
        assert set(tilde(ideal).gen_masks) == {full ^ m for m in facets}

    def test_matches_dual_complex_route(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 6)
            ideal = _random_proper_nonzero(rng, n)
            via_complex = sr_ideal(alexander_dual(sr_complex(ideal)))
            assert tilde(ideal) == via_complex

    def test_involution_1000_random(self):
        rng = random.Random(20260822)
        for _ in range(1000):
            n = rng.randint(1, 8)
            ideal = _random_proper_nonzero(rng, n)
            assert tilde(tilde(ideal)) == ideal

    def test_inclusion_reversing(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 6)
            small = _random_proper_nonzero(rng, n)
            extra = IndexSet(n, rng.randrange(1, 1 << n))
            big = SqIdeal.of(n, list(small.gens) + [extra])
            if big.is_unit:
                continue
            ts, tb = tilde(small), tilde(big)
            # big contains small, so tilde(big) is contained in tilde(small)
            assert all(ts.contains_mask(m) for m in tb.gen_masks)


def _random_proper_nonzero(rng, n):
    while True:
        k = rng.randint(1, 4)
        masks = [rng.randrange(1, 1 << n) for _ in range(k)]
        ideal = SqIdeal.of(n, masks)
        if not ideal.is_unit and not ideal.is_zero:
            return ideal
