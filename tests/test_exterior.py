import itertools
import random
from collections import Counter

import pytest

from sqstanley.errors import NMismatchError
from sqstanley.exterior import (
    EDecomposition,
    EPiece,
    ExtElement,
    ExtQuotientModule,
    dual_functional_image,
    dual_right_mul,
    e_dual,
    e_to_s_decomposition,
    edual_decomposition,
    pairing,
    s_to_e_decomposition,
    theta,
    theta_monomial,
    to_exterior,
    wedge,
)
from sqstanley.ideals import SqIdeal
from sqstanley.instances import random_quotient
from sqstanley.setcalc import IndexSet, sigma_masks, submasks
from sqstanley.sqmod import (
    SqQuotient,
    dualize_quotient,
    sdepth,
    validate_decomposition,
)


def e(n, *members):
    return ExtElement.basis(n, IndexSet.of(n, members))


def ring_mod(ideal_masks, n):
    return SqQuotient(n, SqIdeal.of(n, ideal_masks), SqIdeal.of(n, [0]))


def _random_module(rng, n):
    outer = SqIdeal.of(n, [rng.randrange(1 << n) for _ in range(rng.randint(1, 3))])
    members = [m for m in range(1 << n) if outer.contains_mask(m)]
    rng.shuffle(members)
    inner = SqIdeal.of(n, members[:rng.randint(0, len(members))])
    return SqQuotient(n, inner, outer)


class TestExtElement:
    def test_canonicalization(self):
        x = ExtElement.of(2, [(1, 2), (1, -2), (2, 3)])
        assert x == ExtElement.of(2, [(2, 3)])
        assert ExtElement.of(2, []).is_zero

    def test_arithmetic(self):
        a, b = e(2, 1), e(2, 2)
        assert a + a == 2 * a
        assert (a - a).is_zero
        assert (-a).coeff(0b01) == -1

    def test_wedge_signs(self):
        # e3 e12 walks past two smaller indices: even, positive
        assert wedge(e(3, 3), e(3, 1, 2)) == e(3, 1, 2, 3)
        # e2 e1 is one inversion: negative
        assert wedge(e(3, 2), e(3, 1)) == -1 * e(3, 1, 2)
        assert wedge(e(3, 1), e(3, 1, 2)).is_zero
        assert wedge(ExtElement.basis(3, 0), e(3, 1, 3)) == e(3, 1, 3)

    def test_graded_commutativity(self):
        rng = random.Random(3)
        for _ in range(50):
            n = 5
            m1, m2 = rng.randrange(1 << n), rng.randrange(1 << n)
            a, b = ExtElement.basis(n, m1), ExtElement.basis(n, m2)
            sign = -1 if (bin(m1).count("1") * bin(m2).count("1")) % 2 else 1
            assert wedge(a, b) == sign * wedge(b, a)

    def test_associativity_exhaustive_n4(self):
        n = 4
        for m1, m2, m3 in itertools.product(range(1 << n), repeat=3):
            if m1 & m2 or m1 & m3 or m2 & m3:
                continue
            a, b, c = (ExtElement.basis(n, m) for m in (m1, m2, m3))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_n_mismatch(self):
        with pytest.raises(NMismatchError):
            wedge(e(2, 1), e(3, 1))

    def test_n_mismatch_in_theta_and_the_dual_image(self):
        # a generator or functional over n=7 has masks that also fit n=3
        emod = to_exterior(SqQuotient(3, SqIdeal.of(3, []), SqIdeal.of(3, [0b1])))
        assert theta(emod, IndexSet(3, 0b11), [(1, IndexSet(3, 1))]) == e(3, 1, 2)
        with pytest.raises(NMismatchError):
            theta(emod, IndexSet(3, 0b11), [(1, IndexSet(7, 1))])
        with pytest.raises(NMismatchError):
            dual_functional_image(emod, ExtElement.basis(7, 1))

    @pytest.mark.parametrize("items, message", [
        (((1, 0.5),), "not a pair of ints"),
        (((1.0, 1),), "not a pair of ints"),
        (((True, 1),), "not a pair of ints"),
        (((1, True),), "not a pair of ints"),
        # every item is checked, not only the first
        (((1, 1), (2, "3")), "not a pair of ints"),
        (((-1, 1),), "mask out of range"),
        (((1, 1), (4, 1)), "mask out of range"),
        (((2, 1), (1, 1)), "not mask sorted and unique"),
        (((1, 1), (1, 2)), "not mask sorted and unique"),
        (((1, 1), (2, 0)), "zero coefficient present"),
    ])
    def test_refused_items(self, items, message):
        with pytest.raises(ValueError, match=message):
            ExtElement(2, items)

    def test_of_refuses_a_float_mask(self):
        # it used to build an element whose str then raised
        with pytest.raises(ValueError, match="not a pair of ints"):
            ExtElement.of(2, [(1.5, 1)])


class TestModule:
    def test_reduce_kills_inner(self):
        emod = to_exterior(ring_mod([0b011], 2))
        assert emod.basis_class(0b11).is_zero
        assert emod.basis_class(0b01) == e(2, 1)

    def test_reduce_rejects_outside(self):
        emod = ExtQuotientModule(SqQuotient(2, SqIdeal.of(2, []),
                                            SqIdeal.of(2, [0b01])))
        with pytest.raises(ValueError):
            emod.reduce(e(2, 2))

    def test_reduce_matches_the_of_based_reduce(self):
        def reduce_by_of(emod, x):
            # reduce as it was before it kept x's items as a filter
            for m, _ in x.items:
                if not emod.base.outer.contains_mask(m):
                    raise ValueError(
                        f"component {IndexSet(emod.n, m)} lies outside the outer ideal")
            return ExtElement.of(
                emod.n, [(m, c) for m, c in x.items if not emod.base.inner.contains_mask(m)])

        rng = random.Random(20261020)
        outcomes = Counter()
        for _ in range(3000):
            n = rng.randrange(1, 6)
            emod = to_exterior(random_quotient(rng, n))
            x = ExtElement.of(n, [(rng.randrange(1 << n), rng.randrange(-2, 3))
                                  for _ in range(rng.randrange(6))])
            try:
                expected = reduce_by_of(emod, x)
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    emod.reduce(x)
                assert str(got.value) == str(err)
                outcomes["refused"] += 1
            else:
                assert emod.reduce(x) == expected
                outcomes["zero" if expected.is_zero else "kept"] += 1
        assert min(outcomes.values()) > 300, outcomes

    def test_multiplication(self):
        emod = to_exterior(ring_mod([0b011], 2))
        assert emod.mul_left(e(2, 1), emod.basis_class(0)) == e(2, 1)
        assert emod.mul_left(e(2, 1), emod.basis_class(0b10)).is_zero


class TestTheta:
    def test_monomial_lands_on_basis(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = _random_module(rng, n)
            supp = m.support_masks()
            if not supp:
                continue
            emod = to_exterior(m)
            f = IndexSet(n, rng.choice(supp))
            assert theta_monomial(emod, f) == ExtElement.basis(n, f)

    def test_presentation_independence(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randint(1, 6)
            m = _random_module(rng, n)
            supp = m.support_masks()
            if not supp:
                continue
            emod = to_exterior(m)
            fmask = rng.choice(supp)
            eligible = [g for g in m.outer.gen_masks if g & ~fmask == 0]
            k = rng.randint(1, len(eligible))
            chosen = rng.sample(eligible, k)
            coeffs = [rng.randint(-3, 3) for _ in chosen[:-1]]
            coeffs.append(1 - sum(coeffs))
            pres = [(a, IndexSet(n, g)) for a, g in zip(coeffs, chosen)]
            assert theta(emod, IndexSet(n, fmask), pres) == ExtElement.basis(n, fmask)

    def test_scales_with_coefficient_sum(self):
        emod = to_exterior(ring_mod([], 2))
        f = IndexSet.of(2, [1, 2])
        pres = [(5, IndexSet.of(2, []))]
        assert theta(emod, f, pres) == 5 * ExtElement.basis(2, f.mask)

    def test_rejects_bad_presentations(self):
        emod = to_exterior(SqQuotient(2, SqIdeal.of(2, []), SqIdeal.of(2, [0b01])))
        with pytest.raises(ValueError):
            theta(emod, IndexSet.of(2, [1]), [(1, IndexSet.of(2, [2]))])
        with pytest.raises(ValueError):
            theta(emod, IndexSet.of(2, [2]), [(1, IndexSet.of(2, [1]))])


class TestDualFunctionals:
    def test_pairing(self):
        phi = ExtElement.of(2, [(0b01, 2), (0b10, -1)])
        x = ExtElement.of(2, [(0b01, 3), (0b11, 7)])
        assert pairing(phi, x) == 6

    def test_right_action_closed_form(self):
        # (phi_D e_H) has one component, at D minus H, with the inversion sign
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            emod = to_exterior(m)
            supp = set(m.support_masks())
            for d in supp:
                for h in range(1 << n):
                    got = dual_right_mul(emod, ExtElement.basis(n, d),
                                         ExtElement.basis(n, h))
                    g = d & ~h
                    if h & ~d or g not in supp:
                        assert got.is_zero
                        continue
                    sign = -1 if (bin(h).count("1") * bin(g).count("1")
                                  + sigma_masks(g, h)) % 2 else 1
                    assert got == sign * ExtElement.basis(n, g)

    def test_right_action_associative(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            emod = to_exterior(m)
            supp = m.support_masks()
            if not supp:
                continue
            phi = ExtElement.of(n, [(d, rng.randint(-2, 2)) for d in supp])
            a = ExtElement.basis(n, rng.randrange(1 << n))
            b = ExtElement.basis(n, rng.randrange(1 << n))
            lhs = dual_right_mul(emod, dual_right_mul(emod, phi, a), b)
            rhs = dual_right_mul(emod, phi, wedge(a, b))
            assert lhs == rhs

    def test_functional_image_intertwines(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            emod = to_exterior(m)
            dmod = e_dual(emod)
            for d in m.support_masks():
                phi = ExtElement.basis(n, d)
                for h in range(1 << n):
                    a = ExtElement.basis(n, h)
                    lhs = dual_functional_image(emod, dual_right_mul(emod, phi, a))
                    rhs = dmod.mul_right(dual_functional_image(emod, phi), a)
                    assert lhs == rhs


class TestDecompositions:
    def test_conversion_round_trip(self):
        rng = random.Random(37)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            _, dec = sdepth(m)
            edec = s_to_e_decomposition(dec)
            assert e_to_s_decomposition(edec) == dec

    def test_piece_degrees(self):
        p = EPiece(IndexSet.of(3, [1]), IndexSet.of(3, [3]))
        (iv,) = e_to_s_decomposition(EDecomposition.of(3, [p])).intervals
        assert iv.member_masks() == (0b001, 0b101)

    def test_overlapping_piece_rejected(self):
        with pytest.raises(ValueError):
            EPiece(IndexSet.of(2, [1]), IndexSet.of(2, [1, 2]))

    def test_edual_pairs_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            edec = s_to_e_decomposition(sdepth(m)[1])
            dual, _ = edual_decomposition(edec)
            back, _ = edual_decomposition(dual)
            assert back == edec

    def test_edual_partitions_dual_module(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            edec = s_to_e_decomposition(sdepth(m)[1])
            dual, _ = edual_decomposition(edec)
            assert validate_decomposition(dualize_quotient(m),
                                          e_to_s_decomposition(dual))

    def test_dual_generators_by_pairing(self):
        # the recorded sign makes each dual generator evaluate to one on
        # the top class of its piece, and stepping by e_H stays within
        # the dual basis up to sign
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            emod = to_exterior(m)
            edec = s_to_e_decomposition(sdepth(m)[1])
            dual, signs = edual_decomposition(edec)
            by_top = {}
            for p, s in zip(dual.pieces, signs):
                full = (1 << n) - 1
                top = full ^ p.start.mask
                by_top[top] = (p, s)
            for p in edec.pieces:
                top = p.start.mask | p.free.mask
                _, s = by_top[top]
                b = s * ExtElement.basis(n, top)
                gen = emod.mul_right(emod.basis_class(p.start.mask),
                                     ExtElement.basis(n, p.free.mask))
                assert pairing(b, gen) == 1
                for h in submasks(p.free.mask):
                    got = dual_right_mul(emod, b, ExtElement.basis(n, h))
                    assert len(got.items) == 1
                    mask, c = got.items[0]
                    assert mask == top & ~h and c in (1, -1)
