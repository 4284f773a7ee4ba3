import random

import pytest

from sqstanley.cover import first_interval_partition
from sqstanley.errors import NonSquarefreeError, ZeroModuleError
from sqstanley.ideals import Monomial, MonomialIdeal, SqIdeal
from sqstanley.setcalc import IndexSet, Interval, family_word
from sqstanley.sqmod import (
    SqQuotient,
    StanleyDecomposition,
    associated_primes,
    build_quotient,
    dualize_decomposition,
    dualize_quotient,
    hreg_min,
    sdepth,
    squarefree_certificate,
    tilde_ext,
    validate_decomposition,
)


def mono(*e):
    return Monomial.of(*e)


def ring_mod(ideal_masks, n):
    """S/I as a quotient: unit ideal over the given squarefree ideal."""
    return SqQuotient(n, SqIdeal.of(n, ideal_masks), SqIdeal.of(n, [0]))


def free_module(n):
    return SqQuotient(n, SqIdeal.of(n, []), SqIdeal.of(n, [0]))


def max_ideal_mod(n):
    return SqQuotient(n, SqIdeal.of(n, []),
                      SqIdeal.of(n, [1 << j for j in range(n)]))


class TestCoverEngine:
    def test_single_interval_when_allowed(self):
        supp = set(range(4))
        got = first_interval_partition(family_word(supp), lambda e: [3, 2, 1, 0])
        assert got == [(0, 3)]

    def test_respects_candidate_gate(self):
        # only the facet {1,2} may be a top; {2} is then uncoverable
        supp = {0b00, 0b01, 0b11}
        got = first_interval_partition(family_word(supp), lambda e: [0b11])
        assert got is None

    def test_empty_support(self):
        assert first_interval_partition(family_word(set()), lambda e: []) == []

    def test_deterministic(self):
        supp = {0, 1, 2, 3, 5, 7}
        runs = [first_interval_partition(family_word(supp), lambda e: sorted(
            (t for t in supp if t & e == e), key=lambda t: (-bin(t).count("1"), t)))
            for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestSqQuotient:
    def test_support_of_ring_mod(self):
        m = ring_mod([0b011], 2)
        assert m.support_masks() == (0b00, 0b01, 0b10)

    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            SqQuotient(2, SqIdeal.of(2, [0b01]), SqIdeal.of(2, [0b11]))

    def test_zero_module(self):
        i = SqIdeal.of(2, [0b01])
        m = SqQuotient(2, i, i)
        assert m.is_zero and m.support_masks() == ()
        with pytest.raises(ZeroModuleError):
            sdepth(m)
        with pytest.raises(ZeroModuleError):
            hreg_min(m)

    def test_facets_and_minimals(self):
        m = ring_mod([0b011], 2)
        assert m.facet_masks() == (0b01, 0b10)
        assert m.minimal_masks() == (0b00,)

    def test_from_support_round_trip(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 6)
            outer = SqIdeal.of(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
            members = [m for m in range(1 << n) if outer.contains_mask(m)]
            rng.shuffle(members)
            inner_gens = members[:rng.randint(0, len(members))]
            inner = SqIdeal.of(n, inner_gens)
            m = SqQuotient(n, inner, outer)
            rebuilt = SqQuotient.from_support(n, m.support_masks())
            assert rebuilt.support_masks() == m.support_masks()
            # the rebuilt presentation is minimal: rebuilding it is a fixpoint
            again = SqQuotient.from_support(n, rebuilt.support_masks())
            assert again == rebuilt

    def test_from_support_rejects_nonconvex(self):
        # {1} and {1,2,3} present, {1,2} missing
        with pytest.raises(ValueError, match="order convex"):
            SqQuotient.from_support(3, [0b001, 0b111])


class TestCertificate:
    def test_accepts_with_correct_support(self):
        inner = MonomialIdeal.of(3, [mono(2, 0, 0), mono(1, 1, 0)])
        outer = MonomialIdeal.of(3, [mono(2, 0, 0), mono(1, 1, 0), mono(0, 1, 1)])
        cert = squarefree_certificate(inner, outer)
        assert cert.ok
        assert cert.support_masks == (0b110,)
        m = build_quotient(inner, outer)
        assert m.support_masks() == (0b110,)

    def test_rejects_with_pair_witness(self):
        inner = MonomialIdeal.of(3, [mono(2, 0, 0), mono(0, 1, 1)])
        outer = MonomialIdeal.of(3, [mono(2, 0, 0), mono(1, 1, 0), mono(0, 1, 1)])
        cert = squarefree_certificate(inner, outer)
        assert not cert.ok
        u, m = cert.witness_pair
        assert u == mono(2, 0, 0)
        assert m == mono(1, 1, 0)
        with pytest.raises(NonSquarefreeError):
            build_quotient(inner, outer)

    def test_rejects_nonsquarefree_minimal(self):
        # J = (x^2), I = 0: the only minimal member is x^2
        cert = squarefree_certificate(MonomialIdeal.zero(1), MonomialIdeal.of(1, [mono(2)]))
        assert not cert.ok
        assert cert.witness_nonsquarefree == mono(2)

    def test_principal_shift_not_squarefree(self):
        # (x)/(x^2) is one dimensional in degree 1 but dies one step up
        cert = squarefree_certificate(MonomialIdeal.of(1, [mono(2)]),
                                      MonomialIdeal.of(1, [mono(1)]))
        assert not cert.ok
        assert cert.witness_pair == (mono(2), mono(1))

    def test_squarefree_inputs_accepted_directly(self):
        m = build_quotient(MonomialIdeal.of(2, [mono(1, 1)]), MonomialIdeal.unit(2))
        assert m.support_masks() == (0b00, 0b01, 0b10)

    def test_zero_difference(self):
        ideal = MonomialIdeal.of(2, [mono(1, 0)])
        assert build_quotient(ideal, ideal).is_zero


class TestSdepth:
    def test_free_module(self):
        for n in range(1, 5):
            k, dec = sdepth(free_module(n))
            assert k == n
            assert len(dec.intervals) == 1
            assert validate_decomposition(free_module(n), dec)

    def test_maximal_ideal_ceil_half(self):
        # the graded maximal ideal has Stanley depth ceil(n/2)
        # (Biro-Howard-Keller-Trotter-Young, JCTA 117, 2010)
        for n in range(1, 7):
            k, dec = sdepth(max_ideal_mod(n))
            assert k == (n + 1) // 2
            assert validate_decomposition(max_ideal_mod(n), dec)
            assert dec.sdepth == k

    def test_principal_quotient(self):
        m = ring_mod([0b011], 2)
        k, dec = sdepth(m)
        assert k == 1
        assert validate_decomposition(m, dec)

    def test_interval_module(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 6)
            top = rng.randrange(1 << n)
            bottom = top & rng.randrange(1 << n)
            iv = Interval(IndexSet(n, bottom), IndexSet(n, top))
            m = SqQuotient.from_support(n, iv.member_masks())
            k, dec = sdepth(m)
            assert k == bin(top).count("1")
            h, hdec = hreg_min(m)
            assert h == bin(bottom).count("1")
            assert validate_decomposition(m, dec)
            assert validate_decomposition(m, hdec)

    def test_optimality(self):
        rng = random.Random(97)
        from sqstanley.sqmod import _cover_max_bottom, _cover_min_top
        for _ in range(30):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            k, dec = sdepth(m)
            assert validate_decomposition(m, dec) and dec.sdepth >= k
            assert _cover_min_top(m, k + 1) is None
            h, hdec = hreg_min(m)
            assert validate_decomposition(m, hdec) and hdec.hreg <= h
            assert h == 0 or _cover_max_bottom(m, h - 1) is None


class TestHregMin:
    def test_free_module(self):
        h, dec = hreg_min(free_module(3))
        assert h == 0 and len(dec.intervals) == 1

    def test_principal_quotient(self):
        h, _ = hreg_min(ring_mod([0b011], 2))
        assert h == 1

    def test_ring_mod_zero_iff_simplex(self):
        # bottoms can all be empty only when the support is one interval
        h, _ = hreg_min(ring_mod([0b11], 2))
        assert h == 1
        simplex = SqQuotient(2, SqIdeal.of(2, [0b11]), SqIdeal.of(2, [0]))
        assert hreg_min(simplex)[0] == 1


class TestDualize:
    def test_ring_mod_dual_is_ideal(self):
        m = ring_mod([0b011], 2)
        d = dualize_quotient(m)
        assert d.inner.is_zero
        assert d.outer == SqIdeal.of(2, [0b01, 0b10])

    def test_double_dual_identity(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 6)
            m = _random_module(rng, n)
            assert dualize_quotient(dualize_quotient(m)) == m

    def test_support_complement(self):
        rng = random.Random(43)
        full3 = 0b111
        m = _random_module(rng, 3)
        d = dualize_quotient(m)
        assert set(d.support_masks()) == {full3 ^ s for s in m.support_masks()}

    def test_tilde_ext_swaps_trivial_ideals(self):
        unit, zero = SqIdeal.of(2, [0]), SqIdeal.of(2, [])
        assert tilde_ext(unit) == zero
        assert tilde_ext(zero) == unit


class TestDecompositions:
    def test_canonical_order_enforced(self):
        ivs = (Interval(IndexSet(2, 2), IndexSet(2, 2)),
               Interval(IndexSet(2, 0), IndexSet(2, 1)))
        with pytest.raises(ValueError):
            StanleyDecomposition(2, ivs)
        dec = StanleyDecomposition.of(2, ivs)
        assert dec.intervals[0].bottom.mask == 0

    def test_validate_catches_overlap_and_gap(self):
        m = ring_mod([0b011], 2)
        good = StanleyDecomposition.from_masks(2, [(0, 1), (2, 2)])
        assert validate_decomposition(m, good)
        overlap = StanleyDecomposition.from_masks(2, [(0, 1), (1, 1), (2, 2)])
        assert not validate_decomposition(m, overlap)
        gap = StanleyDecomposition.from_masks(2, [(0, 1)])
        assert not validate_decomposition(m, gap)

    def test_dualize_involution_and_validity(self):
        rng = random.Random(59)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            _, dec = sdepth(m)
            dd = dualize_decomposition(dec)
            assert dualize_decomposition(dd) == dec
            assert validate_decomposition(dualize_quotient(m), dd)

    def test_dual_swaps_sdepth_and_hreg(self):
        m = max_ideal_mod(3)
        _, dec = sdepth(m)
        dd = dualize_decomposition(dec)
        assert dd.hreg == 3 - dec.sdepth
        assert dd.sdepth == 3 - dec.hreg


class TestAssociatedPrimes:
    def test_ring_mod_principal(self):
        assert [p.members for p in associated_primes(ring_mod([0b011], 2))] == [(1,), (2,)]

    def test_free_module(self):
        assert [p.members for p in associated_primes(free_module(2))] == [()]

    def test_residue_field(self):
        m = ring_mod([0b01, 0b10], 2)
        assert [p.members for p in associated_primes(m)] == [(1, 2)]

    def test_shifted_principal(self):
        # (x1)/(x1x2) behaves like S/(x2) shifted: one associated prime (x2)
        m = SqQuotient(2, SqIdeal.of(2, [0b11]), SqIdeal.of(2, [0b01]))
        assert [p.members for p in associated_primes(m)] == [(2,)]

    def test_embedded_prime(self):
        # S/(x1x2, x1x3, x2x3) has facets {1},{2},{3}; all three primes are
        # complements of facets
        m = ring_mod([0b011, 0b101, 0b110], 3)
        got = {p.mask for p in associated_primes(m)}
        assert got == {0b110, 0b101, 0b011}


def _random_module(rng, n):
    outer = SqIdeal.of(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
    members = [m for m in range(1 << n) if outer.contains_mask(m)]
    rng.shuffle(members)
    inner = SqIdeal.of(n, members[:rng.randint(0, len(members))])
    return SqQuotient(n, inner, outer)
