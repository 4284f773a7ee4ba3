import itertools
import random

import pytest

from sqstanley.cover import first_interval_partition
from sqstanley.errors import NonSquarefreeError, ZeroModuleError
from sqstanley.instances import all_quotients, random_quotient
from sqstanley.ideals import Monomial, MonomialIdeal, SqIdeal
from sqstanley.setcalc import IndexSet, Interval, family_word
from sqstanley.sqmod import (
    SqQuotient,
    StanleyDecomposition,
    _hreg_walk,
    _is_partition,
    _level_cover,
    _sdepth_walk,
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


def box_sweep_certificate(inner, outer):
    """The certificate's fields by sweeping every monomial of the
    exponent box that the generators span: squarefree_certificate as it
    was before it read the generators, kept as its oracle."""
    n = inner.n
    caps = [max([1, *(g.exponents[i] for g in inner.gens + outer.gens)]) for i in range(n)]
    members = sorted((m for m in (Monomial(e) for e in itertools.product(
        *(range(c + 1) for c in caps))) if m in outer and m not in inner),
        key=Monomial.sort_key)
    minimal = [m for m in members
               if not any(Monomial(tuple(e - (k == i) for k, e in enumerate(m.exponents))) in outer
                          for i in range(n) if m.exponents[i])]
    nonsquarefree = next((m for m in minimal if not m.is_squarefree), None)
    pair = next(((u, m) for m in members for u in inner.gens
                 if u.support_mask & ~m.support_mask == 0), None)
    if nonsquarefree is not None or pair is not None:
        return False, None, nonsquarefree, pair
    return True, tuple(sorted({m.support_mask for m in members})), None, None


def _random_monomial_pair(rng):
    """Seeded inner and outer monomial ideals, inner inside outer."""
    n = rng.randrange(1, 5)

    def mono_below(top):
        return Monomial(tuple(rng.randrange(top) for _ in range(n)))

    outer = MonomialIdeal.of(n, [mono_below(3) for _ in range(rng.randrange(4))])
    multiples = [g * mono_below(2) for g in outer.gens for _ in range(rng.randrange(3))]
    inner = MonomialIdeal.of(n, rng.sample(multiples, min(len(multiples), rng.randrange(4))))
    return inner, outer


def test_certificate_matches_the_box_sweep():
    rng = random.Random(20261019)
    accepted = 0
    for _ in range(2000):
        inner, outer = _random_monomial_pair(rng)
        cert = squarefree_certificate(inner, outer)
        got = (cert.ok, cert.support_masks, cert.witness_nonsquarefree, cert.witness_pair)
        assert got == box_sweep_certificate(inner, outer), (inner, outer)
        accepted += cert.ok
    # both outcomes are well represented
    assert 500 < accepted < 1500


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

    def test_optimality(self, max_bottom):
        rng = random.Random(97)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = _random_module(rng, n)
            if m.is_zero:
                continue
            k, dec = sdepth(m)
            assert validate_decomposition(m, dec) and dec.sdepth >= k
            assert _level_cover(m.support_masks(), k + 1) is None
            h, hdec = hreg_min(m)
            assert validate_decomposition(m, hdec) and hdec.hreg <= h
            assert h == 0 or max_bottom(m, h - 1) is None


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
        # raw pairs, as the survey checks its witnesses: a bottom outside
        # its top, and a repeat that keeps the member count
        masks = m.support_masks()
        assert _is_partition(masks, [(0, 1), (2, 2)])
        assert not _is_partition(masks, [(1, 0), (0, 0), (2, 2)])
        assert not _is_partition(masks, [(0, 1), (1, 1)])

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

    def test_from_masks_matches_the_of_based_build(self):
        def of_based(n, pairs):
            # from_masks as it was: each interval built on two IndexSets,
            # then the objects sorted by `of`
            return StanleyDecomposition.of(
                n, (Interval(IndexSet(n, b), IndexSet(n, t)) for b, t in pairs))

        modules = [m for n in range(1, 5) for m in all_quotients(n)]
        modules += [SqQuotient.from_support(n, [m for m in range(1 << n) if d <= m.bit_count() <= e])
                    for n in (5, 6) for d in range(n + 1) for e in range(d, n + 1)]
        rng = random.Random(20)
        modules += [random_quotient(rng, 7) for _ in range(150)]
        assert len(modules) == 3 + 14 + 148 + 7413 + 49 + 150
        for module in modules:
            n = module.n
            for _, pairs in (_sdepth_walk(module), _hreg_walk(module)):
                # the witness, then reversed with its first pair repeated
                for variant in (pairs, pairs[::-1] + pairs[:1]):
                    assert StanleyDecomposition.from_masks(n, variant) == of_based(n, variant)

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


def pairwise_associated_primes(module):
    """associated_primes as it was before minimal_sets: an all-pairs
    filter of each colon set."""
    gens = module.inner.gen_masks
    found = set()
    for g in module.support_masks():
        colon = {h & ~g for h in gens}
        minimal = [m for m in colon if not any(o != m and o & m == o for o in colon)]
        if all(m.bit_count() == 1 for m in minimal):
            f = 0
            for m in minimal:
                f |= m
            found.add(f)
    return tuple(sorted(found))


def test_antichain_readers_match_the_pairwise_loops():
    modules = [m for n in range(5) for m in all_quotients(n)]
    modules += [dualize_quotient(m) for m in modules]
    assert len(modules) == 2 * (1 + 7578)
    for module in modules:
        assert tuple(p.mask for p in associated_primes(module)) \
            == pairwise_associated_primes(module), module
        support = module.support_masks()
        assert module.facet_masks() == tuple(
            m for m in support if not any(m != o and m & o == m for o in support)), module
        assert module.minimal_masks() == tuple(
            m for m in support if not any(m != o and m & o == o for o in support)), module


def _random_module(rng, n):
    outer = SqIdeal.of(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
    members = [m for m in range(1 << n) if outer.contains_mask(m)]
    rng.shuffle(members)
    inner = SqIdeal.of(n, members[:rng.randint(0, len(members))])
    return SqQuotient(n, inner, outer)
