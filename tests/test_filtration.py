import random

import pytest

from sqstanley.errors import NMismatchError
from sqstanley.filtration import (
    FiltrationStep,
    PrimeFiltration,
    dualize_filtration,
    facet_peel_filtration,
    filtration_to_decomposition,
    validate_filtration,
)
from sqstanley.ideals import SqIdeal
from sqstanley.setcalc import IndexSet
from sqstanley.sqmod import SqQuotient, dualize_quotient, tilde_ext, validate_decomposition


def ring_mod(ideal_masks, n):
    return SqQuotient(n, SqIdeal.of(n, ideal_masks), SqIdeal.of(n, [0]))


def step(n, degree, prime):
    return FiltrationStep(IndexSet.of(n, degree), IndexSet.of(n, prime))


def _random_module(rng, n):
    outer = SqIdeal.of(n, [rng.randrange(1 << n) for _ in range(rng.randint(0, 3))])
    members = [m for m in range(1 << n) if outer.contains_mask(m)]
    rng.shuffle(members)
    inner = SqIdeal.of(n, members[:rng.randint(0, len(members))])
    return SqQuotient(n, inner, outer)


class TestFacetPeel:
    def test_worked_example(self):
        # S/(x1x2): peel {1}, then {2}, then the empty set
        filt = facet_peel_filtration(ring_mod([0b011], 2))
        got = [(s.degree.members, s.prime.members) for s in filt.steps]
        assert got == [((1,), (2,)), ((2,), (1,)), ((), (1, 2))]

    def test_validates(self):
        rng = random.Random(101)
        for _ in range(80):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            filt = facet_peel_filtration(m)
            assert validate_filtration(m, filt)
            assert len(filt) == len(m.support_masks())

    def test_zero_module_empty(self):
        i = SqIdeal.of(2, [0b01])
        m = SqQuotient(2, i, i)
        filt = facet_peel_filtration(m)
        assert filt.steps == ()
        assert validate_filtration(m, filt)

    def test_deterministic_tie_break(self):
        filt = facet_peel_filtration(ring_mod([0b011], 2))
        again = facet_peel_filtration(ring_mod([0b011], 2))
        assert filt == again


class TestValidate:
    def test_rejects_wrong_order(self):
        m = ring_mod([0b011], 2)
        bad = PrimeFiltration(2, m.inner, (
            step(2, [], [1, 2]), step(2, [1], [2]), step(2, [2], [1])))
        assert not validate_filtration(m, bad)

    def test_rejects_wrong_prime(self):
        m = ring_mod([0b011], 2)
        bad = PrimeFiltration(2, m.inner, (
            step(2, [1], []), step(2, [2], [1]), step(2, [], [1, 2])))
        assert not validate_filtration(m, bad)

    def test_rejects_wrong_base_or_final(self):
        m = ring_mod([0b011], 2)
        good = facet_peel_filtration(m)
        other = ring_mod([0b01], 2)
        assert not validate_filtration(other, good)
        short = PrimeFiltration(2, m.inner, good.steps[:2])
        assert not validate_filtration(m, short)

    def test_n_mismatch_is_hard_error(self):
        m = ring_mod([0b011], 2)
        filt = PrimeFiltration(3, SqIdeal.of(3, []), ())
        with pytest.raises(NMismatchError):
            validate_filtration(m, filt)

    def test_step_degree_meeting_prime_rejected(self):
        with pytest.raises(ValueError):
            step(2, [1], [1, 2])


def chain_validate(module, filt):
    """The check as an explicit chain of ideals: the colon, the prime
    and the next ideal built and compared at every step."""
    if filt.base != module.inner:
        return False
    cur = filt.base
    for s in filt.steps:
        prime = SqIdeal.of(filt.n, [1 << (j - 1) for j in s.prime.members])
        if SqIdeal.of(filt.n, [h & ~s.degree.mask for h in cur.gen_masks]) != prime:
            return False
        cur = SqIdeal.of(filt.n, cur.gen_masks + (s.degree.mask,))
    return cur == module.outer


def _perturbed(rng, filt):
    """The filtration with one random defect: steps swapped or cut, a
    prime or degree replaced, or a random step inserted."""
    n, steps = filt.n, list(filt.steps)
    kind = rng.randrange(5)
    if kind == 0 and len(steps) > 1:
        i, j = rng.sample(range(len(steps)), 2)
        steps[i], steps[j] = steps[j], steps[i]
    elif kind == 1 and steps:
        del steps[rng.randrange(len(steps))]
    elif kind in (2, 3) and steps:
        i = rng.randrange(len(steps))
        g, f = steps[i].degree.mask, steps[i].prime.mask
        r = rng.randrange(1 << n)
        g, f = (g, r & ~g) if kind == 2 else (r & ~f, f)
        steps[i] = FiltrationStep(IndexSet(n, g), IndexSet(n, f))
    else:
        g = rng.randrange(1 << n)
        f = rng.randrange(1 << n) & ~g
        steps.insert(rng.randrange(len(steps) + 1),
                     FiltrationStep(IndexSet(n, g), IndexSet(n, f)))
    return PrimeFiltration(n, filt.base, tuple(steps))


def _lifted(filt, n):
    """The same generator and step masks over n variables.  Colons only
    see the masks, so validity carries over."""
    steps = tuple(FiltrationStep(IndexSet(n, s.degree.mask), IndexSet(n, s.prime.mask))
                  for s in filt.steps)
    return PrimeFiltration(n, SqIdeal(n, filt.base.gen_masks), steps)


class TestAgainstIdealChain:
    def test_valid_and_perturbed(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            filt = facet_peel_filtration(m)
            for cand in (filt, _perturbed(rng, filt), _perturbed(rng, _perturbed(rng, filt))):
                want = chain_validate(m, cand)
                assert validate_filtration(m, cand) == want
                seen.add(want)
        assert seen == {True, False}

    def test_beyond_the_word_cap(self):
        # n = 24 > MATERIALIZE_BITS: the check never materializes a support
        rng = random.Random(20261019)
        seen = set()
        for _ in range(100):
            small = facet_peel_filtration(_random_module(rng, rng.randint(1, 4)))
            for cand in (small, _perturbed(rng, small)):
                big = _perturbed(rng, _lifted(cand, 24)) if rng.random() < 0.3 \
                    else _lifted(cand, 24)
                m = SqQuotient(24, big.base, big.final_ideal())
                want = chain_validate(m, big)
                assert validate_filtration(m, big) == want
                seen.add(want)
        assert seen == {True, False}

    def test_dual_of_perturbed_filtrations(self):
        rng = random.Random(20261020)
        seen = set()
        for _ in range(100):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            filt = _perturbed(rng, facet_peel_filtration(m))
            dual = PrimeFiltration(n, tilde_ext(filt.final_ideal()), tuple(
                FiltrationStep(s.prime, s.degree) for s in reversed(filt.steps)))
            dm = dualize_quotient(filt.module())
            want = chain_validate(dm, dual)
            assert validate_filtration(dm, dual) == want
            seen.add(want)
        assert seen == {True, False}


class TestDualize:
    def test_worked_example(self):
        filt = facet_peel_filtration(ring_mod([0b011], 2))
        dual = dualize_filtration(filt)
        got = [(s.degree.members, s.prime.members) for s in dual.steps]
        assert got == [((1, 2), ()), ((1,), (2,)), ((2,), (1,))]
        assert dual.base.is_zero

    def test_dual_validates_against_dual_module(self):
        rng = random.Random(103)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = _random_module(rng, n)
            dual = dualize_filtration(facet_peel_filtration(m))
            assert validate_filtration(dualize_quotient(m), dual)

    def test_involution(self):
        rng = random.Random(107)
        for _ in range(40):
            n = rng.randint(1, 5)
            filt = facet_peel_filtration(_random_module(rng, n))
            assert dualize_filtration(dualize_filtration(filt)) == filt


class TestToDecomposition:
    def test_peel_gives_singletons(self):
        m = ring_mod([0b011], 2)
        dec = filtration_to_decomposition(facet_peel_filtration(m))
        assert all(iv.bottom == iv.top for iv in dec.intervals)
        assert validate_decomposition(m, dec)

    def test_general_step_interval(self):
        # S = S/0 at n=2 filtered by 0 < (x1) < S with free steps
        filt = PrimeFiltration(2, SqIdeal.of(2, []), (
            step(2, [1], []), step(2, [], [1])))
        m = SqQuotient(2, SqIdeal.of(2, []), SqIdeal.of(2, [0]))
        assert validate_filtration(m, filt)
        dec = filtration_to_decomposition(filt)
        got = [(iv.bottom.members, iv.top.members) for iv in dec.intervals]
        assert got == [((), (2,)), ((1,), (1, 2))]
        assert validate_decomposition(m, dec)
