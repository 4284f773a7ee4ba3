"""Betti tables on support words against the 3^n sweep they replaced.

ref_betti below is the table computation that visited every degree
sigma and every submask of it over a Python set, ranking dense +-1
matrices by dense elimination (ref_rank).  The word-based betti must
give exactly its tables, in every characteristic tested, with its
per-degree memo cold and warm, and must rank exactly the boundary maps
between adjacent nonempty levels of the degrees that are not cones.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from sqstanley import homology
from sqstanley.homology import DEFAULT_CHAR, betti
from sqstanley.instances import all_complexes, all_quotients, random_quotient
from sqstanley.partition import face_ring
from sqstanley.setcalc import SimplicialComplex, submasks
from sqstanley.sqmod import dualize_quotient

CHARS = (0, 2, 32003)


# ---------------------------------------------------------------- references

def ref_rank(rows, char):
    if not rows or not rows[0]:
        return 0
    if char:
        mat = [[x % char for x in r] for r in rows]
    else:
        mat = [[Fraction(x) for x in r] for r in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        inv = pow(lead, -1, char) if char else 1 / lead
        row = [x * inv % char if char else x * inv for x in mat[rank]]
        mat[rank] = row
        for r in range(rank + 1, len(mat)):
            c = mat[r][col]
            if c:
                mat[r] = [(a - c * b) % char if char else a - c * b
                          for a, b in zip(mat[r], row)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def ref_betti(module, char):
    supp = set(module.support_masks())
    entries = []
    for sigma in range(1 << module.n):
        bases = {}
        for t in submasks(sigma):
            if sigma ^ t in supp:
                bases.setdefault(t.bit_count(), []).append(t)
        if not bases:
            continue
        index = {i: {t: k for k, t in enumerate(lst)} for i, lst in bases.items()}
        ranks = {}
        for i in bases:
            below = index.get(i - 1)
            if not below:
                continue
            rows = []
            for t in bases[i]:
                row = [0] * len(below)
                rest = t
                while rest:
                    low = rest & -rest
                    rest ^= low
                    col = below.get(t ^ low)
                    if col is not None:
                        row[col] = -1 if (t & (low - 1)).bit_count() % 2 else 1
                rows.append(row)
            ranks[i] = ref_rank(rows, char)
        for i, lst in bases.items():
            b = len(lst) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            assert b >= 0
            if b:
                entries.append((i, sigma, b))
    return tuple(sorted(entries))


def ref_rank_calls(module):
    """Boundary maps between two nonempty levels, summed over the
    degrees that are not cones: one rank each."""
    n = module.n
    supp = set(module.support_masks())
    calls = 0
    for sigma in range(1 << n):
        inside = [u for u in submasks(sigma) if u in supp]
        if not inside:
            continue
        if any(all((u in supp) == (u | 1 << v in supp) for u in submasks(sigma & ~(1 << v)))
               for v in range(n) if sigma >> v & 1):
            continue
        levels = {(sigma ^ u).bit_count() for u in inside}
        calls += sum(i - 1 in levels for i in levels)
    return calls


def modules_and_duals(modules):
    for module in modules:
        yield module
        yield dualize_quotient(module)


# ---------------------------------------------------------------- tables

@pytest.fixture(scope="module")
def small_modules():
    return list(modules_and_duals(m for n in range(5) for m in all_quotients(n)))


@pytest.mark.parametrize("char", CHARS)
def test_every_small_module_and_dual(small_modules, char):
    assert len(small_modules) == 2 * (1 + 7578)
    homology._degree_betti.cache_clear()
    refs = [ref_betti(module, char) for module in small_modules]
    for _ in ("cold", "warm"):
        for module, ref in zip(small_modules, refs):
            assert betti(module, char).entries == ref, module


def test_every_n5_face_ring_and_dual():
    seen = 0
    for module in modules_and_duals(face_ring(cx) for cx in all_complexes(5)):
        assert betti(module).entries == ref_betti(module, DEFAULT_CHAR), module
        seen += 1
    assert seen == 2 * 7580


@pytest.mark.parametrize("char", CHARS)
def test_seeded_random_modules_n5_to_n8(char):
    rng = random.Random(20261018)
    modules = [random_quotient(rng, 5 + k % 4) for k in range(100)]
    for module in modules_and_duals(modules):
        assert betti(module, char).entries == ref_betti(module, char), module


def test_only_non_cone_multi_level_degrees_are_ranked(small_modules, monkeypatch):
    calls = []
    real = homology._rank

    def counted(rows, char):
        calls.append(len(rows))
        return real(rows, char)
    monkeypatch.setattr(homology, "_rank", counted)
    for module in small_modules[::7]:
        # within one module every degree is distinct, so a cold memo
        # ranks each of them once
        homology._degree_betti.cache_clear()
        calls.clear()
        betti(module)
        assert len(calls) == ref_rank_calls(module), module


# ---------------------------------------------------------------- memo

def test_the_characteristic_is_part_of_the_memo_key():
    # the 6-vertex real projective plane: H_1 = Z/2, so its face ring
    # has one more syzygy level in characteristic 2 only
    cx = SimplicialComplex.from_facets(6, [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)])
    ring = face_ring(cx)
    homology._degree_betti.cache_clear()
    totals = []
    for char in (0, 2, 0):
        table = betti(ring, char)
        totals.append([table.total(i) for i in range(table.projdim + 1)])
    assert totals == [[1, 10, 15, 6], [1, 10, 15, 7, 1], [1, 10, 15, 6]]


def test_the_memo_is_bounded_and_kept_only_up_to_n6(small_modules):
    homology._degree_betti.cache_clear()
    for char in CHARS:
        for module in small_modules:
            betti(module, char)
    info = homology._degree_betti.cache_info()
    assert info.maxsize == homology._DEGREE_MEMO
    # nothing was evicted: the bound holds every n <= 4 pattern
    assert info.currsize == info.misses <= info.maxsize
    rng = random.Random(7)
    assert not betti(random_quotient(rng, 6)).is_empty
    kept = homology._degree_betti.cache_info()
    assert info.misses < kept.misses and kept.currsize <= kept.maxsize
    # above n = 6 no degree is looked up or kept
    assert not betti(random_quotient(rng, 7)).is_empty
    assert homology._degree_betti.cache_info() == kept


# ---------------------------------------------------------------- ranks

def test_rank_matches_dense_elimination():
    rng = random.Random(5)
    for _ in range(400):
        rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in range(rng.randrange(1, 7))]]
        rows += [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in rows[0]]
                 for _ in range(rng.randrange(6))]
        for char in (0, 2, 3, 5, 32003):
            assert homology._rank(rows, char) == ref_rank(rows, char), (rows, char)


def test_rank_over_the_rationals_is_not_modular():
    for p in (2, 3, 32003, 2 ** 61 - 1):
        assert homology._rank([[p]], 0) == 1
        assert homology._rank([[p]], p) == 0
    assert homology._rank([[1, 1], [1, -1]], 0) == 2
    assert homology._rank([[1, 1], [1, -1]], 2) == 1
    assert homology._rank([], 0) == homology._rank([[]], 3) == 0


# ---------------------------------------------------------------- characteristic

@pytest.mark.parametrize("char", [1, 4, -3, 561, 2 ** 64 - 1, 2 ** 64 + 13,
                                  3825123056546413051, 0.0, False])
def test_betti_refuses_a_characteristic_that_is_not_0_or_prime(char):
    module = next(iter(all_quotients(2)))
    with pytest.raises(ValueError, match=str(char)):
        betti(module, char)


def test_primality_is_tested_once_per_characteristic():
    modules = list(all_quotients(2))
    homology._is_prime.cache_clear()
    for char in (DEFAULT_CHAR, 2 ** 61 - 1):
        for module in modules:
            assert betti(module, char).char == char
    assert homology._is_prime.cache_info().misses == 2
    # the cache sits behind the type test, so values equal to an accepted
    # int are still refused
    for bad in (32003.0, True):
        with pytest.raises(ValueError):
            homology.check_char(bad)


def test_primality_matches_trial_division():
    for p in range(20000):
        prime = p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))
        try:
            homology.check_char(p)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (prime or p == 0), p


@pytest.mark.parametrize("char", [2 ** 31 - 1, 2 ** 61 - 1, 2 ** 64 - 59])
def test_large_primes_are_accepted(small_modules, char):
    homology.check_char(char)
    for module in small_modules[::25]:
        assert betti(module, char).entries == ref_betti(module, char), module
