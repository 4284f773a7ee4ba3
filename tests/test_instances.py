import random

import pytest

from sqstanley.errors import CapExceededError
from sqstanley.instances import (
    all_antichains,
    all_complexes,
    all_quotients,
    all_sq_ideals,
    proper_nonzero_ideals,
    random_complex,
    random_quotient,
    random_sq_ideal,
)


class TestAntichains:
    def test_dedekind_counts(self):
        assert [sum(1 for _ in all_antichains(n)) for n in range(1, 6)] \
            == [3, 6, 20, 168, 7581]

    def test_small_case_listing(self):
        assert list(all_antichains(1)) == [(), (0,), (1,)]
        assert list(all_antichains(2)) == [
            (), (0,), (1,), (1, 2), (2,), (3,)]

    def test_members_ascend(self):
        for chain in all_antichains(4):
            assert list(chain) == sorted(chain)

    def test_pairwise_incomparable(self):
        for chain in all_antichains(4):
            for i, a in enumerate(chain):
                for b in chain[i + 1:]:
                    assert a & b != a and a & b != b

    def test_no_duplicates(self):
        chains = list(all_antichains(4))
        assert len(chains) == len(set(chains))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            next(all_antichains(7))


class TestIdealSweeps:
    def test_ideal_count_matches(self):
        assert sum(1 for _ in all_sq_ideals(3)) == 20

    def test_proper_nonzero_excludes_two(self):
        assert sum(1 for _ in proper_nonzero_ideals(3)) == 18

    def test_ideals_distinct(self):
        gens = [i.gen_masks for i in all_sq_ideals(4)]
        assert len(gens) == len(set(gens))

    def test_complexes_are_nonvoid(self):
        complexes = list(all_complexes(3))
        assert len(complexes) == 19
        assert all(not c.is_void for c in complexes)

    def test_quotient_count_n2(self):
        # member up-sets of the 2-cube nest in 14 strict pairs
        mods = list(all_quotients(2))
        assert len(mods) == 14
        assert all(not m.is_zero for m in mods)

    def test_quotients_deterministic(self):
        a = [(m.inner.gen_masks, m.outer.gen_masks) for m in all_quotients(3)]
        b = [(m.inner.gen_masks, m.outer.gen_masks) for m in all_quotients(3)]
        assert a == b


class TestRandomGenerators:
    def test_seed_reproducibility(self):
        a = [random_sq_ideal(random.Random(42), 5).gen_masks for _ in range(3)]
        assert len(set(a)) == 1
        r1, r2 = random.Random(7), random.Random(7)
        for _ in range(20):
            assert random_quotient(r1, 4).support_masks() == random_quotient(r2, 4).support_masks()

    def test_random_ideal_never_unit(self):
        rng = random.Random(0)
        for _ in range(200):
            assert not random_sq_ideal(rng, 3).is_unit

    def test_random_quotient_nonzero(self):
        rng = random.Random(1)
        for _ in range(100):
            assert not random_quotient(rng, rng.randrange(1, 7)).is_zero

    def test_random_complex_nonvoid(self):
        rng = random.Random(2)
        for _ in range(100):
            assert not random_complex(rng, rng.randrange(1, 7)).is_void
