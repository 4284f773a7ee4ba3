import itertools

import pytest
from hypothesis import given, strategies as st

from sqstanley.errors import CapExceededError, NMismatchError
from sqstanley.setcalc import (
    IndexSet,
    Interval,
    SimplicialComplex,
    alexander_dual,
    interval_members,
    minimal_nonface_masks,
    minimal_sets,
    sigma,
    sigma_masks,
    submasks,
)


def iset(n, *members):
    return IndexSet.of(n, members)


small_sets = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
)


class TestIndexSet:
    def test_members_round_trip(self):
        s = iset(5, 1, 3, 5)
        assert s.members == (1, 3, 5)
        assert s.mask == 0b10101
        assert len(s) == 3
        assert list(s) == [1, 3, 5]
        assert 3 in s and 2 not in s and 6 not in s

    def test_construction_rejects_bad_input(self):
        with pytest.raises(ValueError):
            IndexSet(3, 8)
        with pytest.raises(ValueError):
            IndexSet(-1, 0)
        with pytest.raises(ValueError):
            IndexSet(65, 0)
        with pytest.raises(ValueError):
            IndexSet.of(3, [0])
        with pytest.raises(ValueError):
            IndexSet.of(3, [4])

    def test_colex_order_is_mask_order(self):
        # all subsets of [3] sorted colex
        order = sorted((IndexSet(3, m) for m in range(8)))
        expected = [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3), (1, 2, 3)]
        assert [s.members for s in order] == expected

    def test_n_mismatch_is_hard_error(self):
        a, b = iset(3, 1), iset(4, 1)
        for op in (lambda: a | b, lambda: a & b, lambda: a - b, lambda: a < b,
                   lambda: a.issubset(b), lambda: a.isdisjoint(b), lambda: sigma(a, b)):
            with pytest.raises(NMismatchError):
                op()

    def test_set_algebra(self):
        a, b = iset(4, 1, 2), iset(4, 2, 3)
        assert (a | b).members == (1, 2, 3)
        assert (a & b).members == (2,)
        assert (a - b).members == (1,)
        assert a.complement().members == (3, 4)
        assert a.complement().complement() == a
        assert iset(4, 2).issubset(a)
        assert not a.issubset(b)
        assert iset(4, 1).isdisjoint(iset(4, 3, 4))

    @given(small_sets)
    def test_complement_involution(self, nm):
        n, m = nm
        s = IndexSet(n, m)
        assert s.complement().complement() == s
        assert len(s) + len(s.complement()) == n


class TestSigma:
    def test_known_value(self):
        # G={3,5}, F={1,2}: pairs (3,1),(3,2),(5,1),(5,2)
        assert sigma(iset(5, 3, 5), iset(5, 1, 2)) == 4
        assert sigma(iset(5, 1, 2), iset(5, 3, 5)) == 0

    def test_empty_and_self(self):
        assert sigma(iset(3), iset(3, 1, 2, 3)) == 0
        assert sigma(iset(3, 1, 2, 3), iset(3)) == 0
        # within one set every unordered pair inverts exactly once
        s = iset(4, 1, 3, 4)
        assert sigma_masks(s.mask, s.mask) == 3

    @given(small_sets, st.integers(min_value=0, max_value=255))
    def test_disjoint_pair_count(self, nm, raw):
        n, g = nm
        f = raw & ~g & ((1 << n) - 1)
        G, F = IndexSet(n, g), IndexSet(n, f)
        assert sigma(G, F) + sigma(F, G) == len(G) * len(F)

    def test_triple_reassociation_exhaustive_n4(self):
        # sigma(F, G|H) + sigma(G, H) == sigma(F|G, H) + sigma(F, G)
        for assign in itertools.product(range(4), repeat=4):
            f = sum(1 << i for i, a in enumerate(assign) if a == 1)
            g = sum(1 << i for i, a in enumerate(assign) if a == 2)
            h = sum(1 << i for i, a in enumerate(assign) if a == 3)
            assert sigma_masks(f, g | h) + sigma_masks(g, h) == \
                sigma_masks(f | g, h) + sigma_masks(f, g)


class TestInterval:
    def test_members_colex(self):
        got = interval_members(iset(3, 1), iset(3, 1, 2, 3))
        assert [s.members for s in got] == [(1,), (1, 2), (1, 3), (1, 2, 3)]

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Interval(iset(3, 2), iset(3, 1, 3))
        with pytest.raises(NMismatchError):
            Interval(iset(3, 1), iset(4, 1))

    def test_membership_and_size(self):
        iv = Interval(iset(4, 2), iset(4, 1, 2, 3))
        assert len(iv) == 4
        assert iset(4, 1, 2) in iv
        assert iset(4, 1) not in iv
        assert iset(4, 1, 2, 4) not in iv

    def test_degenerate_interval(self):
        iv = Interval(iset(2, 1), iset(2, 1))
        assert iv.member_masks() == (0b01,)

    def test_submask_enumeration_increasing(self):
        for mask in range(32):
            subs = list(submasks(mask))
            assert subs == sorted(subs)
            assert len(subs) == 1 << mask.bit_count()


class TestSimplicialComplex:
    def test_normalization(self):
        cx = SimplicialComplex.from_facets(3, [(1,), (1, 2), (1, 2), (3,)])
        assert [f.members for f in cx.facets] == [(1, 2), (3,)]

    def test_void_and_irrelevant(self):
        void = SimplicialComplex.from_facets(2, [])
        irr = SimplicialComplex.from_facets(2, [()])
        assert void.is_void and void.faces() == ()
        assert iset(2) not in void
        assert not irr.is_void
        assert [f.members for f in irr.faces()] == [()]

    def test_faces_closure_colex(self):
        cx = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
        assert [f.members for f in cx.faces()] == \
            [(), (1,), (2,), (1, 2), (3,), (1, 3), (2, 3)]
        assert iset(3, 1, 2, 3) not in cx
        assert iset(3, 2, 3) in cx

    def test_raw_constructor_validates(self):
        for facets in ((iset(3, 1, 2), iset(3, 1)), (iset(3, 2), iset(3, 1)),
                       (iset(3, 1), iset(3, 1)), (iset(3, 1), iset(3, 1, 2)),
                       (iset(3, 1, 2), iset(3, 3), iset(3, 1, 3))):
            with pytest.raises(ValueError, match="antichain"):
                SimplicialComplex(3, facets)
        assert SimplicialComplex(3, [iset(3, 1, 2), iset(3, 3)]).facet_masks() == (0b011, 0b100)
        with pytest.raises(NMismatchError):
            SimplicialComplex(3, (iset(2, 1),))


class TestAlexanderDual:
    def test_known_dual(self):
        cx = SimplicialComplex.from_facets(3, [(1, 2), (3,)])
        assert [f.members for f in alexander_dual(cx).facets] == [(1,), (2,)]

    def test_full_and_void(self):
        full = SimplicialComplex.from_facets(3, [(1, 2, 3)])
        void = SimplicialComplex.from_facets(3, [])
        assert alexander_dual(full).is_void
        assert alexander_dual(void).facets == (iset(3, 1, 2, 3),)

    def test_minimal_nonfaces(self):
        cx = SimplicialComplex.from_facets(3, [(1, 2), (3,)])
        assert minimal_nonface_masks(cx) == (0b101, 0b110)

    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_involution_and_definition(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=4))
        raw = [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)) for _ in range(k)]
        cx = SimplicialComplex.from_facets(n, [IndexSet(n, m) for m in raw])
        dual = alexander_dual(cx)
        assert alexander_dual(dual) == cx
        # the defining membership test, checked pointwise
        for m in range(1 << n):
            f = IndexSet(n, m)
            assert (f in dual) == (f.complement() not in cx)

    def test_inclusion_reversing(self):
        small = SimplicialComplex.from_facets(4, [(1, 2), (3,)])
        big = SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (4,)])
        assert all(f in big for f in small.faces())
        ds, db = alexander_dual(small), alexander_dual(big)
        assert all(f in ds for f in db.faces())


def pairwise_minimal(masks):
    """The all-pairs filter that minimal_sets replaced."""
    family = set(masks)
    return tuple(sorted(m for m in family if not any(o != m and o & m == o for o in family)))


def pairwise_maximal(masks):
    """The all-pairs filter that from_facets used before minimal_sets."""
    family = set(masks)
    return tuple(sorted(m for m in family if not any(m != o and m & o == m for o in family)))


def pairwise_complex_rule(masks):
    """The all-pairs form of the raw SimplicialComplex rule: colex
    order, no repeats, no nested pair."""
    return masks == sorted(masks) and not any(
        a == b or a & b == a or a & b == b
        for i, a in enumerate(masks) for b in masks[i + 1:])


# lists over [n] with repeats, the empty set and the full set drawn often
mask_lists = st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.one_of(st.sampled_from([0, (1 << n) - 1]),
                       st.integers(min_value=0, max_value=(1 << n) - 1)), max_size=14)
    .flatmap(lambda ms: st.permutations(ms + ms[:len(ms) // 3]))))


class TestMinimalSets:
    @given(mask_lists)
    def test_matches_the_pairwise_filter(self, nm):
        _, masks = nm
        assert minimal_sets(masks) == pairwise_minimal(masks)
        assert minimal_sets(iter(masks)) == minimal_sets(reversed(masks))

    @given(mask_lists)
    def test_maximal_sets_by_complement(self, nm):
        n, masks = nm
        full = (1 << n) - 1
        by_complement = tuple(full ^ m for m in reversed(minimal_sets(full ^ m for m in masks)))
        assert by_complement == pairwise_maximal(masks)
        cx = SimplicialComplex.from_facets(n, [IndexSet(n, m) for m in masks])
        assert cx.facet_masks() == pairwise_maximal(masks)

    def test_small_values(self):
        assert minimal_sets([]) == ()
        assert minimal_sets([0b111, 0, 0b101, 0]) == (0,)
        assert minimal_sets([0b111, 0b110, 0b011, 0b110]) == (0b011, 0b110)
        assert minimal_sets([0b100, 0b001, 0b010]) == (0b001, 0b010, 0b100)

    def test_complex_constructor_matches_the_pairwise_rule(self):
        # every facet sequence of length <= 3 over [n], n <= 3
        for n in range(4):
            for length in range(4):
                for masks in itertools.product(range(1 << n), repeat=length):
                    facets = tuple(IndexSet(n, m) for m in masks)
                    try:
                        SimplicialComplex(n, facets)
                        accepted = True
                    except ValueError:
                        accepted = False
                    assert accepted == pairwise_complex_rule(list(masks)), (n, masks)


def test_materialization_guard():
    with pytest.raises(CapExceededError):
        Interval(IndexSet(30, 0), IndexSet.full(30)).member_masks()
