import copy
import dataclasses
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from sqstanley.errors import CapExceededError, NMismatchError
from sqstanley.exterior import EPiece
from sqstanley.filtration import FiltrationStep
from sqstanley.ideals import Monomial, MonomialIdeal
from sqstanley.setcalc import (
    INTERN_MAX_N,
    IndexSet,
    Interval,
    SimplicialComplex,
    alexander_dual,
    colon_prime,
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


def colon_by_monomials(n, gens, g):
    """colon_prime's answer computed with MonomialIdeal.colon."""
    def x(mask):
        return Monomial.from_support(IndexSet(n, mask))
    colon = MonomialIdeal.of(n, [x(h) for h in gens]).colon(x(g))
    if any(q.degree != 1 for q in colon.gens):
        return None
    return sum(q.support_mask for q in colon.gens)


class TestColonPrime:
    def test_every_generator_list_over_three_elements(self):
        # unminimized lists included: validate_filtration passes its chain as it grows
        for n in range(4):
            for gens in itertools.chain.from_iterable(
                    itertools.combinations(range(1 << n), k) for k in range((1 << n) + 1)):
                for g in range(1 << n):
                    assert colon_prime(gens, g) == colon_by_monomials(n, gens, g), (gens, g)

    @given(mask_lists, st.integers(min_value=0))
    def test_matches_the_monomial_colon(self, nm, g):
        n, masks = nm
        g &= (1 << n) - 1
        assert colon_prime(masks, g) == colon_by_monomials(n, masks, g)

    def test_small_values(self):
        assert colon_prime([], 0b101) == 0                  # the zero ideal is P_{}
        assert colon_prime([0b001, 0b110], 0b001) is None   # the unit colon
        assert colon_prime([0b011, 0b110], 0b010) == 0b101
        assert colon_prime([0b011, 0b100, 0b101], 0) is None   # x1x2 is minimal
        assert colon_prime([0b011, 0b001, 0b110], 0) is None   # x2x3 is minimal
        assert colon_prime([0b011, 0b001, 0b100], 0) == 0b101


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


PAIR_CLASSES = (Interval, FiltrationStep, EPiece)


def pair_args(cls, n):
    """A valid (first, second) for each pair class over n: {1} and {1,2}
    for an interval, {1} and {2} for the disjoint pairs."""
    second = 0b11 if cls is Interval else 0b10
    return IndexSet(n, 0b1), IndexSet(n, second)


def table_sizes():
    return [len(cls._kept) for cls in PAIR_CLASSES]


class TestInterning:
    """The pair atoms asked for by their masks share one instance per
    value over n <= INTERN_MAX_N, through one table per class; every
    other call builds and checks a fresh object."""

    def test_bound_is_six(self):
        assert INTERN_MAX_N == 6

    @pytest.mark.parametrize("cls", PAIR_CLASSES)
    def test_equal_pairs_are_shared_up_to_the_bound(self, cls):
        for n in range(2, INTERN_MAX_N + 3):
            a, b = pair_args(cls, n)
            atom = cls.from_masks(n, a.mask, b.mask)
            assert atom == cls(a, b)
            assert (atom is cls.from_masks(n, a.mask, b.mask)) == (n <= INTERN_MAX_N)
            # the checked constructor never enters the table
            assert cls(a, b) is not atom and cls(a, b) is not cls(a, b)

    @pytest.mark.parametrize("cls", PAIR_CLASSES)
    def test_masks_meet_the_object_path_on_every_kept_pair(self, cls):
        class Fresh(cls):
            # a subclass starts with its own empty table
            __slots__ = ()

        for n in range(INTERN_MAX_N + 1):
            for t in range(1 << n):
                for a in submasks(t):
                    b = t if cls is Interval else t & ~a
                    atom = Fresh.from_masks(n, a, b)
                    assert type(atom) is Fresh and Fresh.from_masks(n, a, b) is atom
                    assert atom == Fresh(IndexSet(n, a), IndexSet(n, b))
                    assert cls.from_masks(n, a, b) == cls(IndexSet(n, a), IndexSet(n, b))
        assert len(Fresh._kept) == sum(3 ** n for n in range(INTERN_MAX_N + 1))

    @pytest.mark.parametrize("cls", PAIR_CLASSES)
    def test_bad_masks_are_refused_and_never_kept(self, cls):
        a, b = (p.mask for p in pair_args(cls, 4))
        kept = cls.from_masks(4, a, b)
        before = len(cls._kept)
        crossing = (b, a) if cls is Interval else (a, a | b)
        for _ in range(2):
            for args, message in (((4, 5.0, b), r"mask 5\.0 out of range for n=4"),
                                  ((4, a, 16), "mask 16 out of range for n=4"),
                                  ((4, -1, b), "mask -1 out of range for n=4"),
                                  ((4.0, a, b), "ground set size"),
                                  ((-1, a, b), "ground set size"),
                                  ((4, *crossing), "not contained in top|meets")):
                with pytest.raises(ValueError, match=message):
                    cls.from_masks(*args)
            # a bool is an int to the checks: built as before, never kept
            for args in ((4, True, b), (4, 0, True), (True, 0, 1)):
                loose = cls.from_masks(*args)
                assert loose == cls(*(IndexSet(args[0], m) for m in args[1:]))
                assert loose is not kept and loose is not cls.from_masks(*args)
        assert len(cls._kept) == before
        assert cls.from_masks(4, a, b) is kept

    @pytest.mark.parametrize("n", [7, 64])
    def test_larger_n_is_not_kept_and_tables_stay_bounded(self, n):
        before = table_sizes()
        for m in range(1 << 7):
            IndexSet(n, m)
            for cls in PAIR_CLASSES:
                a, b = pair_args(cls, n)
                assert cls(a, b) == cls(a, b) and cls(a, b) is not cls(a, b)
                twin = cls.from_masks(n, a.mask, b.mask)
                assert twin == cls(a, b) and twin is not cls.from_masks(n, a.mask, b.mask)
        assert IndexSet(n, 5) is not IndexSet(n, 5)
        assert table_sizes() == before
        assert all(size <= sum(3 ** k for k in range(INTERN_MAX_N + 1)) for size in table_sizes())

    def test_bad_index_sets_are_refused_on_every_call(self):
        IndexSet(4, 5)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"mask 5\.0 out of range for n=4"):
                IndexSet(4, 5.0)
            with pytest.raises(ValueError, match="mask 16 out of range for n=4"):
                IndexSet(4, 16)
            with pytest.raises(ValueError, match="ground set size"):
                IndexSet(4.0, 5)

    def test_bools_take_the_unshared_path(self):
        # a bool is an int to the checks, so these are built and keep
        # the types they were given; an interval holds the parts it got
        kept = IndexSet(1, 1)
        for args in ((True, 1), (1, True), (True, True)):
            s = IndexSet(*args)
            assert s == kept and s is not kept
            assert (type(s.n), type(s.mask)) == tuple(map(type, args))
        loose = IndexSet(True, 1)
        assert Interval(loose, loose).bottom is loose
        assert Interval(loose, loose) is not Interval(kept, kept)

    @pytest.mark.parametrize("cls", PAIR_CLASSES)
    def test_bad_pairs_are_refused_on_every_call(self, cls):
        a, b = pair_args(cls, 4)
        cls(a, b)
        crossing = (b, a) if cls is Interval else (a, IndexSet(4, a.mask | b.mask))
        for _ in range(2):
            for args in ((a, IndexSet(5, b.mask)), (IndexSet(5, a.mask), b)):
                with pytest.raises(NMismatchError):
                    cls(*args)
            with pytest.raises(ValueError, match="not contained in top|meets"):
                cls(*crossing)

    @pytest.mark.parametrize("n", [4, 7])
    def test_keyword_replace_pickle_and_deepcopy_round_trip(self, n):
        atoms = [IndexSet(n, 5)] + [cls(*pair_args(cls, n)) for cls in PAIR_CLASSES]
        atoms += [cls.from_masks(n, *(p.mask for p in pair_args(cls, n))) for cls in PAIR_CLASSES]
        for atom in atoms:
            fields = {f.name: getattr(atom, f.name) for f in dataclasses.fields(atom)}
            assert type(atom)(**fields) == atom
            assert dataclasses.replace(atom) == atom
            for twin in (pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom), copy.copy(atom)):
                assert twin == atom and type(twin) is type(atom)
        assert dataclasses.replace(atoms[0], mask=6) == IndexSet(n, 6)
        assert dataclasses.replace(atoms[1], top=IndexSet(n, 7)) == Interval(IndexSet(n, 1), IndexSet(n, 7))

    def test_threads_racing_on_new_values_get_one_instance(self):
        class Fresh(Interval):
            # a subclass starts with its own empty table
            __slots__ = ()

        n = INTERN_MAX_N
        pairs = [(b, t) for t in range(1 << n) for b in submasks(t)]
        seen = [[] for _ in range(4)]
        start = threading.Barrier(len(seen))

        def build(out):
            start.wait()
            out.extend(Fresh.from_masks(n, b, t) for b, t in pairs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == len(pairs) == 3 ** n for out in seen)
        assert all(map(lambda *same: len({id(x) for x in same}) == 1, *seen))
        assert len(Fresh._kept) == 3 ** n
