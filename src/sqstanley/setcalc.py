"""Subsets of [n], antichains, lattice intervals, and simplicial complexes.

A subset of {1, ..., n} is stored as a machine integer with bit i-1
standing for element i.  Under that encoding colexicographic order on
sets is plain integer order on masks, and that is the iteration order
used for every set-valued result in the package.  Every object carries
its ambient n; binary operations across different n raise
NMismatchError rather than guessing an embedding.

A family of subsets of [n] is stored as one 2^n-bit int, its word: bit
m is set when the set with mask m belongs to the family.  Closures and
extremal members are then a handful of shift-or passes, one per
element, instead of loops over the 2^n masks.  The up-closure is the
superset zeta transform; a member of an order-convex family is maximal
(minimal) exactly when no set one element larger (smaller) belongs to
the family.

An antichain (the generators of a squarefree ideal, the facets or
minimal non-faces of a complex) is kept as a colex-sorted tuple of
masks.  `minimal_sets` is the one place that extracts one from a list
of masks; maximal sets are the complements of the minimal complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from typing import Iterable, Iterator

from .errors import CapExceededError, NMismatchError

MAX_N = 64

# Atoms over at most this many elements are interned; see Interned.
INTERN_MAX_N = 6

# Explicit materialization of 2^k objects (faces, interval members,
# nonface sweeps) is refused beyond this many bits.
MATERIALIZE_BITS = 20


def _check_n(n: int) -> None:
    if not isinstance(n, int) or not 0 <= n <= MAX_N:
        raise ValueError(f"ground set size must be an int in [0, {MAX_N}], got {n!r}")


def _same_n(a, b) -> None:
    if a.n != b.n:
        raise NMismatchError(f"ground sets differ: n={a.n} vs n={b.n}")


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask` in increasing (colex) order, 0 first."""
    s = 0
    while True:
        yield s
        if s == mask:
            return
        s = (s - mask) & mask


def minimal_sets(masks: Iterable[int]) -> tuple[int, ...]:
    """The distinct inclusion-minimal masks, in increasing (colex) order.

    A submask sorts no later than its supermasks, so one pass keeping
    each mask that contains no kept mask suffices.
    """
    kept: list[int] = []
    for m in sorted(set(masks)):
        for k in kept:
            if k & ~m == 0:
                break
        else:
            kept.append(m)
    return tuple(kept)


def family_word(masks: Iterable[int]) -> int:
    """The word of the family with the given member masks."""
    word = 0
    for m in masks:
        word |= 1 << m
    return word


def word_masks(word: int) -> tuple[int, ...]:
    """The member masks of a family word, in increasing (colex) order."""
    return tuple(m for m, bit in enumerate(format(word, "b")[::-1]) if bit == "1")


def full_word(n: int) -> int:
    """The word of the power set of [n]."""
    return (1 << (1 << n)) - 1


def complement_family(word: int, n: int) -> int:
    """The complements of the members.  Complementing maps bit m to bit
    2^n - 1 - m, so this reverses the word."""
    return int(format(word, f"0{1 << n}b")[::-1], 2)


@lru_cache(maxsize=8)
def _element_steps(n: int) -> tuple[tuple[int, int], ...]:
    """For each bit j < n: the shift 2^j that sets it in a mask, and the
    word of the masks lacking it.  That word is a block of 2^j ones
    repeated with period 2^(j+1); it is built by doubling the block."""
    steps = []
    for step in (1 << j for j in range(n)):
        lacking, width = (1 << step) - 1, step << 1
        while width < 1 << n:
            lacking |= lacking << width
            width <<= 1
        steps.append((step, lacking))
    return tuple(steps)


def up_closure(word: int, n: int) -> int:
    """Every superset of a member: the superset zeta transform."""
    for step, lacking in _element_steps(n):
        word |= (word & lacking) << step
    return word


def down_closure(word: int, n: int) -> int:
    """Every subset of a member: the subset zeta transform."""
    for step, lacking in _element_steps(n):
        word |= (word >> step) & lacking
    return word


def one_smaller(word: int, n: int) -> int:
    """The sets one element smaller than some member."""
    out = 0
    for step, lacking in _element_steps(n):
        out |= (word >> step) & lacking
    return out


def one_larger(word: int, n: int) -> int:
    """The sets one element larger than some member."""
    out = 0
    for step, lacking in _element_steps(n):
        out |= (word & lacking) << step
    return out


def cone_word(word: int, n: int) -> int:
    """The sets sigma with an element v such that adding or removing v
    never moves a subset of sigma into or out of the family.

    With D_v the sets U without v for which exactly one of U and U + v
    is a member, sigma containing v qualifies through v exactly when
    sigma - v is not in the up-closure of D_v.
    """
    cone = 0
    for step, lacking in _element_steps(n):
        cone |= (~up_closure((word ^ word >> step) & lacking, n) & lacking) << step
    return cone


class Interned(type):
    """Metaclass of the set atoms: IndexSet, and classes whose value is
    a pair of IndexSets.  Each class keeps its own table of shared
    instances.

    An IndexSet is looked up by its two ints, taken only when both are
    of exact type int, so True or 5.0 never meet a kept 1 or 5.  A pair
    is looked up by the identities of its parts; a kept pair holds its
    parts, so no other object can carry those identities while it is in
    the table.  A miss builds the value the ordinary way, every check
    included.  It is kept when n <= INTERN_MAX_N and, for a pair, both
    parts are kept IndexSets, which bounds the tables at 2^n sets and
    3^n pairs per n.  setdefault keeps one instance if two threads miss
    on the same value at once.
    """

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        cls._kept = {}
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != 2:
            return super().__call__(*args, **kwargs)
        a, b = args
        if cls is IndexSet:
            if type(a) is not int or type(b) is not int:
                return super().__call__(a, b)
            key = args
        else:
            key = (id(a), id(b))
        atom = cls._kept.get(key)
        if atom is None:
            atom = super().__call__(a, b)
            if (a <= INTERN_MAX_N) if cls is IndexSet else (_is_kept(a) and _is_kept(b)):
                atom = cls._kept.setdefault(key, atom)
        return atom


def _is_kept(part) -> bool:
    return type(part) is IndexSet and IndexSet._kept.get((part.n, part.mask)) is part


class Atom(metaclass=Interned):
    """Base of the interned set atoms.  Pickling and copying rebuild an
    atom through its constructor, so a copy of a kept atom is the kept
    atom itself."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@total_ordering
@dataclass(frozen=True, slots=True)
class IndexSet(Atom):
    """A subset of {1, ..., n}; ordering between IndexSets is colex."""

    n: int
    mask: int

    def __post_init__(self):
        _check_n(self.n)
        if not isinstance(self.mask, int) or not 0 <= self.mask < (1 << self.n):
            raise ValueError(f"mask {self.mask!r} out of range for n={self.n}")

    @classmethod
    def of(cls, n: int, members: Iterable[int] = ()) -> "IndexSet":
        """Build from 1-based member positions."""
        _check_n(n)
        mask = 0
        for i in members:
            if not isinstance(i, int) or not 1 <= i <= n:
                raise ValueError(f"member {i!r} outside [1, {n}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        _check_n(n)
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return isinstance(i, int) and 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def __or__(self, other: "IndexSet") -> "IndexSet":
        _same_n(self, other)
        return IndexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "IndexSet") -> "IndexSet":
        _same_n(self, other)
        return IndexSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "IndexSet") -> "IndexSet":
        _same_n(self, other)
        return IndexSet(self.n, self.mask & ~other.mask)

    def __lt__(self, other: "IndexSet") -> bool:
        _same_n(self, other)
        return self.mask < other.mask

    def complement(self) -> "IndexSet":
        return IndexSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: "IndexSet") -> bool:
        _same_n(self, other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "IndexSet") -> bool:
        _same_n(self, other)
        return self.mask & other.mask == 0

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.members) + "}"

    def __repr__(self) -> str:
        return f"IndexSet.of({self.n}, {self.members})"


def sigma_masks(gmask: int, fmask: int) -> int:
    """sigma on raw masks: pairs (r, s) with r in G, s in F, r > s."""
    total = 0
    m = fmask
    while m:
        low = m & -m
        # s sits at bit b, so elements of G above s are the bits of G >> (b+1)
        total += (gmask >> low.bit_length()).bit_count()
        m ^= low
    return total


def sigma(g: IndexSet, f: IndexSet) -> int:
    """Number of inversions between G and F: pairs r in G, s in F with r > s.

    This is the exponent that prices every reordering of exterior
    monomials; see wedge in the exterior module.
    """
    _same_n(g, f)
    return sigma_masks(g.mask, f.mask)


@dataclass(frozen=True, slots=True)
class Interval(Atom):
    """The Boolean-lattice interval [bottom, top] = {H : bottom <= H <= top}."""

    bottom: IndexSet
    top: IndexSet

    def __post_init__(self):
        _same_n(self.bottom, self.top)
        if not self.bottom.issubset(self.top):
            raise ValueError(f"interval bottom {self.bottom} not contained in top {self.top}")

    @property
    def n(self) -> int:
        return self.bottom.n

    def __len__(self) -> int:
        return 1 << (len(self.top) - len(self.bottom))

    def __contains__(self, s: IndexSet) -> bool:
        _same_n(self.bottom, s)
        return self.bottom.issubset(s) and s.issubset(self.top)

    def members(self) -> tuple[IndexSet, ...]:
        return tuple(IndexSet(self.n, m) for m in self.member_masks())

    def member_masks(self) -> tuple[int, ...]:
        diff = self.top.mask & ~self.bottom.mask
        if diff.bit_count() > MATERIALIZE_BITS:
            raise CapExceededError(f"interval has 2^{diff.bit_count()} members; refusing to materialize")
        b = self.bottom.mask
        return tuple(b | s for s in submasks(diff))

    def __str__(self) -> str:
        return f"[{self.bottom}, {self.top}]"


def interval_members(bottom: IndexSet, top: IndexSet) -> tuple[IndexSet, ...]:
    """All H with bottom <= H <= top, in colex order."""
    return Interval(bottom, top).members()


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """A simplicial complex on vertex set [n], stored by its facets.

    The facet tuple is an antichain in colex order.  Both degenerate
    complexes are representable: the void complex (no faces at all,
    empty facet tuple) and the irrelevant complex {0} with the single
    facet 0.
    """

    n: int
    facets: tuple[IndexSet, ...]

    def __post_init__(self):
        _check_n(self.n)
        full = (1 << self.n) - 1
        complements = []
        for f in self.facets:
            if not isinstance(f, IndexSet):
                raise TypeError(f"facet {f!r} is not an IndexSet")
            if f.n != self.n:
                raise NMismatchError(f"facet over n={f.n} in complex over n={self.n}")
            complements.append(full ^ f.mask)
        if tuple(reversed(complements)) != minimal_sets(complements):
            raise ValueError("facets are not a colex-sorted antichain; use from_facets to normalize")

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[IndexSet | Iterable[int]]) -> "SimplicialComplex":
        """Normalize an arbitrary face list: drop dominated faces, dedupe, sort."""
        full = IndexSet.full(n).mask
        complements = []
        for f in facets:
            s = f if isinstance(f, IndexSet) else IndexSet.of(n, f)
            if s.n != n:
                raise NMismatchError(f"facet over n={s.n}, expected n={n}")
            complements.append(full ^ s.mask)
        return cls(n, tuple(IndexSet(n, full ^ m) for m in reversed(minimal_sets(complements))))

    @property
    def is_void(self) -> bool:
        return not self.facets

    def facet_masks(self) -> tuple[int, ...]:
        return tuple(f.mask for f in self.facets)

    def __contains__(self, face: IndexSet) -> bool:
        if face.n != self.n:
            raise NMismatchError(f"face over n={face.n} in complex over n={self.n}")
        return any(face.mask & ~f.mask == 0 for f in self.facets)

    def face_masks(self) -> tuple[int, ...]:
        """All faces as masks, colex order.  Work is sum of 2^|facet|."""
        if any(len(f) > MATERIALIZE_BITS for f in self.facets):
            raise CapExceededError("facet too large to enumerate faces explicitly")
        out = set()
        for f in self.facets:
            out.update(submasks(f.mask))
        return tuple(sorted(out))

    def faces(self) -> tuple[IndexSet, ...]:
        return tuple(IndexSet(self.n, m) for m in self.face_masks())

    def __str__(self) -> str:
        return "<" + ", ".join(str(f) for f in self.facets) + ">"


def minimal_nonface_masks(cx: SimplicialComplex) -> tuple[int, ...]:
    """Masks of the minimal non-faces of cx, colex order.

    The non-faces are the complement of the down-closure of the facets;
    a non-face is minimal when no set one element smaller is a non-face.
    For the void complex the empty set is the unique minimal non-face.
    """
    if cx.n > MATERIALIZE_BITS:
        raise CapExceededError(f"2^{cx.n} sweep refused; n must be <= {MATERIALIZE_BITS}")
    nonfaces = full_word(cx.n) & ~down_closure(family_word(cx.facet_masks()), cx.n)
    return word_masks(nonfaces & ~one_larger(nonfaces, cx.n))


def alexander_dual(cx: SimplicialComplex) -> SimplicialComplex:
    """The Alexander dual {F : complement of F is not a face of cx}.

    Facets of the dual are exactly the complements of the minimal
    non-faces, which keeps the computation on antichains.  Sends the
    full simplex to the void complex and back.
    """
    full = (1 << cx.n) - 1
    facets = sorted(full ^ m for m in minimal_nonface_masks(cx))
    return SimplicialComplex(cx.n, tuple(IndexSet(cx.n, m) for m in facets))
