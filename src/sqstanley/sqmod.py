"""Squarefree quotient modules and their Stanley decompositions.

The objects here are quotients outer/inner of nested squarefree
monomial ideals.  Such a module is multigraded with every graded piece
of dimension at most one, so it is determined by its support: the
family of sets F with x_F in the outer ideal but not the inner one.
The support is order convex in the Boolean lattice, and conversely any
order-convex family arises this way from a unique minimal pair.

Each quotient computes its support once, as a family word (see
setcalc): the up-closure of the outer generators minus that of the
inner ones.  Facets, minimal members, the dual check and the minimal
presentation of a given family are all read off that word, and the
cover searches for sdepth and hreg start from it.

sdepth and hreg_min are one walk, `_walk`, over two families.  It
walks down from a bound to the largest k for which the family has a
partition with every top of size at least k.  Before each search, the
number of members on each level must pass an exact counting test; a
size it rules out has no partition, so its search is skipped.  Each
search runs in the level normal form: it covers only the members of
size at most k, with every top on level k, and makes each member above
level k its own interval; Herzog-Vladoiu-Zheng show that a partition
with tops of size at least k exists exactly when this one does.
sdepth walks the support.  Alexander duality takes the interval
[b, t] to [complement of t, complement of b], so hreg_min walks the
complements of the support members (the dual support) and mirrors the
answer once: hreg = n - k, each pair coming back as [complement of t,
complement of b].  Every cover search, partition's included, is a gate
over one helper, `_cover`, and only the public sdepth and hreg_min turn
its pairs into a witness.  `_is_partition` checks a witness with set
code alone, apart from the cover engine.

Quotients of non-squarefree ideals are admitted through a certificate:
the module outer/inner is squarefree exactly when (a) every
divisibility-minimal monomial of the set difference is squarefree and
(b) no generator of the inner ideal has support contained in the
support of a member of the difference.  Both are read off the
generators, and so is the support then: the squarefree monomials of
the outer ideal minus those of the inner one.
"""

import math
from dataclasses import dataclass
from functools import cached_property

from .cover import first_interval_partition
from .errors import (
    CapExceededError,
    InternalCheckError,
    NMismatchError,
    NonSquarefreeError,
    ZeroModuleError,
)
from .ideals import Monomial, MonomialIdeal, SqIdeal, sr_ideal, tilde
from .setcalc import (
    MATERIALIZE_BITS,
    IndexSet,
    Interval,
    SimplicialComplex,
    colon_prime,
    complement_family,
    family_word,
    one_larger,
    one_smaller,
    submasks,
    up_closure,
    word_masks,
)


@dataclass(frozen=True)
class SqQuotient:
    """The quotient of nested squarefree ideals, outer modulo inner.

    The pair of ideals is a presentation, kept as given; two quotients
    are the same module when their supports agree.  The zero module
    (inner equal to outer) is representable, but the decomposition and
    depth routines reject it.

    Unlike the package's other value objects it is not slotted: the
    support word and its masks are cached per instance in its __dict__.
    """

    n: int
    inner: SqIdeal
    outer: SqIdeal

    def __post_init__(self):
        if self.inner.n != self.n or self.outer.n != self.n:
            raise NMismatchError(
                f"ideal over n={self.inner.n}/{self.outer.n} in quotient over n={self.n}")
        if not all(self.outer.contains_mask(g) for g in self.inner.gen_masks):
            raise ValueError("inner ideal is not contained in the outer ideal")

    @classmethod
    def from_support(cls, n: int, masks) -> "SqQuotient":
        """Build the minimal presentation of a module with the given support.

        The family must be order convex; the outer ideal is generated by
        its minimal members and the inner ideal by the minimal sets lying
        above the family without belonging to it.
        """
        if n > MATERIALIZE_BITS:
            raise CapExceededError(f"2^{n} sweep refused; n must be <= {MATERIALIZE_BITS}")
        family = set(masks)
        for m in family:
            if not 0 <= m < (1 << n):
                raise ValueError(f"mask {m} out of range for n={n}")
        word = family_word(family)
        gap = up_closure(word, n) & ~word
        # the family is convex exactly when no gap set lies one step below it
        bad = gap & one_smaller(word, n)
        if bad:
            m = (bad & -bad).bit_length() - 1
            above = next(m | 1 << j for j in range(n) if word >> (m | 1 << j) & 1)
            below = next(c for c in sorted(family) if c & ~m == 0)
            raise ValueError(
                "support family is not order convex: "
                f"{IndexSet(n, below)} <= {IndexSet(n, m)} <= {IndexSet(n, above)} "
                "with the middle set missing")
        inner_gens = word_masks(gap & ~one_larger(gap, n))
        built = cls(n, SqIdeal(n, inner_gens), SqIdeal.of(n, family))
        if built.support_word != word:
            raise InternalCheckError("rebuilt support disagrees with the input family")
        return built

    @property
    def is_zero(self) -> bool:
        return self.inner == self.outer

    @cached_property
    def support_word(self) -> int:
        """The support as a family word, computed once per instance."""
        return self.outer.member_word() & ~self.inner.member_word()

    @cached_property
    def _support_masks(self) -> tuple[int, ...]:
        return word_masks(self.support_word)

    def support_masks(self) -> tuple[int, ...]:
        return self._support_masks

    def facet_masks(self) -> tuple[int, ...]:
        """Maximal members of the support: those with no member one
        element larger, the support being order convex."""
        return word_masks(self.support_word & ~one_smaller(self.support_word, self.n))

    def minimal_masks(self) -> tuple[int, ...]:
        """Minimal members of the support: those with no member one
        element smaller."""
        return word_masks(self.support_word & ~one_larger(self.support_word, self.n))

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


@dataclass(frozen=True, slots=True)
class SquarefreeCertificate:
    """Outcome of the squarefreeness test for a quotient of monomial ideals.

    When the test fails, at least one witness field is set: a
    divisibility-minimal member of the difference that is not squarefree,
    or a pair (generator of the inner ideal, member of the difference)
    with the generator's support inside the member's.
    """

    ok: bool
    support_masks: tuple[int, ...] | None
    witness_nonsquarefree: Monomial | None
    witness_pair: tuple[Monomial, Monomial] | None

    def __bool__(self) -> bool:
        return self.ok


def _lift(g: Monomial, f: int) -> Monomial:
    """lcm(g, x_F), for a monomial g with support inside F."""
    return Monomial(tuple(e or f >> i & 1 for i, e in enumerate(g.exponents)))


def squarefree_certificate(inner: MonomialIdeal, outer: MonomialIdeal) -> SquarefreeCertificate:
    """Decide whether outer/inner is a squarefree module, from the
    generators of both ideals.

    A proper divisor in the outer ideal of a non-member of the inner one
    is itself a non-member, so the minimal members of the difference are
    the outer generators outside the inner ideal.  A member with support
    F exists exactly when lcm(g, x_F) lies outside the inner ideal for
    some outer generator g with support inside F; the least F that also
    holds the support of an inner generator u is then the least
    supp u | supp g with that property.  The pair witness is that F's
    least such lcm and the first inner generator inside F.
    """
    if inner.n != outer.n:
        raise NMismatchError(f"ideals over n={inner.n} and n={outer.n}")
    if not all(g in outer for g in inner.gens):
        raise ValueError("inner ideal is not contained in the outer ideal")

    witness_nonsquarefree = next(
        (g for g in outer.gens if not g.is_squarefree and g not in inner), None)

    witness_pair = None
    supports = [f for g in outer.gens for u in inner.gens
                if _lift(g, f := u.support_mask | g.support_mask) not in inner]
    if supports:
        f = min(supports)
        lifts = (_lift(g, f) for g in outer.gens if g.support_mask & ~f == 0)
        member = min((m for m in lifts if m not in inner), key=Monomial.sort_key)
        u = next(u for u in inner.gens if u.support_mask & ~f == 0)
        witness_pair = (u, member)

    if witness_nonsquarefree is not None or witness_pair is not None:
        return SquarefreeCertificate(False, None, witness_nonsquarefree, witness_pair)
    outer_word, inner_word = (
        SqIdeal.of(outer.n, [g.support_mask for g in i.gens if g.is_squarefree]).member_word()
        for i in (outer, inner))
    return SquarefreeCertificate(True, word_masks(outer_word & ~inner_word), None, None)


def build_quotient(inner: MonomialIdeal, outer: MonomialIdeal) -> SqQuotient:
    """The squarefree module outer/inner, or NonSquarefreeError with a witness.

    Squarefree input pairs are taken as given; anything else passes
    through the certificate and comes back in minimal presentation.
    """
    if inner.is_squarefree and outer.is_squarefree:
        return SqQuotient(inner.n, SqIdeal.from_monomial_ideal(inner),
                          SqIdeal.from_monomial_ideal(outer))
    cert = squarefree_certificate(inner, outer)
    if not cert.ok:
        if cert.witness_pair is not None:
            u, m = cert.witness_pair
            detail = f"generator {u} has support inside the support of the member {m}"
        else:
            detail = f"divisibility-minimal member {cert.witness_nonsquarefree} is not squarefree"
        raise NonSquarefreeError(f"{outer}/{inner} is not a squarefree module: {detail}")
    return SqQuotient.from_support(inner.n, cert.support_masks)


def face_ring(cx: SimplicialComplex) -> SqQuotient:
    """S/I of the complex: its Stanley-Reisner ideal over the unit ideal.
    The void complex gives the zero module, presented as 0/0."""
    if cx.is_void:
        return SqQuotient.from_support(cx.n, ())
    return SqQuotient(cx.n, sr_ideal(cx), SqIdeal(cx.n, (0,)))


def tilde_ext(ideal: SqIdeal) -> SqIdeal:
    """Alexander dual extended to the unit ideal, for dualizing quotients.

    Proper ideals go through tilde; the unit ideal (whole ring) and the
    zero ideal swap, which is what makes duals of quotient presentations
    come out nested again.
    """
    if ideal.is_unit:
        return SqIdeal.of(ideal.n, [])
    return tilde(ideal)


def dualize_quotient(module: SqQuotient) -> SqQuotient:
    """The Alexander dual module: tilde of the inner ideal modulo tilde
    of the outer one.  The support of the dual is the complement,
    setwise, of the original support; that is checked on every call.
    """
    dual = SqQuotient(module.n, tilde_ext(module.outer), tilde_ext(module.inner))
    if dual.support_word != complement_family(module.support_word, module.n):
        raise InternalCheckError("dual support is not the complement of the original support")
    return dual


def associated_primes(module: SqQuotient) -> tuple[IndexSet, ...]:
    """The variable sets F with (x_j : j in F) an associated prime.

    Every graded piece of the module has dimension at most one, so every
    associated prime is the annihilator of some x_G with G in the
    support, and that annihilator depends on G alone.
    """
    gens = module.inner.gen_masks
    found = {colon_prime(gens, g) for g in module.support_masks()} - {None}
    return tuple(IndexSet(module.n, f) for f in sorted(found))


@dataclass(frozen=True, slots=True)
class StanleyDecomposition:
    """An interval partition of a module's support.

    sdepth is the smallest top size, hreg the largest bottom size.
    Intervals are kept sorted by (bottom, top) so that equality of
    decompositions is equality of the underlying partitions.
    """

    n: int
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        keys = []
        for iv in self.intervals:
            if iv.n != self.n:
                raise NMismatchError(f"interval over n={iv.n} in decomposition over n={self.n}")
            keys.append((iv.bottom.mask, iv.top.mask))
        if keys != sorted(keys):
            raise ValueError("intervals not in canonical order; use StanleyDecomposition.of")

    @classmethod
    def of(cls, n: int, intervals) -> "StanleyDecomposition":
        ivs = sorted(intervals, key=lambda iv: (iv.bottom.mask, iv.top.mask))
        return cls(n, tuple(ivs))

    @classmethod
    def from_masks(cls, n: int, pairs) -> "StanleyDecomposition":
        """The decomposition into the intervals [b, t] of the (bottom,
        top) mask pairs, which sort as `of` sorts intervals."""
        interval = Interval.from_masks
        return cls(n, tuple(interval(n, b, t) for b, t in sorted(pairs)))

    @property
    def sdepth(self) -> int:
        if not self.intervals:
            raise ZeroModuleError("empty decomposition has no sdepth")
        return min(len(iv.top) for iv in self.intervals)

    @property
    def hreg(self) -> int:
        if not self.intervals:
            raise ZeroModuleError("empty decomposition has no hreg")
        return max(len(iv.bottom) for iv in self.intervals)

    def __str__(self) -> str:
        return " + ".join(f"[{iv.bottom}, {iv.top}]" for iv in self.intervals)


def validate_decomposition(module: SqQuotient, dec: StanleyDecomposition) -> bool:
    """Whether the intervals partition the support of the module."""
    if module.n != dec.n:
        raise NMismatchError(f"decomposition over n={dec.n} for module over n={module.n}")
    return _is_partition(module.support_masks(),
                         [(iv.bottom.mask, iv.top.mask) for iv in dec.intervals])


def _is_partition(masks, pairs) -> bool:
    """Whether the (bottom, top) mask pairs partition the distinct
    `masks`; the member counts are compared first, so no more members
    are listed than `masks` holds."""
    if any(b & ~t for b, t in pairs):
        return False
    if sum(1 << (t & ~b).bit_count() for b, t in pairs) != len(masks):
        return False
    return {b | s for b, t in pairs for s in submasks(t & ~b)} == set(masks)


def dualize_decomposition(dec: StanleyDecomposition) -> StanleyDecomposition:
    """Interval [F, G] goes to [complement of G, complement of F].

    Takes partitions of a support to partitions of the complementary
    support; an involution on decompositions.
    """
    full = (1 << dec.n) - 1
    return StanleyDecomposition.from_masks(
        dec.n, ((full ^ iv.top.mask, full ^ iv.bottom.mask) for iv in dec.intervals))


def _cover(support, tops, bottoms=None):
    """The first partition of the family word `support` with every top
    in `tops` and, when the set `bottoms` is given, every bottom in it,
    as (bottom, top) mask pairs, or None.

    Tops are tried largest first, then by mask.  A bottom's candidate
    list (empty for a bottom outside `bottoms`) is built on its first
    visit and reused, so each search node costs one dict lookup.
    """
    order = sorted(tops, key=lambda t: (-t.bit_count(), t))
    cache = {}

    def tops_for(e):
        got = cache.get(e)
        if got is None:
            got = cache[e] = ([t for t in order if t & e == e]
                              if bottoms is None or e in bottoms else ())
        return got

    return first_interval_partition(support, tops_for)


def _level_cover(masks, k):
    """A partition of the family `masks` with every top of size at
    least k, if one exists, in the level normal form.

    The search covers only the members of size at most k, with every
    top on level k; each member above level k is then its own interval.
    Nothing is lost.  In a partition with tops of size at least k, an
    interval [b, t] with |b| <= k meets the levels up to k in a boolean
    interval cut at its k-th level, and such a cut splits into
    intervals with tops of size exactly k (Herzog-Vladoiu-Zheng); the
    members above level k need no top.
    """
    low, high = [], []
    for m in masks:
        (low if m.bit_count() <= k else high).append(m)
    found = _cover(family_word(low), [t for t in low if t.bit_count() == k])
    return None if found is None else found + [(m, m) for m in high]


def _tops_can_reach(f, k) -> bool:
    """Whether level counts f leave room for a partition with every top
    of size at least k; False proves that no such partition exists.

    In such a partition, levels 0..k split into intervals whose tops all
    have size exactly k (Herzog-Vladoiu-Zheng), so with h_b of them
    having a bottom of size b, f_j = sum_{b<=j} h_b C(k-b, j-b) for
    j <= k.  The system is triangular: solve it from the bottom level
    up and reject k at the first negative h_b (the h-vector test of
    Ichim-Katthaen-Moyano-Fernandez).  k = 0 always passes.
    """
    h = []
    for j in range(k + 1):
        hj = f[j] - sum(hb * math.comb(k - b, j - b) for b, hb in enumerate(h))
        if hj < 0:
            return False
        h.append(hj)
    return True


def _walk(n, masks, bound) -> tuple[int, list]:
    """The largest k <= bound for which the family `masks` of subsets of
    [n] has a partition with every top of size at least k, and that
    partition as (bottom, top) mask pairs, in the level normal form of
    `_level_cover`.  Walking down from the bound, it skips each size the
    level counts rule out; they never rule out 0 (singletons).
    """
    f = [0] * (n + 1)
    for m in masks:
        f[m.bit_count()] += 1
    for k in range(bound, -1, -1):
        if _tops_can_reach(f, k):
            found = _level_cover(masks, k)
            if found is not None:
                return k, found
    raise InternalCheckError("no partition even into singletons")


def _sdepth_walk(module: SqQuotient) -> tuple[int, list]:
    """The Stanley depth, with a witness as (bottom, top) mask pairs.

    Interval partitions of the support realize the Stanley depth
    exactly, so this is a finite search.  The smallest facet of the
    support bounds it above: a maximal support member can only be the
    top of its own interval.
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no Stanley depth")
    return _walk(module.n, module.support_masks(),
                 min(m.bit_count() for m in module.facet_masks()))


def _hreg_walk(module: SqQuotient) -> tuple[int, list]:
    """The smallest achievable hreg, with a witness as mask pairs.

    [b, t] -> [complement of t, complement of b] takes partitions with
    bottoms of size at most h to partitions of the complements with
    tops of size at least n - h, so this is the walk on the complements
    (the dual support), mirrored once.  Minimal support members are
    bottoms in every partition; the largest bounds h below.
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no decompositions")
    n, full = module.n, (1 << module.n) - 1
    k, pairs = _walk(n, [full ^ m for m in module.support_masks()],
                     n - max(m.bit_count() for m in module.minimal_masks()))
    return n - k, [(full ^ t, full ^ b) for b, t in pairs]


def sdepth(module: SqQuotient) -> tuple[int, StanleyDecomposition]:
    """The Stanley depth of the module and a witnessing decomposition."""
    k, pairs = _sdepth_walk(module)
    return k, StanleyDecomposition.from_masks(module.n, pairs)


def hreg_min(module: SqQuotient) -> tuple[int, StanleyDecomposition]:
    """The smallest achievable hreg over all decompositions, with witness."""
    h, pairs = _hreg_walk(module)
    return h, StanleyDecomposition.from_masks(module.n, pairs)
