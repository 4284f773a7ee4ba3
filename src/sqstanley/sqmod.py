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

Quotients of non-squarefree ideals are admitted through a certificate:
the module outer/inner is squarefree exactly when (a) every
divisibility-minimal monomial of the set difference is squarefree and
(b) no generator of the inner ideal has support contained in the
support of a member of the difference.  Both conditions are decided
inside a finite exponent box, since capping exponents at the largest
ones appearing among the generators preserves every divisibility
pattern in sight.
"""

import itertools
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
from .ideals import Monomial, MonomialIdeal, SqIdeal, tilde
from .setcalc import (
    MATERIALIZE_BITS,
    IndexSet,
    Interval,
    complement_family,
    family_word,
    one_larger,
    one_smaller,
    up_closure,
    word_masks,
)

# Refuse exponent-box sweeps with more points than this.
BOX_LIMIT = 1 << 20


@dataclass(frozen=True)
class SqQuotient:
    """The quotient of nested squarefree ideals, outer modulo inner.

    The pair of ideals is a presentation, kept as given; two quotients
    are the same module when their supports agree.  The zero module
    (inner equal to outer) is representable, but the decomposition and
    depth routines reject it.
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

    def support(self) -> tuple[IndexSet, ...]:
        return tuple(IndexSet(self.n, m) for m in self.support_masks())

    def facet_masks(self) -> tuple[int, ...]:
        """Maximal members of the support: those with no member one
        element larger, the support being order convex."""
        below = one_smaller(self.support_word, self.n)
        return tuple(m for m in self.support_masks() if not below >> m & 1)

    def minimal_masks(self) -> tuple[int, ...]:
        """Minimal members of the support: those with no member one
        element smaller."""
        above = one_larger(self.support_word, self.n)
        return tuple(m for m in self.support_masks() if not above >> m & 1)

    def same_module(self, other: "SqQuotient") -> bool:
        if other.n != self.n:
            raise NMismatchError(f"quotient over n={other.n} compared at n={self.n}")
        return self.support_masks() == other.support_masks()

    def __str__(self) -> str:
        return f"{self.outer}/{self.inner}"


@dataclass(frozen=True)
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


def squarefree_certificate(inner: MonomialIdeal, outer: MonomialIdeal) -> SquarefreeCertificate:
    """Decide whether outer/inner is a squarefree module.

    Works inside the exponent box bounded by the generator exponents of
    both ideals; every monomial membership question that matters is
    decided there.
    """
    if inner.n != outer.n:
        raise NMismatchError(f"ideals over n={inner.n} and n={outer.n}")
    n = inner.n
    if not all(g in outer for g in inner.gens):
        raise ValueError("inner ideal is not contained in the outer ideal")
    caps = tuple(max(a, b) for a, b in zip(inner.exponent_cap(), outer.exponent_cap()))
    if math.prod(c + 1 for c in caps) > BOX_LIMIT:
        raise CapExceededError("exponent box too large to sweep")

    members = [m for m in (Monomial(e) for e in itertools.product(*(range(c + 1) for c in caps)))
               if m in outer and m not in inner]
    members.sort(key=Monomial.sort_key)

    # A member is divisibility-minimal iff no single-variable step down
    # stays in the outer ideal (divisors of a non-member of the inner
    # ideal never belong to the inner ideal).
    witness_nonsquarefree = None
    for m in members:
        down = (Monomial(tuple(e - 1 if k == i else e for k, e in enumerate(m.exponents)))
                for i in range(n) if m.exponents[i])
        if any(d in outer for d in down):
            continue
        if not m.is_squarefree:
            witness_nonsquarefree = m
            break

    witness_pair = None
    for m in members:
        hit = next((u for u in inner.gens if u.support_mask & ~m.support_mask == 0), None)
        if hit is not None:
            witness_pair = (hit, m)
            break

    if witness_nonsquarefree is not None or witness_pair is not None:
        return SquarefreeCertificate(False, None, witness_nonsquarefree, witness_pair)

    family = sorted({m.support_mask for m in members})
    for f in family:
        xf = Monomial.from_support(IndexSet(n, f))
        if xf not in outer or xf in inner:
            raise InternalCheckError(
                f"support family contains {IndexSet(n, f)} but {xf} is not in the difference")
    return SquarefreeCertificate(True, tuple(family), None, None)


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
    found = set()
    for g in module.support_masks():
        colon = {h & ~g for h in gens}
        minimal = [m for m in colon if not any(o != m and o & m == o for o in colon)]
        if all(m.bit_count() == 1 for m in minimal):
            f = 0
            for m in minimal:
                f |= m
            found.add(f)
    return tuple(IndexSet(module.n, f) for f in sorted(found))


@dataclass(frozen=True)
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
        return cls.of(n, (Interval(IndexSet(n, b), IndexSet(n, t)) for b, t in pairs))

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
    covered = []
    for iv in dec.intervals:
        covered.extend(iv.member_masks())
    return len(covered) == len(set(covered)) and set(covered) == set(module.support_masks())


def dualize_decomposition(dec: StanleyDecomposition) -> StanleyDecomposition:
    """Interval [F, G] goes to [complement of G, complement of F].

    Takes partitions of a support to partitions of the complementary
    support; an involution on decompositions.
    """
    return StanleyDecomposition.of(
        dec.n, (Interval(iv.top.complement(), iv.bottom.complement())
                for iv in dec.intervals))


def _cover_min_top(module, k):
    """A partition with every top of size at least k, if one exists."""
    order = sorted(module.support_masks(), key=lambda t: (-t.bit_count(), t))
    cache = {}

    def tops_for(e):
        got = cache.get(e)
        if got is None:
            got = [t for t in order if t & e == e and t.bit_count() >= k]
            cache[e] = got
        return got

    return first_interval_partition(module.support_word, tops_for)


def _cover_max_bottom(module, h):
    """A partition with every bottom of size at most h, if one exists.

    Bottoms are forced by the search engine, so the gate is a refusal to
    extend any state whose forced bottom is too large.
    """
    order = sorted(module.support_masks(), key=lambda t: (-t.bit_count(), t))
    cache = {}

    def tops_for(e):
        if e.bit_count() > h:
            return ()
        got = cache.get(e)
        if got is None:
            got = [t for t in order if t & e == e]
            cache[e] = got
        return got

    return first_interval_partition(module.support_word, tops_for)


def _as_decomposition(module, pairs):
    return StanleyDecomposition.from_masks(module.n, pairs)


def sdepth(module: SqQuotient) -> tuple[int, StanleyDecomposition]:
    """The Stanley depth of the module and a witnessing decomposition.

    Interval partitions of the support realize the Stanley depth
    exactly, so this is a finite search: binary search on the smallest
    top size, bounded above by the smallest facet of the support (a
    maximal support member can only be the top of its own interval).
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no Stanley depth")
    lo = 0
    hi = min(m.bit_count() for m in module.facet_masks())
    witness = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = _cover_min_top(module, mid)
        if found is not None:
            lo, witness = mid, found
        else:
            hi = mid - 1
    if witness is None:
        # no probe succeeded, so lo is still 0 and was never probed
        witness = _cover_min_top(module, lo)
        if witness is None:
            raise InternalCheckError("feasibility vanished at the optimum")
    return lo, _as_decomposition(module, witness)


def hreg_min(module: SqQuotient) -> tuple[int, StanleyDecomposition]:
    """The smallest achievable hreg over all decompositions, with witness.

    Minimal support members are bottoms in every partition, so their
    largest size is a lower bound; singleton intervals realize n.
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no decompositions")
    lo = max(m.bit_count() for m in module.minimal_masks())
    hi = module.n
    witness = None
    while lo < hi:
        mid = (lo + hi) // 2
        found = _cover_max_bottom(module, mid)
        if found is not None:
            hi, witness = mid, found
        else:
            lo = mid + 1
    if witness is None:
        # no probe succeeded, so lo == hi == n was never probed
        witness = _cover_max_bottom(module, lo)
        if witness is None:
            raise InternalCheckError("feasibility vanished at the optimum")
    return lo, _as_decomposition(module, witness)
