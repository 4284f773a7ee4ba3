"""Monomials and monomial ideals, with the squarefree specialization.

Ideals are kept by their unique minimal generating set in a canonical
order (support colex, then total degree, then exponent vector), so two
equal ideals are equal as values.  The zero ideal has no generators;
the unit ideal is generated by the empty monomial.  The unit ideal is
representable because colon results need it, but the Stanley-Reisner
correspondence and tilde refuse it as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapExceededError, NMismatchError, NonSquarefreeError
from .setcalc import (
    MATERIALIZE_BITS,
    IndexSet,
    SimplicialComplex,
    _same_n,
    family_word,
    full_word,
    minimal_nonface_masks,
    minimal_sets,
    one_smaller,
    up_closure,
    word_masks,
)

MAX_EXPONENT = 1 << 16


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial x^a as its exponent tuple; the empty monomial is 1."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        for e in self.exponents:
            if not isinstance(e, int) or not 0 <= e < MAX_EXPONENT:
                raise ValueError(f"exponent {e!r} outside [0, {MAX_EXPONENT})")

    @classmethod
    def of(cls, *exponents: int) -> "Monomial":
        return cls(tuple(exponents))

    @classmethod
    def from_support(cls, s: IndexSet) -> "Monomial":
        """The squarefree monomial x_F."""
        return cls(tuple(s.mask >> i & 1 for i in range(s.n)))

    @classmethod
    def variable(cls, n: int, i: int) -> "Monomial":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside [1, {n}]")
        return cls(tuple(1 if j == i - 1 else 0 for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support_mask(self) -> int:
        return sum(1 << i for i, e in enumerate(self.exponents) if e)

    @property
    def support(self) -> IndexSet:
        return IndexSet(self.n, self.support_mask)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def is_one(self) -> bool:
        return self.degree == 0

    def divides(self, other: "Monomial") -> bool:
        _same_n(self, other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _same_n(self, other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def quotient_by(self, other: "Monomial") -> "Monomial":
        """self / gcd(self, other); the colon generator contributed by self."""
        _same_n(self, other)
        return Monomial(tuple(max(a - b, 0) for a, b in zip(self.exponents, other.exponents)))

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.support_mask, self.degree, self.exponents)

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial.of{self.exponents}"


def minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Unique minimal generating set in canonical order; idempotent.

    A divisor sorts weakly before its multiples under the canonical key
    (its support mask is a submask, hence numerically no larger), so one
    forward pass keeping undominated elements suffices, and `divides`
    runs only on pairs whose support masks pass that submask test.
    """
    out: list[Monomial] = []
    masks: list[int] = []
    for g in sorted(set(gens), key=Monomial.sort_key):
        if out:
            # the mask test keeps divides from seeing every pair
            _same_n(out[0], g)
        gm = g.support_mask
        if not any(hm & ~gm == 0 and h.divides(g) for h, hm in zip(out, masks)):
            out.append(g)
            masks.append(gm)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A monomial ideal by its canonical minimal generating set."""

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self):
        for g in self.gens:
            if g.n != self.n:
                raise NMismatchError(f"generator over n={g.n} in ideal over n={self.n}")
        if self.gens != minimalize(self.gens):
            raise ValueError("generators not minimal/canonical; use MonomialIdeal.of")

    @classmethod
    def of(cls, n: int, gens: Iterable[Monomial]) -> "MonomialIdeal":
        gens = tuple(gens)
        for g in gens:
            if g.n != n:
                raise NMismatchError(f"generator over n={g.n}, expected n={n}")
        return cls(n, minimalize(gens))

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Monomial(tuple(0 for _ in range(n))),))

    @classmethod
    def prime(cls, n: int, f: IndexSet) -> "MonomialIdeal":
        """The monomial prime P_F = (x_i : i in F)."""
        if f.n != n:
            raise NMismatchError(f"prime support over n={f.n}, expected n={n}")
        return cls.of(n, (Monomial.variable(n, i) for i in f))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_one

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def __contains__(self, m: Monomial) -> bool:
        _same_n(self, m)
        return any(g.divides(m) for g in self.gens)

    def contains_mask(self, mask: int) -> bool:
        """Membership of the squarefree monomial with the given support mask.

        Only squarefree generators can divide a squarefree monomial.
        """
        return any(g.is_squarefree and g.support_mask & ~mask == 0 for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        _same_n(self, other)
        return MonomialIdeal.of(self.n, self.gens + other.gens)

    def colon(self, w: Monomial) -> "MonomialIdeal":
        """The colon ideal (I : w), again a monomial ideal."""
        _same_n(self, w)
        return MonomialIdeal.of(self.n, (g.quotient_by(w) for g in self.gens))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def _check_mask(n: int, mask: int) -> int:
    """The mask, if it is a subset of [n]; ValueError otherwise."""
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for n={n}")
    return mask


@dataclass(frozen=True, slots=True)
class SqIdeal:
    """A squarefree monomial ideal by its generator support masks."""

    n: int
    gen_masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.gen_masks)
        if masks != minimal_sets(masks):
            raise ValueError("generator masks are not a colex-sorted antichain; use SqIdeal.of")
        # sorted, so the first and last masks bound the rest
        for a in masks[:1] + masks[-1:]:
            _check_mask(self.n, a)

    @classmethod
    def of(cls, n: int, gens: Iterable[IndexSet | int]) -> "SqIdeal":
        masks = []
        for g in gens:
            if isinstance(g, IndexSet) and g.n != n:
                raise NMismatchError(f"generator over n={g.n}, expected n={n}")
            masks.append(g.mask if isinstance(g, IndexSet) else _check_mask(n, g))
        # every input is checked: minimal_sets would drop an out-of-range
        # mask that contains another one
        return cls(n, minimal_sets(masks))

    @classmethod
    def from_monomial_ideal(cls, ideal: MonomialIdeal) -> "SqIdeal":
        if not ideal.is_squarefree:
            bad = next(g for g in ideal.gens if not g.is_squarefree)
            raise NonSquarefreeError(f"generator {bad} is not squarefree")
        return cls(ideal.n, tuple(g.support_mask for g in ideal.gens))

    def to_monomial_ideal(self) -> MonomialIdeal:
        return MonomialIdeal.of(
            self.n, (Monomial.from_support(IndexSet(self.n, m)) for m in self.gen_masks))

    @property
    def gens(self) -> tuple[IndexSet, ...]:
        return tuple(IndexSet(self.n, m) for m in self.gen_masks)

    @property
    def is_zero(self) -> bool:
        return not self.gen_masks

    @property
    def is_unit(self) -> bool:
        return self.gen_masks == (0,)

    def contains_mask(self, mask: int) -> bool:
        for g in self.gen_masks:
            if g & ~mask == 0:
                return True
        return False

    def member_word(self) -> int:
        """The squarefree members as a family word: the up-closure of the
        generators."""
        if self.n > MATERIALIZE_BITS:
            raise CapExceededError(f"2^{self.n} sweep refused; n must be <= {MATERIALIZE_BITS}")
        return up_closure(family_word(self.gen_masks), self.n)

    def __contains__(self, s: IndexSet) -> bool:
        if s.n != self.n:
            raise NMismatchError(f"set over n={s.n} in ideal over n={self.n}")
        return self.contains_mask(s.mask)

    def __str__(self) -> str:
        return str(self.to_monomial_ideal())


def _sr_facet_masks(ideal: SqIdeal) -> tuple[int, ...]:
    """Facets of the Stanley-Reisner complex, colex order: the faces
    (non-members of the ideal) with no face one element larger."""
    faces = full_word(ideal.n) & ~ideal.member_word()
    return word_masks(faces & ~one_smaller(faces, ideal.n))


def sr_complex(ideal: SqIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the members of the ideal.

    Inverse to sr_ideal; defined for proper ideals only (the unit ideal
    would give the void complex, which callers must opt into).
    """
    if ideal.is_unit:
        raise ValueError("unit ideal has no Stanley-Reisner complex; faces would be empty")
    return SimplicialComplex(ideal.n, tuple(IndexSet(ideal.n, m) for m in _sr_facet_masks(ideal)))


def sr_ideal(cx: SimplicialComplex) -> SqIdeal:
    """The ideal generated by the minimal non-faces of cx.

    Inverse to sr_complex on nonvoid complexes; the void complex would
    give the unit ideal and is rejected.
    """
    if cx.is_void:
        raise ValueError("void complex has unit Stanley-Reisner ideal; refusing")
    return SqIdeal(cx.n, minimal_nonface_masks(cx))


def tilde(ideal: SqIdeal) -> SqIdeal:
    """The Alexander dual ideal: generators are the facet complements of
    the ideal's Stanley-Reisner complex.

    Involution on proper nonzero squarefree ideals; inclusion-reversing.
    The zero ideal maps to the unit ideal (its complex is the full
    simplex, whose dual is void); the unit ideal is rejected as input.
    """
    if ideal.is_unit:
        raise ValueError("tilde of the unit ideal is undefined here; unit rejected as input")
    full = (1 << ideal.n) - 1
    return SqIdeal(ideal.n, tuple(full ^ m for m in reversed(_sr_facet_masks(ideal))))
