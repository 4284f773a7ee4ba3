"""The exterior side: sign calculus, transfer, and duality of functionals.

Everything here runs over the exterior algebra on e_1, ..., e_n with
e_F standing for the wedge of the e_j with j in F, taken in increasing
order.  Products of basis elements pick up the sign counting the
inversions between the two index sets, and every identity in this
module is a bookkeeping statement about those counts.

A squarefree quotient has an exterior counterpart with the same
support; multiplication by e_G moves basis classes around the support
with signs.  The transfer map theta rewrites a presentation of a
squarefree monomial in terms of ideal generators into the exterior
module; its defining sign makes the result independent of the
presentation.  Dual functionals carry a right action, and both
decompositions and modules dualize with explicit signs.
"""

from dataclasses import dataclass

from .errors import NMismatchError
from .setcalc import IndexSet, MaskPair, sigma_masks
from .sqmod import SqQuotient, StanleyDecomposition, dualize_quotient


def _sign(count: int) -> int:
    return -1 if count % 2 else 1


@dataclass(frozen=True, slots=True)
class ExtElement:
    """An exterior algebra element as a sparse integer combination of e_F.

    Items are (mask, coefficient) pairs, mask sorted, zero coefficients
    dropped, so equality of elements is equality of the dataclass.
    Multiplication is the wedge product; integers act as scalars.
    """

    n: int
    items: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = -1
        for m, c in self.items:
            if type(m) is not int or type(c) is not int:
                raise ValueError(f"item {(m, c)!r} is not a pair of ints")
            if not 0 <= m < (1 << self.n):
                raise ValueError(f"mask out of range for n={self.n}")
            if m <= last:
                raise ValueError("items not mask sorted and unique; use ExtElement.of")
            if c == 0:
                raise ValueError("zero coefficient present; use ExtElement.of")
            last = m

    @classmethod
    def of(cls, n: int, coeffs) -> "ExtElement":
        acc = {}
        pairs = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for m, c in pairs:
            acc[m] = acc.get(m, 0) + c
        return cls(n, tuple((m, acc[m]) for m in sorted(acc) if acc[m]))

    @classmethod
    def basis(cls, n: int, f) -> "ExtElement":
        return cls(n, ((f.mask if isinstance(f, IndexSet) else f, 1),))

    @classmethod
    def zero(cls, n: int) -> "ExtElement":
        return cls(n, ())

    @property
    def is_zero(self) -> bool:
        return not self.items

    def coeff(self, mask: int) -> int:
        for m, c in self.items:
            if m == mask:
                return c
        return 0

    def support_masks(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.items)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if other.n != self.n:
            raise NMismatchError(f"elements over n={self.n} and n={other.n}")
        return ExtElement.of(self.n, list(self.items) + list(other.items))

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.n, tuple((m, -c) for m, c in self.items))

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "ExtElement":
        return ExtElement.of(self.n, [(m, scalar * c) for m, c in self.items])

    def __mul__(self, other) -> "ExtElement":
        if isinstance(other, int):
            return other * self
        return wedge(self, other)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for m, c in self.items:
            name = "e{" + ",".join(str(j) for j in IndexSet(self.n, m).members) + "}"
            if m == 0:
                name = "1"
            parts.append(f"{c}*{name}")
        return " + ".join(parts)


def wedge(a: ExtElement, b: ExtElement) -> ExtElement:
    """The product, with e_F e_G = 0 on overlap and otherwise the sign
    counting inversions between F and G."""
    if a.n != b.n:
        raise NMismatchError(f"elements over n={a.n} and n={b.n}")
    acc = []
    for m1, c1 in a.items:
        for m2, c2 in b.items:
            if m1 & m2:
                continue
            acc.append((m1 | m2, _sign(sigma_masks(m1, m2)) * c1 * c2))
    return ExtElement.of(a.n, acc)


@dataclass(frozen=True, slots=True)
class ExtQuotientModule:
    """The exterior counterpart of a squarefree quotient.

    Basis classes are the e_F with F in the support of the underlying
    quotient; components falling into the inner ideal vanish.  Canonical
    representatives carry only support masks, so module equality is
    equality of representatives.
    """

    base: SqQuotient

    @property
    def n(self) -> int:
        return self.base.n

    def support_masks(self) -> tuple[int, ...]:
        return self.base.support_masks()

    def generator_masks(self) -> tuple[int, ...]:
        return self.base.outer.gen_masks

    def reduce(self, x: ExtElement) -> ExtElement:
        """Canonical representative of the class of x, which must lie in
        the module (all components inside the outer ideal)."""
        if x.n != self.n:
            raise NMismatchError(f"element over n={x.n} in module over n={self.n}")
        for m, _ in x.items:
            if not self.base.outer.contains_mask(m):
                raise ValueError(
                    f"component {IndexSet(self.n, m)} lies outside the outer ideal")
        # x's items minus those in the inner ideal are still canonical
        return ExtElement(self.n, tuple(
            item for item in x.items if not self.base.inner.contains_mask(item[0])))

    def basis_class(self, f) -> ExtElement:
        return self.reduce(ExtElement.basis(self.n, f))

    def mul_left(self, a: ExtElement, x: ExtElement) -> ExtElement:
        return self.reduce(wedge(a, x))

    def mul_right(self, x: ExtElement, a: ExtElement) -> ExtElement:
        return self.reduce(wedge(x, a))

    def __str__(self) -> str:
        return f"E-side {self.base}"


def to_exterior(module: SqQuotient) -> ExtQuotientModule:
    return ExtQuotientModule(module)


def theta(emod: ExtQuotientModule, f: IndexSet, presentation) -> ExtElement:
    """Transfer a presentation of x_F into the exterior module.

    The presentation is a sequence of (coefficient, generator) pairs
    writing x_F as the sum of coefficient * x_(F minus G) * x_G over
    generators G of the outer ideal contained in F.  Each term maps to

        coefficient * (-1)^inversions(G, F minus G) * e_G e_(F minus G)

    and the sign makes the total depend only on the sum of the
    coefficients: presentations of x_F itself (coefficients summing to
    one) all land on e_F.
    """
    if f.n != emod.n:
        raise NMismatchError(f"degree over n={f.n} in module over n={emod.n}")
    total = ExtElement.zero(emod.n)
    for a, g in presentation:
        if g.n != emod.n:
            raise NMismatchError(f"generator over n={g.n} in module over n={emod.n}")
        if g.mask not in emod.generator_masks():
            raise ValueError(f"{g} is not a generator of the outer ideal")
        if g.mask & ~f.mask:
            raise ValueError(f"generator {g} is not contained in the degree {f}")
        l_mask = f.mask & ~g.mask
        term = emod.mul_right(emod.basis_class(g.mask),
                              ExtElement.basis(emod.n, l_mask))
        total = total + (a * _sign(sigma_masks(g.mask, l_mask))) * term
    return total


def theta_monomial(emod: ExtQuotientModule, f: IndexSet) -> ExtElement:
    """theta on the one-term presentation through the smallest generator."""
    g = min(m for m in emod.generator_masks() if m & ~f.mask == 0)
    return theta(emod, f, [(1, IndexSet(emod.n, g))])


def pairing(phi: ExtElement, x: ExtElement) -> int:
    """Evaluate a functional (coefficients on the dual basis) on an element."""
    if phi.n != x.n:
        raise NMismatchError(f"functional over n={phi.n} on element over n={x.n}")
    return sum(c * x.coeff(m) for m, c in phi.items)


def dual_right_mul(emod: ExtQuotientModule, phi: ExtElement, a: ExtElement) -> ExtElement:
    """The right action on functionals: (phi a)(x) = phi(a x).

    Computed by evaluation against every basis class, which keeps this
    definitionally honest; the closed componentwise form is a theorem
    checked in the test suite.
    """
    comps = []
    for m in emod.support_masks():
        v = pairing(phi, emod.mul_left(a, emod.basis_class(m)))
        if v:
            comps.append((m, v))
    return ExtElement.of(emod.n, comps)


def e_dual(emod: ExtQuotientModule) -> ExtQuotientModule:
    """The exterior module on the complementary support."""
    return ExtQuotientModule(dualize_quotient(emod.base))


def dual_functional_image(emod: ExtQuotientModule, phi: ExtElement) -> ExtElement:
    """The isomorphism from functionals on the module to the dual module.

    The functional dual to the basis class at D goes to the sign
    (-1)^inversions(complement of D, D) times the basis class at the
    complement of D; this choice intertwines the right actions on both
    sides.
    """
    if phi.n != emod.n:
        raise NMismatchError(f"functional over n={phi.n} on module over n={emod.n}")
    full = (1 << emod.n) - 1
    supp = set(emod.support_masks())
    comps = []
    for m, c in phi.items:
        if m not in supp:
            raise ValueError(f"functional component {IndexSet(emod.n, m)} outside the support")
        comps.append((full ^ m, _sign(sigma_masks(full ^ m, m)) * c))
    return ExtElement.of(emod.n, comps)


@dataclass(frozen=True, slots=True)
class EPiece(MaskPair):
    """One summand of an exterior decomposition: the class of e_start
    times the subalgebra on the free variables."""

    start: IndexSet
    free: IndexSet

    def __post_init__(self):
        if self.start.n != self.free.n:
            raise NMismatchError(
                f"piece start over n={self.start.n}, free over n={self.free.n}")
        if not self.start.isdisjoint(self.free):
            raise ValueError(f"start {self.start} meets free variables {self.free}")

    @property
    def n(self) -> int:
        return self.start.n

    def __str__(self) -> str:
        return f"({self.start}, {self.free})"


@dataclass(frozen=True, slots=True)
class EDecomposition:
    n: int
    pieces: tuple[EPiece, ...]

    def __post_init__(self):
        keys = []
        for p in self.pieces:
            if p.n != self.n:
                raise NMismatchError(f"piece over n={p.n} in decomposition over n={self.n}")
            keys.append((p.start.mask, p.free.mask))
        if keys != sorted(keys):
            raise ValueError("pieces not in canonical order; use EDecomposition.of")

    @classmethod
    def of(cls, n: int, pieces) -> "EDecomposition":
        ps = sorted(pieces, key=lambda p: (p.start.mask, p.free.mask))
        return cls(n, tuple(ps))

    def __str__(self) -> str:
        return " + ".join(str(p) for p in self.pieces)


def s_to_e_decomposition(dec: StanleyDecomposition) -> EDecomposition:
    """Interval [F, G] corresponds to the piece starting at F with free
    variables G minus F; both span the same degrees."""
    n = dec.n
    pairs = sorted((iv.bottom.mask, iv.top.mask & ~iv.bottom.mask) for iv in dec.intervals)
    return EDecomposition(n, tuple(EPiece.from_masks(n, s, f) for s, f in pairs))


def e_to_s_decomposition(dec: EDecomposition) -> StanleyDecomposition:
    return StanleyDecomposition.from_masks(
        dec.n, ((p.start.mask, p.start.mask | p.free.mask) for p in dec.pieces))


def edual_decomposition(dec: EDecomposition):
    """Dualize an exterior decomposition piecewise, recording signs.

    The piece (start, free) has the single top degree start + free; the
    functional dual to the class generated there starts the dual piece,
    and it equals (-1)^inversions(start, free) times the plain dual
    basis functional at that degree.  Returns the dual decomposition
    (pieces complemented at the top, free variables kept) and the tuple
    of those signs, aligned with the canonical piece order of the
    result.
    """
    n, full = dec.n, (1 << dec.n) - 1
    tagged = sorted((full ^ (p.start.mask | p.free.mask), p.free.mask,
                     _sign(sigma_masks(p.start.mask, p.free.mask))) for p in dec.pieces)
    return (EDecomposition(n, tuple(EPiece.from_masks(n, s, f) for s, f, _ in tagged)),
            tuple(sign for _, _, sign in tagged))
