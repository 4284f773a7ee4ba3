"""Multigraded Betti numbers and the duality statements built on them.

Betti numbers of a squarefree quotient are computed degree by degree
from the Koszul complex: in squarefree degree sigma, homological level
i has one basis vector for each i-subset T of sigma whose complement
inside sigma lies in the support, the differential sends T to its
one-smaller subsets with alternating signs whenever the moved variable
keeps the module part alive, and the Betti number is the homology
dimension.  Ranks are taken over a prime field (or the rationals when
the characteristic is zero); the matrices involved never exceed a few
dozen rows at the sizes this package sweeps.

On top of the table: regularity, projective dimension, depth through
the Auslander-Buchsbaum formula, Krull dimension from the support
facets, Cohen-Macaulayness, and linearity of the resolution.  The
checks at the bottom pair a module with its Alexander dual and report
whether the classical dualities hold for it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, ZeroModuleError
from .ideals import SqIdeal, sr_ideal, tilde
from .setcalc import IndexSet, SimplicialComplex, submasks
from .sqmod import SqQuotient, _hreg_walk, _sdepth_walk, dualize_quotient

DEFAULT_CHAR = 32003


def _rank(rows, char):
    """Row rank of a small integer matrix over F_char, or over the
    rationals when char is 0."""
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


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers as (level, degree mask, value)."""

    n: int
    char: int
    entries: tuple[tuple[int, int, int], ...]

    def value(self, i: int, mask: int) -> int:
        for level, m, v in self.entries:
            if level == i and m == mask:
                return v
        return 0

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def projdim(self) -> int:
        if self.is_empty:
            raise ZeroModuleError("empty Betti table")
        return max(i for i, _, _ in self.entries)

    @property
    def reg(self) -> int:
        if self.is_empty:
            raise ZeroModuleError("empty Betti table")
        return max(m.bit_count() - i for i, m, _ in self.entries)

    def generator_masks(self) -> tuple[int, ...]:
        return tuple(m for i, m, _ in self.entries if i == 0)

    def total(self, i: int) -> int:
        return sum(v for level, _, v in self.entries if level == i)

    def __str__(self) -> str:
        lines = [f"b_{i} {IndexSet(self.n, m)} = {v}" for i, m, v in self.entries]
        return "\n".join(lines) if lines else "(zero table)"


def betti(module: SqQuotient, char: int = DEFAULT_CHAR) -> BettiTable:
    """The multigraded Betti table of the module over the chosen field."""
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
            ranks[i] = _rank(rows, char)
        for i, lst in bases.items():
            b = len(lst) - ranks.get(i, 0) - ranks.get(i + 1, 0)
            if b < 0:
                raise InternalCheckError("negative homology dimension")
            if b:
                entries.append((i, sigma, b))
    return BettiTable(module.n, char, tuple(sorted(entries)))


@dataclass(frozen=True)
class InvariantReport:
    n: int
    char: int
    betti: BettiTable
    projdim: int
    reg: int
    depth: int
    dim: int
    cohen_macaulay: bool
    linear_resolution: bool

    def __str__(self) -> str:
        return (f"projdim={self.projdim} reg={self.reg} depth={self.depth} "
                f"dim={self.dim} CM={self.cohen_macaulay} "
                f"linear={self.linear_resolution}")


def invariants(module: SqQuotient, char: int = DEFAULT_CHAR) -> InvariantReport:
    """Homological invariants of a nonzero squarefree quotient.

    Depth comes from projective dimension by Auslander-Buchsbaum, Krull
    dimension is the largest facet of the support, and the resolution
    counts as linear when the module is generated in one degree and
    every Betti degree exceeds the level by exactly that amount.
    """
    if module.is_zero:
        raise ZeroModuleError("the zero module has no invariant report")
    table = betti(module, char)
    gens = table.generator_masks()
    sizes = {m.bit_count() for m in gens}
    linear = (len(sizes) == 1
              and all(m.bit_count() - i == next(iter(sizes))
                      for i, m, _ in table.entries))
    depth = module.n - table.projdim
    dim = max(m.bit_count() for m in module.facet_masks())
    return InvariantReport(
        n=module.n,
        char=char,
        betti=table,
        projdim=table.projdim,
        reg=table.reg,
        depth=depth,
        dim=dim,
        cohen_macaulay=depth == dim,
        linear_resolution=linear,
    )


@dataclass(frozen=True)
class TeraiRecord:
    """Projective dimension of a module against regularity of its dual."""

    n: int
    projdim: int
    dual_reg: int

    @property
    def ok(self) -> bool:
        return self.projdim == self.dual_reg


def terai_check(module: SqQuotient, char: int = DEFAULT_CHAR) -> TeraiRecord:
    if module.is_zero:
        raise ZeroModuleError("the zero module has no Terai record")
    return TeraiRecord(
        n=module.n,
        projdim=betti(module, char).projdim,
        dual_reg=betti(dualize_quotient(module), char).reg,
    )


@dataclass(frozen=True)
class EagonReinerRecord:
    """Cohen-Macaulayness of a complex against linearity of the dual ideal."""

    n: int
    cohen_macaulay: bool
    dual_linear: bool

    @property
    def ok(self) -> bool:
        return self.cohen_macaulay == self.dual_linear


def eagon_reiner_check(cx: SimplicialComplex, char: int = DEFAULT_CHAR) -> EagonReinerRecord:
    """Check the complex side of Alexander duality on one complex.

    The face ring of the full simplex is free and counts as
    Cohen-Macaulay; its dual ideal is the whole ring, whose resolution
    is trivially linear.
    """
    if cx.is_void:
        raise ValueError("the void complex has no face ring")
    n = cx.n
    ideal = sr_ideal(cx)
    face_ring = SqQuotient(n, ideal, SqIdeal.of(n, [0]))
    dual_ideal_module = SqQuotient(n, SqIdeal.of(n, []), tilde(ideal))
    return EagonReinerRecord(
        n=n,
        cohen_macaulay=invariants(face_ring, char).cohen_macaulay,
        dual_linear=invariants(dual_ideal_module, char).linear_resolution,
    )


@dataclass(frozen=True)
class DepthDualityRecord:
    """Stanley depth against depth, seen through the dual module.

    Dualizing decompositions swaps small tops for large bottoms, so the
    Stanley depth reaching the depth of the module is equivalent to the
    dual module admitting a decomposition with bottoms bounded by the
    dual regularity.
    """

    n: int
    sdepth: int
    depth: int
    dual_hreg_min: int
    dual_reg: int

    @property
    def ok(self) -> bool:
        return (self.sdepth >= self.depth) == (self.dual_hreg_min <= self.dual_reg)


def depth_duality_check(module: SqQuotient, char: int = DEFAULT_CHAR) -> DepthDualityRecord:
    if module.is_zero:
        raise ZeroModuleError("the zero module has no depth duality record")
    s, _ = _sdepth_walk(module)
    dual = dualize_quotient(module)
    h, _ = _hreg_walk(dual)
    return DepthDualityRecord(
        n=module.n,
        sdepth=s,
        depth=module.n - betti(module, char).projdim,
        dual_hreg_min=h,
        dual_reg=betti(dual, char).reg,
    )
