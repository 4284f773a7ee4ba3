"""Instance sweeps that assert the theorems and flag the conjectures.

One record per module: combinatorial depth data on the primal side,
regularity data on the dual side, and the two inequalities under
study.  Facts with proofs are enforced; a violation raises
TheoremViolationError naming the instance, because it can only mean a
bug.  The open inequalities are recorded as booleans and a False never
raises, so a sweep that finds a counterexample completes and reports
it.

Sweeps are deterministic: exhaustive enumeration follows the fixed
antichain order, random sampling follows the caller's seed, and worker
processes only measure the modules, passed as they are enumerated,
whose results are reassembled in input order, so the emitted records
are identical however many jobs run.
"""

from dataclasses import dataclass
from functools import partial
from random import Random

from .errors import CapExceededError, TheoremViolationError
from .homology import DEFAULT_CHAR, betti, invariants
from .instances import all_quotients, random_quotient
from .setcalc import braced
from .sqmod import SqQuotient, _hreg_walk, _is_partition, _sdepth_walk, dualize_quotient

EXHAUSTIVE_CAP = 4
# the keys of SurveyRecord.row, in order: the CSV header of every survey
COLUMNS = ("n", "inner", "outer", "sdepth", "depth", "sdepth_ge_depth", "hreg_min",
           "hreg_dual", "reg", "hreg_le_reg", "projdim", "dim", "cohen_macaulay")


@dataclass(frozen=True, slots=True)
class SurveyRecord:
    n: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]
    sdepth: int
    depth: int
    hreg_min: int
    hreg_dual: int
    reg: int
    projdim: int
    dim: int
    cohen_macaulay: bool

    @property
    def sdepth_ge_depth(self) -> bool:
        return self.sdepth >= self.depth

    @property
    def hreg_le_reg(self) -> bool:
        return self.hreg_min <= self.reg

    def row(self) -> dict:
        """The record under COLUMNS, generator masks written as sets."""
        row = {c: getattr(self, c) for c in COLUMNS}
        for c in ("inner", "outer"):
            row[c] = " ".join(braced(self.n, m) for m in row[c]) or "-"
        return row


def survey_module(module: SqQuotient, char: int = DEFAULT_CHAR) -> SurveyRecord:
    """Measure one module and enforce the proved identities on it.

    sdepth and hreg_min are one search each, on the support and on its
    complements.  hreg_dual, n - sdepth of the dual, is by decomposition
    duality the second search read the other way, so it equals hreg_min.
    Projective dimension must match the dual regularity.  Both witnesses
    are checked with set code, apart from the cover engine: each must
    partition the support and attain its value (smallest top, largest
    bottom).  That catches pairs that miss or repeat a member, and a
    walk that refuses a feasible size and reports less than its own
    partition reaches.  It proves no optimality: a refused size followed
    by a partition attaining the next size passes.  Any failure is a
    defect, not a discovery.
    """
    n = module.n
    s, s_pairs = _sdepth_walk(module)
    h, h_pairs = _hreg_walk(module)
    inv = invariants(module, char)
    dual_table = betti(dualize_quotient(module), char)
    rec = SurveyRecord(
        n=n,
        inner=module.inner.gen_masks,
        outer=module.outer.gen_masks,
        sdepth=s,
        depth=inv.depth,
        hreg_min=h,
        hreg_dual=h,
        reg=inv.reg,
        projdim=inv.projdim,
        dim=inv.dim,
        cohen_macaulay=inv.cohen_macaulay,
    )
    where = f"inner={rec.inner} outer={rec.outer} n={n}"
    masks = module.support_masks()
    for name, value, pairs, reached in (
            ("sdepth", s, s_pairs, min((t.bit_count() for _, t in s_pairs), default=None)),
            ("hreg", h, h_pairs, max((b.bit_count() for b, _ in h_pairs), default=None))):
        if reached != value or not _is_partition(masks, pairs):
            raise TheoremViolationError(
                f"{name}: witness is not a partition attaining {value} on {where}")
    if rec.projdim != dual_table.reg:
        raise TheoremViolationError(
            f"projdim {rec.projdim} != dual reg {dual_table.reg} on {where}")
    return rec


def _run(modules, char, jobs):
    measure = partial(survey_module, char=char)
    if jobs > 1:
        # imported here: a sweep in one process, and every other caller
        # of the package, never loads multiprocessing
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            return pool.map(measure, modules, chunksize=16)
    return list(map(measure, modules))


def survey_exhaustive(n: int, char: int = DEFAULT_CHAR, cap: int = EXHAUSTIVE_CAP,
                      jobs: int = 1) -> list[SurveyRecord]:
    """Every nonzero quotient at this n, in enumeration order."""
    if n > cap:
        raise CapExceededError(
            f"exhaustive survey capped at n <= {cap}; raise the cap knowingly")
    return _run(all_quotients(n), char, jobs)


def survey_random(n: int, count: int, seed: int, char: int = DEFAULT_CHAR,
                  jobs: int = 1) -> list[SurveyRecord]:
    """count seeded random modules; the same seed gives the same records."""
    rng = Random(seed)
    return _run([random_quotient(rng, n) for _ in range(count)], char, jobs)


def counterexamples(records) -> list[SurveyRecord]:
    """Records where either open inequality fails."""
    return [r for r in records if not (r.sdepth_ge_depth and r.hreg_le_reg)]
