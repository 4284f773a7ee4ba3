"""Command line interface.

Instances come in as JSON documents (a file path or ``-`` for stdin)
and results go to stdout as JSON, or as CSV for the tabular commands.
Module commands promote what they are given: a bare ideal I means the
cyclic quotient S/I, a complex means its face ring, and a quotient
block means exactly that pair.  The linquot command is the exception,
operating on the ideal itself.

Exit codes: 0 for any completed computation, including a sweep that
flags conjecture counterexamples; 1 for usage errors; 2 for inputs
that cannot be read or fail their contracts; 3 when a proved statement
fails to verify, which means a defect in this package; 4 when a size
cap is exceeded.

Output is byte-identical across runs with the same inputs and seed.
Timing notes are opt-in (--timings) and go to stderr, keeping stdout
clean.
"""

import argparse
import json
import os
import sys
import time

from .errors import (
    CapExceededError,
    FormatError,
    InternalCheckError,
    NMismatchError,
    NonSquarefreeError,
    TheoremViolationError,
    ZeroModuleError,
)
from .exterior import edual_decomposition, s_to_e_decomposition, theta_monomial, to_exterior
from .filtration import (
    FiltrationStep,
    PrimeFiltration,
    dualize_filtration,
    facet_peel_filtration,
    validate_filtration,
)
from .formats import (
    FORMAT_VERSION,
    QuotientSpec,
    dump_json,
    instance_document,
    parse_gens,
    parse_instance,
    parse_support,
    to_jsonable,
    write_csv,
)
from .homology import DEFAULT_CHAR, check_char, invariants
from .ideals import MonomialIdeal, SqIdeal, tilde
from .linquot import linear_quotients_order, lq_decomposition
from .partition import face_ring, partition_duality_check
from .setcalc import IndexSet, SimplicialComplex, alexander_dual
from .sqmod import SqQuotient, _sdepth_walk, build_quotient, dualize_quotient, hreg_min, sdepth
from .survey import EXHAUSTIVE_CAP, counterexamples, survey_exhaustive, survey_random

DEFAULT_CAP_N = 12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Timer:
    def __init__(self, enabled):
        self.enabled = enabled

    def note(self, label, start):
        if self.enabled:
            print(f"[time] {label}: {time.perf_counter() - start:.3f}s",
                  file=sys.stderr)


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None


def _load(path, cap_n):
    cap = cap_n if cap_n is not None else DEFAULT_CAP_N
    parsed = parse_instance(_read_source(path))
    if parsed.n > cap:
        raise CapExceededError(
            f"instance has n={parsed.n}, above the cap {cap}; "
            "raise --cap-n knowingly")
    return parsed


def _as_module(parsed) -> SqQuotient:
    if isinstance(parsed, MonomialIdeal):
        return build_quotient(parsed, MonomialIdeal.unit(parsed.n))
    if isinstance(parsed, QuotientSpec):
        return build_quotient(parsed.inner, parsed.outer)
    return face_ring(parsed)


def _require_nonzero(module):
    if module.is_zero:
        raise ZeroModuleError("the quotient is zero; nothing to compute")
    return module


def _emit(args, payload):
    sys.stdout.write(dump_json(payload))


def _emit_rows(args, rows, payload):
    if args.format == "csv":
        write_csv(rows, sys.stdout)
    else:
        _emit(args, payload)


def _json_only(args):
    if args.format == "csv":
        raise UsageError("this command emits structured output; use --format json")


def cmd_dual(args):
    _json_only(args)
    parsed = _load(args.instance, args.cap_n)
    if isinstance(parsed, MonomialIdeal):
        result = tilde(SqIdeal.from_monomial_ideal(parsed))
    elif isinstance(parsed, QuotientSpec):
        result = dualize_quotient(build_quotient(parsed.inner, parsed.outer))
    else:
        result = alexander_dual(parsed)
    _emit(args, instance_document(result))
    return 0


def cmd_sdepth(args):
    module = _require_nonzero(_as_module(_load(args.instance, args.cap_n)))
    start = time.perf_counter()
    value, dec = sdepth(module)
    args.timer.note("sdepth search", start)
    rows = [{"n": module.n, "sdepth": value, "intervals": len(dec.intervals)}]
    _emit_rows(args, rows, {"n": module.n, "sdepth": value,
                            "decomposition": to_jsonable(dec)})
    return 0


def cmd_hreg(args):
    module = _require_nonzero(_as_module(_load(args.instance, args.cap_n)))
    start = time.perf_counter()
    value, dec = hreg_min(module)
    via_dual, _ = _sdepth_walk(dualize_quotient(module))
    args.timer.note("hreg search", start)
    from_dual = module.n - via_dual
    rows = [{"n": module.n, "hreg_min": value, "hreg_dual": from_dual}]
    _emit_rows(args, rows, {"n": module.n, "hreg_min": value,
                            "hreg_dual": from_dual,
                            "decomposition": to_jsonable(dec)})
    return 0


def cmd_decompose(args):
    _json_only(args)
    module = _require_nonzero(_as_module(_load(args.instance, args.cap_n)))
    value, dec = sdepth(module)
    _emit(args, {"n": module.n, "sdepth": value, "hreg": dec.hreg,
                 "decomposition": to_jsonable(dec)})
    return 0


def _filtration_document(module, filt):
    return {"version": FORMAT_VERSION, "n": module.n,
            "quotient": to_jsonable(module),
            "filtration": to_jsonable(filt)}


def _parse_filtration_document(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"not valid JSON: {e}") from None
    if not isinstance(obj, dict) or "filtration" not in obj or "quotient" not in obj:
        raise FormatError("expected a document with 'quotient' and 'filtration'")
    if obj.get("version", FORMAT_VERSION) != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {obj.get('version')!r}")
    n = obj.get("n")
    if not isinstance(n, int) or n < 1:
        raise FormatError(f"'n' must be a positive integer, got {n!r}")
    spec = obj["quotient"]
    if not isinstance(spec, dict) or not {"inner", "outer"} <= spec.keys():
        raise FormatError("'quotient' needs 'inner' and 'outer' ideal blocks")
    module = build_quotient(
        MonomialIdeal.of(n, parse_gens(n, spec["inner"], "inner")),
        MonomialIdeal.of(n, parse_gens(n, spec["outer"], "outer")))
    block = obj["filtration"]
    if not isinstance(block, dict) or "base" not in block or "steps" not in block:
        raise FormatError("'filtration' needs 'base' and 'steps'")
    base = SqIdeal.of(n, [g.support_mask
                          for g in parse_gens(n, block["base"], "base")])
    steps = []
    for k, s in enumerate(block["steps"]):
        if not isinstance(s, dict) or "degree" not in s or "prime" not in s:
            raise FormatError(f"step {k}: needs 'degree' and 'prime'")
        steps.append(FiltrationStep(
            parse_support(n, s["degree"], f"step {k} degree"),
            parse_support(n, s["prime"], f"step {k} prime")))
    return module, PrimeFiltration(n, base, tuple(steps))


def cmd_filtration(args):
    _json_only(args)
    if args.action == "build":
        module = _as_module(_load(args.instance, args.cap_n))
        filt = facet_peel_filtration(module)
        _emit(args, _filtration_document(module, filt))
        return 0
    module, filt = _parse_filtration_document(_read_source(args.instance))
    if args.action == "validate":
        _emit(args, {"n": module.n, "valid": validate_filtration(module, filt)})
        return 0
    if not validate_filtration(module, filt):
        raise FormatError("the filtration does not validate against its quotient; "
                          "refusing to dualize it")
    dual_filt = dualize_filtration(filt)
    _emit(args, _filtration_document(dualize_quotient(module), dual_filt))
    return 0


def cmd_exterior(args):
    _json_only(args)
    module = _require_nonzero(_as_module(_load(args.instance, args.cap_n)))
    emod = to_exterior(module)
    if args.action == "theta":
        try:
            members = [int(x) for x in args.set.split(",") if x != ""]
        except ValueError:
            raise FormatError(f"--set {args.set!r} is not a comma separated "
                              "list of integers") from None
        f = parse_support(module.n, members, "--set")
        if f.mask not in emod.support_masks():
            raise FormatError(f"{f} is not in the support of the quotient")
        image = theta_monomial(emod, f)
        _emit(args, {"n": module.n, "set": to_jsonable(f),
                     "theta": to_jsonable(image)})
        return 0
    value, dec = sdepth(module)
    epieces = s_to_e_decomposition(dec)
    dual, signs = edual_decomposition(epieces)
    _emit(args, {"n": module.n, "sdepth": value,
                 "pieces": to_jsonable(epieces),
                 "dual_pieces": to_jsonable(dual),
                 "signs": list(signs)})
    return 0


def cmd_invariants(args):
    module = _require_nonzero(_as_module(_load(args.instance, args.cap_n)))
    start = time.perf_counter()
    inv = invariants(module, args.char)
    args.timer.note("betti", start)
    row = {"n": inv.n, "char": inv.char, "projdim": inv.projdim,
           "reg": inv.reg, "depth": inv.depth, "dim": inv.dim,
           "cohen_macaulay": inv.cohen_macaulay,
           "linear_resolution": inv.linear_resolution}
    _emit_rows(args, [row], {**row, "betti": to_jsonable(inv.betti)})
    return 0


def cmd_linquot(args):
    parsed = _load(args.instance, args.cap_n)
    if not isinstance(parsed, MonomialIdeal):
        raise FormatError("linquot expects an ideal instance")
    order = linear_quotients_order(parsed)
    if order is None:
        row = {"n": parsed.n, "linear_quotients": False}
        _emit_rows(args, [row], row)
        return 0
    payload = {"n": parsed.n, "linear_quotients": True,
               "order": [to_jsonable(g) for g in order.gens],
               "colon_vars": [sorted(IndexSet(parsed.n, v).members)
                              for v in order.colon_vars],
               "r": order.r}
    if all(g.is_squarefree for g in parsed.gens):
        sq = SqIdeal.from_monomial_ideal(parsed)
        dec = lq_decomposition(sq)
        payload["decomposition"] = to_jsonable(dec)
        payload["sdepth"] = dec.sdepth if dec.intervals else None
    row = {"n": parsed.n, "linear_quotients": True, "r": order.r,
           "order": " ".join(str(g) for g in order.gens)}
    _emit_rows(args, [row], payload)
    return 0


def cmd_partition(args):
    parsed = _load(args.instance, args.cap_n)
    if not isinstance(parsed, SimplicialComplex):
        raise FormatError("partition expects a complex instance")
    if parsed.is_void:
        raise FormatError("the void complex has no face ring")
    start = time.perf_counter()
    rec = partition_duality_check(parsed, args.char)
    args.timer.note("partition search", start)
    row = {"n": rec.n, "partitionable": rec.partitionable,
           "cohen_macaulay": rec.cohen_macaulay,
           "dual_generator_bottoms": rec.dual_generator_bottoms,
           "ok": rec.ok}
    payload = dict(row)
    payload["partition"] = to_jsonable(rec.partition) if rec.partition else None
    _emit_rows(args, [row], payload)
    return 0


def _survey_cap(args):
    """The survey's cap on n, once every argument is in range; nothing
    runs before this check."""
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    if args.count is not None and args.count < 0:
        raise UsageError(f"--count must be at least 0, got {args.count}")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise UsageError(f"--jobs must be between 1 and {cpus}, got {args.jobs}")
    if args.cap_n is not None:
        return args.cap_n
    return EXHAUSTIVE_CAP if args.count is None else DEFAULT_CAP_N


def cmd_survey(args):
    cap = _survey_cap(args)
    if args.count is not None and args.n > cap:
        raise CapExceededError(f"random survey at n={args.n}, above the cap {cap}; "
                               "raise --cap-n knowingly")
    start = time.perf_counter()
    if args.count is None:
        records = survey_exhaustive(args.n, char=args.char, cap=cap,
                                    jobs=args.jobs)
        mode = "exhaustive"
    else:
        records = survey_random(args.n, args.count, seed=args.seed,
                                char=args.char, jobs=args.jobs)
        mode = "random"
    args.timer.note(f"survey {mode}", start)
    bad = counterexamples(records)
    rows = [r.row() for r in records]
    payload = {"n": args.n, "mode": mode, "count": len(records),
               "counterexamples": len(bad), "records": rows}
    if mode == "random":
        payload["seed"] = args.seed
    _emit_rows(args, rows, payload)
    if bad:
        print(f"{len(bad)} conjecture counterexample(s) flagged", file=sys.stderr)
    return 0


def _build_parser():
    p = _Parser(prog="sqstanley",
                description="Exact duality computations for squarefree "
                            "monomial quotients.")
    p.add_argument("--char", type=int, default=DEFAULT_CHAR,
                   help="field characteristic for rank computations: 0 for "
                        "the rationals or a prime below 2^64 (default "
                        "%(default)s)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default %(default)s)")
    p.add_argument("--cap-n", type=int, default=None,
                   help=f"refuse instances larger than this (default "
                        f"{DEFAULT_CAP_N}, or {EXHAUSTIVE_CAP} for the "
                        "exhaustive survey)")
    p.add_argument("--timings", action="store_true",
                   help="print phase timings to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def instance_cmd(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("instance", help="instance file, or - for stdin")
        sp.set_defaults(fn=fn)
        return sp

    instance_cmd("dual", cmd_dual,
                 "Alexander dual of an ideal, quotient, or complex")
    instance_cmd("sdepth", cmd_sdepth,
                 "Stanley depth with an optimal decomposition")
    instance_cmd("hreg", cmd_hreg,
                 "minimal decomposition regularity, directly and via the dual")
    instance_cmd("decompose", cmd_decompose,
                 "sdepth-optimal Stanley decomposition")
    sp = sub.add_parser("filtration", help="prime filtrations")
    sp_sub = sp.add_subparsers(dest="action", required=True)
    for action, help_text in (("build", "facet-peel filtration of a module"),
                              ("validate", "check a filtration document"),
                              ("dualize", "dualize a filtration document")):
        ssp = sp_sub.add_parser(action, help=help_text)
        ssp.add_argument("instance", help="instance file, or - for stdin")
    sp.set_defaults(fn=cmd_filtration)
    sp = sub.add_parser("exterior", help="exterior algebra side")
    sp_sub = sp.add_subparsers(dest="action", required=True)
    ssp = sp_sub.add_parser("theta", help="transfer a monomial class")
    ssp.add_argument("instance", help="instance file, or - for stdin")
    ssp.add_argument("--set", required=True,
                     help="comma separated 1-based degree, e.g. 1,3")
    ssp = sp_sub.add_parser("edual", help="dualize an optimal decomposition "
                                          "with signs")
    ssp.add_argument("instance", help="instance file, or - for stdin")
    sp.set_defaults(fn=cmd_exterior)
    instance_cmd("invariants", cmd_invariants,
                 "Betti table and homological invariants")
    instance_cmd("linquot", cmd_linquot,
                 "linear quotients ordering and its decomposition")
    instance_cmd("partition", cmd_partition,
                 "partitionability and its dual characterization")
    sp = sub.add_parser("survey", help="sweep instances, assert theorems, "
                                       "flag conjectures")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, default=None,
                    help="random sample size; omit for the exhaustive sweep")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most the CPU count "
                         "(default sequential)")
    sp.set_defaults(fn=cmd_survey)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            check_char(args.char)
        except ValueError as e:
            raise UsageError(f"--char: {e}") from None
        args.timer = _Timer(args.timings)
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 4
    except (TheoremViolationError, InternalCheckError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    # CapExceededError is a ValueError too, so this stays last
    except (FormatError, NonSquarefreeError, NMismatchError, ZeroModuleError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
