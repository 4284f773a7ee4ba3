"""Command line interface.

Instances come in as JSON documents (a file path or ``-`` for stdin)
and results go to stdout as JSON, or as CSV for the tabular commands.
Module commands promote what they are given: a bare ideal I means the
cyclic quotient S/I, a complex means its face ring, and a quotient
block means exactly that pair.  The linquot command is the exception,
operating on the ideal itself.

Exit codes: 0 for any completed computation, including a sweep that
flags conjecture counterexamples; 1 for usage errors, a negative
--cap-n among them; 2 for inputs that cannot be read or fail their
contracts; 3 when a proved statement fails to verify, which means a
defect in this package; 4 when a size cap is exceeded, checked on an
instance's n as soon as its JSON is decoded.

Each command returns its output, a JSON payload and, for the tabular
commands, CSV rows; ``main`` alone writes stdout, which is
byte-identical across runs with the same inputs and seed.  --timings
prints one ``[time] <command>: <s>s`` line per command to stderr,
keeping stdout clean.
"""

import argparse
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
    QuotientSpec,
    _load_json,
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
from .linquot import _order_decomposition, linear_quotients_order
from .partition import face_ring, partition_duality_check
from .setcalc import IndexSet, SimplicialComplex, alexander_dual
from .sqmod import SqQuotient, build_quotient, dualize_quotient, hreg_min, sdepth
from .survey import COLUMNS, EXHAUSTIVE_CAP, counterexamples, survey_exhaustive, survey_random

DEFAULT_CAP_N = 12
# the commands whose output has no table form, refused with --format csv
STRUCTURED = frozenset({"dual", "decompose", "filtration", "exterior"})


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_document(args):
    """The JSON document named by args.instance (``-`` for stdin),
    decoded, and refused before anything is built from it when its n is
    above the cap."""
    path = args.instance
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise FormatError(f"cannot read {path}: {e.strerror}") from None
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise FormatError("instance document must be a JSON object")
    n = obj.get("n")
    cap = args.cap_n if args.cap_n is not None else DEFAULT_CAP_N
    if type(n) is int and n > cap:
        raise CapExceededError(f"instance has n={n}, above the cap {cap}; "
                               "raise --cap-n knowingly")
    return obj


def _load(args):
    return parse_instance(_read_document(args))


def _as_module(parsed) -> SqQuotient:
    if isinstance(parsed, MonomialIdeal):
        return build_quotient(parsed, MonomialIdeal.unit(parsed.n))
    if isinstance(parsed, QuotientSpec):
        return build_quotient(parsed.inner, parsed.outer)
    return face_ring(parsed)


def _nonzero_module(args) -> SqQuotient:
    module = _as_module(_load(args))
    if module.is_zero:
        raise ZeroModuleError("the quotient is zero; nothing to compute")
    return module


def cmd_dual(args):
    parsed = _load(args)
    if isinstance(parsed, MonomialIdeal):
        result = tilde(SqIdeal.from_monomial_ideal(parsed))
    elif isinstance(parsed, QuotientSpec):
        result = dualize_quotient(build_quotient(parsed.inner, parsed.outer))
    else:
        result = alexander_dual(parsed)
    return instance_document(result), None


def cmd_sdepth(args):
    module = _nonzero_module(args)
    value, dec = sdepth(module)
    rows = [{"n": module.n, "sdepth": value, "intervals": len(dec.intervals)}]
    return {"n": module.n, "sdepth": value, "decomposition": dec}, rows


def cmd_hreg(args):
    module = _nonzero_module(args)
    # hreg_dual = n - sdepth(dual) is this search read the other way
    value, dec = hreg_min(module)
    row = {"n": module.n, "hreg_min": value, "hreg_dual": value}
    return {**row, "decomposition": dec}, [row]


def cmd_decompose(args):
    module = _nonzero_module(args)
    value, dec = sdepth(module)
    return {"n": module.n, "sdepth": value, "hreg": dec.hreg,
            "decomposition": dec}, None


def _filtration_document(module, filt):
    return {**instance_document(module), "filtration": filt}


def _parse_filtration_document(obj):
    if "filtration" not in obj or "quotient" not in obj:
        raise FormatError("expected a document with 'quotient' and 'filtration'")
    spec = parse_instance({k: obj[k] for k in ("version", "n", "quotient") if k in obj})
    n = spec.n
    module = build_quotient(spec.inner, spec.outer)
    block = obj["filtration"]
    if not isinstance(block, dict) or "base" not in block or "steps" not in block:
        raise FormatError("'filtration' needs 'base' and 'steps'")
    if "n" in block and (type(block["n"]) is not int or block["n"] != n):
        raise FormatError(f"filtration 'n' must be the document's n={n}, got {block['n']!r}")
    base = SqIdeal.from_monomial_ideal(
        MonomialIdeal.of(n, parse_gens(n, block["base"], "base")))
    if not isinstance(block["steps"], list):
        raise FormatError(f"'steps' must be a list, got {block['steps']!r}")
    steps = []
    for k, s in enumerate(block["steps"]):
        if not isinstance(s, dict) or "degree" not in s or "prime" not in s:
            raise FormatError(f"step {k}: needs 'degree' and 'prime'")
        steps.append(FiltrationStep(
            parse_support(n, s["degree"], f"step {k} degree"),
            parse_support(n, s["prime"], f"step {k} prime")))
    return module, PrimeFiltration(n, base, tuple(steps))


def cmd_filtration(args):
    if args.action == "build":
        module = _as_module(_load(args))
        filt = facet_peel_filtration(module)
        return _filtration_document(module, filt), None
    module, filt = _parse_filtration_document(_read_document(args))
    if args.action == "validate":
        return {"n": module.n, "valid": validate_filtration(module, filt)}, None
    if not validate_filtration(module, filt):
        raise FormatError("the filtration does not validate against its quotient; "
                          "refusing to dualize it")
    dual_filt = dualize_filtration(filt)
    return _filtration_document(dualize_quotient(module), dual_filt), None


def cmd_exterior(args):
    module = _nonzero_module(args)
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
        return {"n": module.n, "set": f, "theta": image}, None
    value, dec = sdepth(module)
    epieces = s_to_e_decomposition(dec)
    dual, signs = edual_decomposition(epieces)
    return {"n": module.n, "sdepth": value, "pieces": epieces,
            "dual_pieces": dual, "signs": signs}, None


def cmd_invariants(args):
    module = _nonzero_module(args)
    inv = invariants(module, args.char)
    row = {k: v for k, v in to_jsonable(inv).items() if k != "betti"}
    return inv, [row]


def cmd_linquot(args):
    parsed = _load(args)
    if not isinstance(parsed, MonomialIdeal):
        raise FormatError("linquot expects an ideal instance")
    order = linear_quotients_order(parsed)
    if order is None:
        row = {"n": parsed.n, "linear_quotients": False}
        return row, [row]
    payload = {"n": parsed.n, "linear_quotients": True,
               "order": order.gens,
               "colon_vars": [IndexSet(parsed.n, v) for v in order.colon_vars],
               "r": order.r}
    if parsed.is_squarefree:
        dec = _order_decomposition(SqIdeal.from_monomial_ideal(parsed), order)
        payload["decomposition"] = dec
        payload["sdepth"] = dec.sdepth if dec.intervals else None
    row = {"n": parsed.n, "linear_quotients": True, "r": order.r,
           "order": " ".join(str(g) for g in order.gens)}
    return payload, [row]


def cmd_partition(args):
    parsed = _load(args)
    if not isinstance(parsed, SimplicialComplex):
        raise FormatError("partition expects a complex instance")
    if parsed.is_void:
        raise FormatError("the void complex has no face ring")
    rec = partition_duality_check(parsed, args.char)
    row = {"n": rec.n, "partitionable": rec.partitionable,
           "cohen_macaulay": rec.cohen_macaulay,
           "dual_generator_bottoms": rec.dual_generator_bottoms,
           "ok": rec.ok}
    return {**row, "partition": rec.partition or None}, [row]


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
    if args.count is None:
        records = survey_exhaustive(args.n, char=args.char, cap=cap,
                                    jobs=args.jobs)
        mode = "exhaustive"
    else:
        records = survey_random(args.n, args.count, seed=args.seed,
                                char=args.char, jobs=args.jobs)
        mode = "random"
    bad = counterexamples(records)
    if bad:
        print(f"{len(bad)} conjecture counterexample(s) flagged", file=sys.stderr)
    rows = [r.row() for r in records]
    payload = {"n": args.n, "mode": mode, "count": len(records),
               "counterexamples": len(bad), "records": rows}
    if mode == "random":
        payload["seed"] = args.seed
    return payload, rows


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
                   help="print the command's run time to stderr")
    p.set_defaults(columns=None)
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
    sp.set_defaults(fn=cmd_survey, columns=COLUMNS)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            check_char(args.char)
        except ValueError as e:
            raise UsageError(f"--char: {e}") from None
        if args.cap_n is not None and args.cap_n < 0:
            raise UsageError(f"--cap-n must be at least 0, got {args.cap_n}")
        if args.format == "csv" and args.command in STRUCTURED:
            raise UsageError("this command emits structured output; use --format json")
        start = time.perf_counter()
        payload, rows = args.fn(args)
        if args.timings:
            print(f"[time] {args.command}: {time.perf_counter() - start:.3f}s",
                  file=sys.stderr)
        if args.format == "csv":
            write_csv(rows, sys.stdout, args.columns)
        else:
            sys.stdout.write(dump_json(payload))
        return 0
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
