"""Package-level guards: the library imports only the standard library,
its modules import in one layered order, and its public names are
pinned."""

import ast
import copy
import dataclasses
import importlib
import pickle
import subprocess
import sys
from pathlib import Path

import sqstanley

PACKAGE = Path(sqstanley.__file__).resolve().parent

PUBLIC = [
    "BettiTable", "CapExceededError", "DepthDualityRecord", "EDecomposition",
    "EPiece", "EagonReinerRecord", "ExtElement", "ExtQuotientModule",
    "FiltrationStep", "FormatError", "IndexSet", "InternalCheckError",
    "Interval", "InvariantReport", "LinearQuotientsOrder", "Monomial",
    "MonomialIdeal", "NMismatchError", "NonSquarefreeError",
    "PartitionabilityRecord", "PrimeFiltration", "SimplicialComplex",
    "SqIdeal", "SqQuotient", "StanleyDecomposition", "SurveyRecord",
    "TeraiRecord", "TheoremViolationError", "ZeroModuleError",
    "alexander_dual", "all_complexes", "all_quotients", "all_sq_ideals",
    "associated_primes", "betti", "build_quotient", "counterexamples",
    "depth_duality_check", "dual_functional_image", "dual_right_mul",
    "dualize_decomposition", "dualize_filtration", "dualize_quotient",
    "dump_json", "e_dual", "e_to_s_decomposition", "eagon_reiner_check",
    "edual_decomposition", "face_ring", "facet_peel_filtration",
    "filtration_to_decomposition", "find_partition",
    "generator_bottom_decomposition", "has_linear_quotients", "hreg_min",
    "instance_document", "interval_members", "invariants", "is_partitionable",
    "linear_quotients_order", "lq_decomposition", "minimalize", "pairing",
    "parse_instance", "partition_duality_check", "proper_nonzero_ideals",
    "random_complex", "random_quotient", "random_sq_ideal",
    "s_to_e_decomposition", "sdepth", "sigma", "squarefree_certificate",
    "sr_complex", "sr_ideal", "survey_exhaustive", "survey_module",
    "survey_random", "terai_check", "theta", "theta_monomial", "tilde",
    "tilde_ext", "to_exterior", "to_jsonable", "validate_decomposition",
    "validate_filtration", "wedge",
]


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.level, node.module or ""


def test_only_standard_library_imports():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 15
    outside = [f"{path.name}:{line} {name}"
               for path in files
               for line, level, name in _imports(path)
               if not level and name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_importing_the_package_and_cli_loads_no_multiprocessing():
    # only a survey with jobs > 1 starts a pool, so only it imports one
    probe = ("import sys, sqstanley, sqstanley.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent, timeout=60).stdout
    assert out == "[]\n"


# each module imports only from modules before it; the package root
# re-exports from all of them and is not a layer
LAYERS = ["errors", "setcalc", "ideals", "cover", "sqmod", "filtration",
          "exterior", "homology", "linquot", "partition", "instances",
          "formats", "survey", "cli"]


def test_modules_import_in_layer_order():
    files = sorted(PACKAGE.rglob("*.py"))
    assert sorted(p.stem for p in files) == sorted(LAYERS + ["__init__"])
    upward = [f"{path.name}:{line} {name}"
              for path in files if path.stem != "__init__"
              for line, level, name in _imports(path)
              if level and LAYERS.index(name) >= LAYERS.index(path.stem)]
    assert upward == []


def test_public_names_are_pinned():
    assert sqstanley.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(sqstanley, name)]
    assert missing == []


def _one_of_each():
    """One instance of every value dataclass, keyed by class name."""
    cx = sqstanley.SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    module = sqstanley.face_ring(cx)
    filt = sqstanley.facet_peel_filtration(module)
    _, dec = sqstanley.sdepth(module)
    edec = sqstanley.s_to_e_decomposition(dec)
    x1, x2 = sqstanley.Monomial.of(1, 0, 0), sqstanley.Monomial.of(0, 1, 0)
    return {
        "IndexSet": sqstanley.IndexSet.of(3, [1, 3]),
        "Interval": dec.intervals[-1],
        "SimplicialComplex": cx,
        "Monomial": sqstanley.Monomial.of(2, 0, 1),
        "MonomialIdeal": sqstanley.MonomialIdeal.of(3, [x1, x2]),
        "SqIdeal": module.inner,
        "SquarefreeCertificate": sqstanley.squarefree_certificate(
            sqstanley.MonomialIdeal.zero(3), sqstanley.MonomialIdeal.of(3, [x1])),
        "StanleyDecomposition": dec,
        "FiltrationStep": filt.steps[0],
        "PrimeFiltration": filt,
        "ExtElement": sqstanley.ExtElement(3, ((1, 2), (5, -1))),
        "ExtQuotientModule": sqstanley.to_exterior(module),
        "EPiece": edec.pieces[-1],
        "EDecomposition": edec,
        "BettiTable": sqstanley.betti(module),
        "InvariantReport": sqstanley.invariants(module),
        "TeraiRecord": sqstanley.terai_check(module),
        "EagonReinerRecord": sqstanley.eagon_reiner_check(cx),
        "DepthDualityRecord": sqstanley.depth_duality_check(module),
        "LinearQuotientsOrder": sqstanley.linear_quotients_order(module.inner),
        "PartitionabilityRecord": sqstanley.partition_duality_check(cx),
        "SurveyRecord": sqstanley.survey_module(module),
    }


def _package_dataclasses():
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"sqstanley.{layer}")
        for obj in vars(mod).values():
            if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__module__ == mod.__name__:
                found[obj.__name__] = obj
    return found


def test_value_objects_are_slotted():
    # SqQuotient caches its support word per instance, so it keeps a __dict__
    classes = _package_dataclasses()
    assert "__slots__" not in vars(classes.pop("SqQuotient"))
    instances = _one_of_each()
    assert sorted(instances) == sorted(classes)
    for name, obj in instances.items():
        assert type(obj) is classes[name]
        assert "__slots__" in vars(classes[name]), name
        assert not hasattr(obj, "__dict__"), name


def test_value_objects_survive_pickle_and_deepcopy():
    # the survey's worker pool pickles its records
    for name, obj in _one_of_each().items():
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(twin) is type(obj), name
            assert twin == obj, name
            assert hash(twin) == hash(obj), name


# the command line's output and timing path: stdout, its two writers,
# the clock and the flags that pick among them
CLI_OUTPUT = {"stdout", "dump_json", "write_csv", "perf_counter", "timings", "format"}


def _cli_output_uses(nodes):
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in CLI_OUTPUT:
            yield node, node.id
        elif isinstance(node, ast.Attribute) and node.attr in CLI_OUTPUT:
            yield node, node.attr


def test_only_cli_main_writes_stdout_and_times():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert {name for _, name in _cli_output_uses(ast.walk(main))} == CLI_OUTPUT
    inside = {id(node) for node in ast.walk(main)}
    outside = [f"cli.py:{node.lineno} {name}"
               for node, name in _cli_output_uses(ast.walk(tree))
               if id(node) not in inside]
    assert outside == []


# the pair-sharing policy, the bound and the per-class tables, as a
# name, an attribute or an imported name
SHARING = {"_kept", "INTERN_MAX_N"}


def test_only_setcalc_knows_the_sharing_policy():
    files = sorted(PACKAGE.rglob("*.py"))
    uses = [(path.stem, node.lineno, name)
            for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None))
            if name in SHARING]
    assert {name for stem, _, name in uses if stem == "setcalc"} == SHARING
    assert [f"{stem}.py:{line} {name}" for stem, line, name in uses if stem != "setcalc"] == []
