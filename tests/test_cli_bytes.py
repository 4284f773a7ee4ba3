"""Byte stability of the whole command line.

A fixed battery of runs through ``cli.main``, each pinned by its exit
code and the first 16 hex digits of the sha256 of its stdout.  The pins
were recorded at commit 019c295, when each command still wrote its own
output, so they hold the output path in ``main`` to the bytes the
commands wrote before it.
"""

import contextlib
import hashlib
import io
import json

import pytest

from sqstanley.cli import main

INSTANCES = {
    "ideal": {"n": 4, "ideal": {"gens": [[1, 2], [2, 3], [3, 4]],
                                "encoding": "support"}},
    "nonsquarefree": {"n": 3, "ideal": {"gens": [[2, 0, 0], [1, 1, 0], [0, 1, 1]],
                                        "encoding": "exponents"}},
    "quotient": {"n": 4, "quotient": {
        "inner": {"gens": [[1, 2], [3, 4]], "encoding": "support"},
        "outer": {"gens": [[1], [3]], "encoding": "support"}}},
    "complex": {"n": 4, "complex": {"facets": [[1, 2, 3], [2, 4], [3, 4]]}},
}

INSTANCE_COMMANDS = ("dual", "sdepth", "hreg", "decompose", "invariants",
                     "linquot", "partition")


def battery():
    """Label -> argv; an instance kind stands for its file, and
    ``<kind>.filt`` for the filtration document built from it."""
    runs = {}
    for kind in INSTANCES:
        for cmd in INSTANCE_COMMANDS:
            for fmt in ("json", "csv"):
                runs[f"{cmd} {fmt} {kind}"] = ["--format", fmt, cmd, kind]
        runs[f"filtration build {kind}"] = ["filtration", "build", kind]
        if kind != "nonsquarefree":
            for action in ("validate", "dualize"):
                runs[f"filtration {action} {kind}"] = \
                    ["filtration", action, f"{kind}.filt"]
        runs[f"exterior theta {kind}"] = ["exterior", "theta", kind, "--set", "1"]
        runs[f"exterior edual {kind}"] = ["exterior", "edual", kind]
        for char in ("0", "2"):
            runs[f"invariants char {char} {kind}"] = ["--char", char, "invariants", kind]
    runs["survey json n3"] = ["survey", "--n", "3"]
    runs["survey csv n3"] = ["--format", "csv", "survey", "--n", "3"]
    runs["survey json n4"] = ["survey", "--n", "4"]
    runs["survey random"] = ["survey", "--n", "4", "--count", "5", "--seed", "7"]
    return runs


BATTERY = battery()


def run(argv):
    """Exit code and stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def pin(argv):
    code, out = run(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("battery")
    paths = {}
    for kind, doc in INSTANCES.items():
        paths[kind] = str(root / f"{kind}.json")
        (root / f"{kind}.json").write_text(json.dumps(doc))
        code, out = run(["filtration", "build", paths[kind]])
        if code == 0:
            paths[f"{kind}.filt"] = str(root / f"{kind}.filt.json")
            (root / f"{kind}.filt.json").write_text(out)
    return paths


# the sha256 of no output at all
EMPTY = "e3b0c44298fc1c14"

PINS = {
    "decompose csv complex": (1, EMPTY),
    "decompose csv ideal": (1, EMPTY),
    "decompose csv nonsquarefree": (1, EMPTY),
    "decompose csv quotient": (1, EMPTY),
    "decompose json complex": (0, "76e7b79421110f2f"),
    "decompose json ideal": (0, "1b6ce9b5c4d4a16d"),
    "decompose json nonsquarefree": (2, EMPTY),
    "decompose json quotient": (0, "8d59aa2014ff3c3f"),
    "dual csv complex": (1, EMPTY),
    "dual csv ideal": (1, EMPTY),
    "dual csv nonsquarefree": (1, EMPTY),
    "dual csv quotient": (1, EMPTY),
    "dual json complex": (0, "cc63b6cf7e60f800"),
    "dual json ideal": (0, "fff276958aad4164"),
    "dual json nonsquarefree": (2, EMPTY),
    "dual json quotient": (0, "349efb0c51b2d65d"),
    "exterior edual complex": (0, "af022e46189dba6d"),
    "exterior edual ideal": (0, "b278b5f35b934e09"),
    "exterior edual nonsquarefree": (2, EMPTY),
    "exterior edual quotient": (0, "a19b2b92a2163515"),
    "exterior theta complex": (0, "f3d88991104f2dee"),
    "exterior theta ideal": (0, "f3d88991104f2dee"),
    "exterior theta nonsquarefree": (2, EMPTY),
    "exterior theta quotient": (0, "f3d88991104f2dee"),
    "filtration build complex": (0, "c753b153934a6fba"),
    "filtration build ideal": (0, "53b27859c18efa8e"),
    "filtration build nonsquarefree": (2, EMPTY),
    "filtration build quotient": (0, "4e7758354f206dea"),
    "filtration dualize complex": (0, "88686ceca8f2687f"),
    "filtration dualize ideal": (0, "62e6e2e1649b43a4"),
    "filtration dualize quotient": (0, "f0589fc78f8149db"),
    "filtration validate complex": (0, "32373d924198b481"),
    "filtration validate ideal": (0, "32373d924198b481"),
    "filtration validate quotient": (0, "32373d924198b481"),
    "hreg csv complex": (0, "448ea470373f778c"),
    "hreg csv ideal": (0, "448ea470373f778c"),
    "hreg csv nonsquarefree": (2, EMPTY),
    "hreg csv quotient": (0, "26988abd958cfe62"),
    "hreg json complex": (0, "71c0876125379ee4"),
    "hreg json ideal": (0, "78ca885860593cf6"),
    "hreg json nonsquarefree": (2, EMPTY),
    "hreg json quotient": (0, "8a1bfe8437d9f463"),
    "invariants char 0 complex": (0, "addf9925954236d0"),
    "invariants char 0 ideal": (0, "bdc791afa90ea585"),
    "invariants char 0 nonsquarefree": (2, EMPTY),
    "invariants char 0 quotient": (0, "df44fc0e3b88a13d"),
    "invariants char 2 complex": (0, "34e1f7dd845f514f"),
    "invariants char 2 ideal": (0, "5836b984f30beb5f"),
    "invariants char 2 nonsquarefree": (2, EMPTY),
    "invariants char 2 quotient": (0, "4c316e21511f425b"),
    "invariants csv complex": (0, "669040b69a1eef40"),
    "invariants csv ideal": (0, "5d4822ba5f4b11d9"),
    "invariants csv nonsquarefree": (2, EMPTY),
    "invariants csv quotient": (0, "bdae41a16764767c"),
    "invariants json complex": (0, "35d46f8fcfa49d0f"),
    "invariants json ideal": (0, "a306c522fa1a9832"),
    "invariants json nonsquarefree": (2, EMPTY),
    "invariants json quotient": (0, "f6ab02d6d688409e"),
    "linquot csv complex": (2, EMPTY),
    "linquot csv ideal": (0, "c64ee36d2810b66e"),
    "linquot csv nonsquarefree": (0, "24de44e99f007ecb"),
    "linquot csv quotient": (2, EMPTY),
    "linquot json complex": (2, EMPTY),
    "linquot json ideal": (0, "3685316130776673"),
    "linquot json nonsquarefree": (0, "9c281c8348bbcc7a"),
    "linquot json quotient": (2, EMPTY),
    "partition csv complex": (0, "ee2a0419320e9e6f"),
    "partition csv ideal": (2, EMPTY),
    "partition csv nonsquarefree": (2, EMPTY),
    "partition csv quotient": (2, EMPTY),
    "partition json complex": (0, "fc747e07bf246d3c"),
    "partition json ideal": (2, EMPTY),
    "partition json nonsquarefree": (2, EMPTY),
    "partition json quotient": (2, EMPTY),
    "sdepth csv complex": (0, "879a1cd7013cb29e"),
    "sdepth csv ideal": (0, "15068cba9bb633ca"),
    "sdepth csv nonsquarefree": (2, EMPTY),
    "sdepth csv quotient": (0, "15068cba9bb633ca"),
    "sdepth json complex": (0, "0ad361e2f929f09f"),
    "sdepth json ideal": (0, "afee4dba74bbb1ff"),
    "sdepth json nonsquarefree": (2, EMPTY),
    "sdepth json quotient": (0, "ace913d38350539e"),
    "survey csv n3": (0, "8d3ccde97ca5130c"),
    "survey json n3": (0, "331e38f18ed040d0"),
    "survey json n4": (0, "5477eb491ebbc0cb"),
    "survey random": (0, "3d66545722e205cc"),
}


def test_battery_is_pinned():
    assert sorted(PINS) == sorted(BATTERY)


@pytest.mark.parametrize("label", sorted(BATTERY))
def test_stdout_and_exit_code(files, label):
    argv = [files.get(a, a) for a in BATTERY[label]]
    assert pin(argv) == PINS[label]
