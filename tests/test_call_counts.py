"""Each duality check builds its face ring and computes each dual,
Betti table and cover walk once, and searches each duality pair once:
no caller runs a walk and its mirror on a module and its dual.  The
counts are pinned, so a change that repeats one of them shows here."""

import json
import sys
from collections import Counter

import pytest

from sqstanley import homology, partition, sqmod, survey
from sqstanley.cli import main
from sqstanley.exterior import edual_decomposition, s_to_e_decomposition
from sqstanley.filtration import dualize_filtration, facet_peel_filtration
from sqstanley.instances import all_complexes, all_quotients

COUNTED = {
    "betti": homology.betti,
    "dualize_quotient": sqmod.dualize_quotient,
    "_sdepth_walk": sqmod._sdepth_walk,
    "_hreg_walk": sqmod._hreg_walk,
    "face_ring": sqmod.face_ring,
}


@pytest.fixture
def calls(monkeypatch):
    """Count the COUNTED calls through every module that binds them."""
    counts = dict.fromkeys(COUNTED, 0)
    for name, original in COUNTED.items():
        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("sqstanley")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
    return counts


MODULES = [m for n in (2, 3) for m in list(all_quotients(n))[::7]]
COMPLEXES = [cx for n in (2, 3, 4) for cx in list(all_complexes(n))[::3] if not cx.is_void]


@pytest.mark.parametrize("check, expected", [
    (survey.survey_module,
     {"betti": 2, "dualize_quotient": 1, "_sdepth_walk": 1, "_hreg_walk": 1, "face_ring": 0}),
    (homology.terai_check,
     {"betti": 2, "dualize_quotient": 1, "_sdepth_walk": 0, "_hreg_walk": 0, "face_ring": 0}),
    (homology.depth_duality_check,
     {"betti": 2, "dualize_quotient": 1, "_sdepth_walk": 1, "_hreg_walk": 0, "face_ring": 0}),
], ids=["survey_module", "terai_check", "depth_duality_check"])
def test_each_piece_computed_once(calls, check, expected):
    for module in MODULES:
        calls.update(dict.fromkeys(calls, 0))
        check(module)
        assert calls == expected, module


@pytest.mark.parametrize("check, expected", [
    # the dual ideal is the face ring's Alexander dual module, built and
    # checked by dualize_quotient
    (homology.eagon_reiner_check,
     {"betti": 2, "dualize_quotient": 1, "_sdepth_walk": 0, "_hreg_walk": 0, "face_ring": 1}),
    # one face ring serves the facet-top search, the dual and the CM test
    (partition.partition_duality_check,
     {"betti": 1, "dualize_quotient": 1, "_sdepth_walk": 0, "_hreg_walk": 0, "face_ring": 1}),
], ids=["eagon_reiner_check", "partition_duality_check"])
def test_each_complex_check_builds_one_face_ring(calls, check, expected):
    assert len(COMPLEXES) > 30
    for cx in COMPLEXES:
        calls.update(dict.fromkeys(calls, 0))
        check(cx)
        assert calls == expected, cx


def test_hreg_command_searches_once(calls, tmp_path, capsys):
    # hreg_dual is the one hreg walk read the other way: no dual module,
    # no second search
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"n": 4, "ideal": {"gens": [[1, 2], [2, 3], [3, 4]],
                                                  "encoding": "support"}}))
    assert main(["hreg", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hreg_min"] == doc["hreg_dual"]
    assert calls == {"betti": 0, "dualize_quotient": 0, "_sdepth_walk": 0, "_hreg_walk": 1,
                     "face_ring": 0}


def test_n4_sweep_shares_one_atom_per_value():
    """Every n=4 quotient's peel filtration, its dual, its sdepth witness
    and both exterior decompositions of that witness reference one object
    per value: the 16 peel steps (G, [4] - G) and the 3^4 = 81 intervals
    and exterior pieces.  Each kept pair holds its own two parts, so
    there are at most twice as many index sets as kept pairs."""
    kept = []
    for module in all_quotients(4):
        filt = facet_peel_filtration(module)
        _, witness = sqmod.sdepth(module)
        pieces = s_to_e_decomposition(witness)
        kept += filt.steps + dualize_filtration(filt).steps + witness.intervals
        kept += pieces.pieces + edual_decomposition(pieces)[0].pieces
    assert len(kept) > 150_000
    parts = [part for atom in kept for part in (getattr(atom, f) for f in atom.__match_args__)]
    distinct = {id(obj): type(obj).__name__ for obj in kept + parts}
    counts = Counter(distinct.values())
    index_sets = counts.pop("IndexSet")
    assert counts == {"FiltrationStep": 16, "Interval": 81, "EPiece": 81}
    assert index_sets <= 2 * sum(counts.values())
