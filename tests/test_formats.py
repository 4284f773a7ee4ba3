import dataclasses
import json
from functools import singledispatch

import pytest

from sqstanley.errors import FormatError
from sqstanley.exterior import (
    ExtElement,
    edual_decomposition,
    s_to_e_decomposition,
    theta_monomial,
    to_exterior,
)
from sqstanley.filtration import dualize_filtration, facet_peel_filtration
from sqstanley.formats import (
    QuotientSpec,
    _document,
    dump_json,
    instance_document,
    parse_gens,
    parse_instance,
    to_jsonable,
    write_csv,
)
from sqstanley.homology import BettiTable, betti, invariants
from sqstanley.ideals import Monomial, MonomialIdeal, SqIdeal
from sqstanley.linquot import linear_quotients_order
from sqstanley.setcalc import IndexSet, SimplicialComplex
from sqstanley.sqmod import SqQuotient, dualize_decomposition, sdepth
from sqstanley.survey import survey_module


class TestParsing:
    def test_support_ideal(self):
        ideal = parse_instance(
            '{"version": 1, "n": 3, "ideal": {"gens": [[1, 2], [3]]}}')
        assert isinstance(ideal, MonomialIdeal)
        assert [str(g) for g in ideal.gens] == ["x1*x2", "x3"]

    def test_exponent_rows_by_length(self):
        ideal = parse_instance('{"n": 2, "ideal": {"gens": [[2, 0], [1, 1]]}}')
        assert [str(g) for g in ideal.gens] == ["x1^2", "x1*x2"]

    def test_encoding_override(self):
        ideal = parse_instance(
            '{"n": 2, "ideal": {"gens": [[1, 2]], "encoding": "support"}}')
        assert [str(g) for g in ideal.gens] == ["x1*x2"]

    def test_quotient(self):
        spec = parse_instance(json.dumps({
            "n": 3,
            "quotient": {"inner": {"gens": [[1, 2]]},
                         "outer": {"gens": [[1], [2]]}},
        }))
        assert isinstance(spec, QuotientSpec)
        assert [str(g) for g in spec.inner.gens] == ["x1*x2"]
        assert [str(g) for g in spec.outer.gens] == ["x1", "x2"]

    def test_complex(self):
        cx = parse_instance('{"n": 4, "complex": {"facets": [[1, 2], [2, 3, 4]]}}')
        assert isinstance(cx, SimplicialComplex)
        assert [f.mask for f in cx.facets] == [0b0011, 0b1110]

    def test_version_default_and_mismatch(self):
        assert parse_instance('{"n": 1, "ideal": {"gens": []}}').is_zero
        with pytest.raises(FormatError, match="version"):
            parse_instance('{"version": 2, "n": 1, "ideal": {"gens": []}}')

    def test_bad_json(self):
        with pytest.raises(FormatError, match="JSON"):
            parse_instance("{nope")

    def test_missing_n(self):
        with pytest.raises(FormatError, match="'n'"):
            parse_instance('{"ideal": {"gens": []}}')

    def test_exactly_one_kind(self):
        with pytest.raises(FormatError, match="exactly one"):
            parse_instance('{"n": 2}')
        with pytest.raises(FormatError, match="exactly one"):
            parse_instance(
                '{"n": 2, "ideal": {"gens": []}, "complex": {"facets": []}}')

    def test_support_row_validation(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            parse_gens(3, {"gens": [[2, 1]]})
        with pytest.raises(FormatError, match="outside"):
            parse_gens(3, {"gens": [[1, 4]]})

    def test_exponent_row_validation(self):
        with pytest.raises(FormatError, match="length"):
            parse_gens(3, {"gens": [[1, 0]], "encoding": "exponents"})
        with pytest.raises(FormatError, match="nonnegative"):
            parse_gens(2, {"gens": [[1, -1]], "encoding": "exponents"})

    @pytest.mark.parametrize("doc, field", [
        ('{"n": true, "ideal": {"gens": [[1]], "encoding": "support"}}', "'n'"),
        ('{"n": 1, "ideal": {"gens": [[true]], "encoding": "support"}}', "support entry True"),
        ('{"n": 2, "ideal": {"gens": [[1, false]]}}', "exponent False"),
        ('{"n": 2, "quotient": {"inner": {"gens": []}, "outer": {"gens": [[true]]}}}',
         "outer: support entry True"),
        ('{"n": 2, "complex": {"facets": [[1, true]]}}', "complex: support entry True"),
        ('{"version": true, "n": 1, "ideal": {"gens": []}}', "version"),
        ('{"version": 1.0, "n": 1, "ideal": {"gens": []}}', "version 1.0"),
        ('{"version": "1", "n": 1, "ideal": {"gens": []}}', "version '1'"),
    ])
    def test_bools_are_not_integers(self, doc, field):
        with pytest.raises(FormatError, match=field):
            parse_instance(doc)

    def test_unknown_encoding(self):
        with pytest.raises(FormatError, match="encoding"):
            parse_gens(2, {"gens": [[1]], "encoding": "binary"})


class TestRoundTrip:
    def test_sq_ideal(self):
        ideal = SqIdeal.of(3, [0b011, 0b100])
        doc = instance_document(ideal)
        back = parse_instance(json.dumps(doc))
        assert SqIdeal.from_monomial_ideal(back).gen_masks == ideal.gen_masks

    def test_full_support_generator_survives(self):
        # x1x2x3 emits as [1, 2, 3]; the pinned encoding stops the
        # length-n row from re-reading as exponents
        ideal = SqIdeal.of(3, [0b111])
        back = parse_instance(json.dumps(instance_document(ideal)))
        assert SqIdeal.from_monomial_ideal(back).gen_masks == (0b111,)

    def test_quotient(self):
        mod = SqQuotient(3, SqIdeal.of(3, [0b011]), SqIdeal.of(3, [0b001]))
        spec = parse_instance(json.dumps(instance_document(mod)))
        assert SqIdeal.from_monomial_ideal(spec.inner).gen_masks == (0b011,)
        assert SqIdeal.from_monomial_ideal(spec.outer).gen_masks == (0b001,)

    def test_complex(self):
        cx = SimplicialComplex.from_facets(
            4, [IndexSet(4, 0b0111), IndexSet(4, 0b1001)])
        back = parse_instance(json.dumps(instance_document(cx)))
        assert back == cx

    def test_monomial_ideal_exponents(self):
        ideal = MonomialIdeal.of(2, [Monomial.of(2, 0), Monomial.of(1, 1)])
        back = parse_instance(json.dumps(instance_document(ideal)))
        assert back.gens == ideal.gens


class TestSerialization:
    def test_index_set(self):
        assert to_jsonable(IndexSet(4, 0b1010)) == [2, 4]

    def test_decomposition(self):
        mod = SqQuotient(2, SqIdeal.of(2, [0b11]), SqIdeal.of(2, [0]))
        _, dec = sdepth(mod)
        out = to_jsonable(dec)
        assert set(out) == {"n", "intervals"}
        assert all(set(iv) == {"bottom", "top"} for iv in out["intervals"])

    def test_filtration(self):
        mod = SqQuotient(2, SqIdeal.of(2, [0b11]), SqIdeal.of(2, [0]))
        out = to_jsonable(facet_peel_filtration(mod))
        assert [s["degree"] for s in out["steps"]] == [[1], [2], []]

    def test_betti_table(self):
        table = betti(SqQuotient(2, SqIdeal.of(2, [0b11]), SqIdeal.of(2, [0])))
        assert to_jsonable(table)["entries"] == [[0, [], 1], [1, [1, 2], 1]]

    def test_dump_json_deterministic(self):
        doc = instance_document(SqIdeal.of(3, [0b011, 0b100]))
        assert dump_json(doc) == dump_json(doc)
        assert dump_json(doc).endswith("\n")

    def test_write_csv(self, tmp_path):
        rows = [{"n": 2, "ok": True}, {"n": 3, "ok": False}]
        path = tmp_path / "out.csv"
        with open(path, "w", newline="") as fh:
            write_csv(rows, fh)
        assert path.read_text().splitlines() == ["n,ok", "2,True", "3,False"]


class TestDataclassDocuments:
    """The six documents that come from dataclass fields alone, written
    out by hand for S/(x1x2) at n = 3, whose support is the empty set,
    1, 2, 3, 13 and 23."""

    module = SqQuotient(3, SqIdeal.of(3, [0b011]), SqIdeal.of(3, [0]))

    def decomposition(self):
        value, dec = sdepth(self.module)
        assert value == 2
        return dec

    def test_decomposition(self):
        assert to_jsonable(self.decomposition()) == {
            "n": 3,
            "intervals": [{"bottom": [], "top": [1, 3]},
                          {"bottom": [2], "top": [2, 3]}]}

    def test_dual_decomposition(self):
        # [B, T] becomes [complement of T, complement of B]
        assert to_jsonable(dualize_decomposition(self.decomposition())) == {
            "n": 3,
            "intervals": [{"bottom": [1], "top": [1, 3]},
                          {"bottom": [2], "top": [1, 2, 3]}]}

    def test_filtration(self):
        # peel the smallest maximal member first: 13, 1, 23, 2, 3, then
        # the empty set, each with the complement as its prime
        assert to_jsonable(facet_peel_filtration(self.module)) == {
            "n": 3,
            "base": {"gens": [[1, 2]], "encoding": "support"},
            "steps": [{"degree": [1, 3], "prime": [2]},
                      {"degree": [1], "prime": [2, 3]},
                      {"degree": [2, 3], "prime": [1]},
                      {"degree": [2], "prime": [1, 3]},
                      {"degree": [3], "prime": [1, 2]},
                      {"degree": [], "prime": [1, 2, 3]}]}

    def test_dual_filtration(self):
        # steps reversed with degree and prime exchanged; the final ideal
        # is the unit ideal, whose dual is the zero ideal
        dual = dualize_filtration(facet_peel_filtration(self.module))
        assert to_jsonable(dual) == {
            "n": 3,
            "base": {"gens": [], "encoding": "support"},
            "steps": [{"degree": [1, 2, 3], "prime": []},
                      {"degree": [1, 2], "prime": [3]},
                      {"degree": [1, 3], "prime": [2]},
                      {"degree": [1], "prime": [2, 3]},
                      {"degree": [2, 3], "prime": [1]},
                      {"degree": [2], "prime": [1, 3]}]}

    def test_exterior_pieces(self):
        # [B, T] becomes the piece starting at B, free on T - B
        pieces = s_to_e_decomposition(self.decomposition())
        assert to_jsonable(pieces) == {
            "n": 3,
            "pieces": [{"start": [], "free": [1, 3]},
                       {"start": [2], "free": [3]}]}

    def test_dual_pieces(self):
        dual, signs = edual_decomposition(
            s_to_e_decomposition(self.decomposition()))
        assert signs == (1, 1)
        assert to_jsonable(dual) == {
            "n": 3,
            "pieces": [{"start": [1], "free": [3]},
                       {"start": [2], "free": [1, 3]}]}


# The recursive walk that to_jsonable was before json's own walk took
# over, kept as the reference: each registered type spells out its
# document in plain lists, and containers are rebuilt by hand.
@singledispatch
def ref(x):
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: ref(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [ref(v) for v in x]
    if isinstance(x, dict):
        return {k: ref(v) for k, v in x.items()}
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


@ref.register
def _(x: IndexSet):
    return sorted(x.members)


@ref.register
def _(x: Monomial):
    return list(x.exponents)


@ref.register
def _(x: SqIdeal):
    return {"gens": [sorted(IndexSet(x.n, m).members) for m in x.gen_masks],
            "encoding": "support"}


@ref.register
def _(x: MonomialIdeal):
    return {"gens": [list(g.exponents) for g in x.gens], "encoding": "exponents"}


@ref.register
def _(x: SimplicialComplex):
    return {"facets": [sorted(f.members) for f in x.facets]}


@ref.register
def _(x: SqQuotient):
    return {"inner": ref(x.inner), "outer": ref(x.outer)}


@ref.register
def _(x: ExtElement):
    return {"terms": [{"set": sorted(IndexSet(x.n, m).members), "coeff": c}
                      for m, c in x.items]}


@ref.register
def _(x: BettiTable):
    return {"char": x.char,
            "entries": [[i, sorted(IndexSet(x.n, m).members), v]
                        for i, m, v in x.entries]}


def _one_walk_cases():
    module = SqQuotient(3, SqIdeal.of(3, [0b011]), SqIdeal.of(3, [0]))
    _, dec = sdepth(module)
    filt = facet_peel_filtration(module)
    pieces = s_to_e_decomposition(dec)
    dual_pieces, signs = edual_decomposition(pieces)
    ideal = MonomialIdeal.of(3, [Monomial.of(2, 0, 0), Monomial.of(1, 1, 0),
                                 Monomial.of(0, 1, 1)])
    order = linear_quotients_order(ideal)
    assert order is not None
    cases = {
        "index set": IndexSet(4, 0b1010),
        "monomial": Monomial.of(2, 0, 1),
        "squarefree ideal": SqIdeal.of(3, [0b011, 0b100]),
        "monomial ideal": ideal,
        "complex": SimplicialComplex.from_facets(
            4, [IndexSet(4, 0b0111), IndexSet(4, 0b1001)]),
        "quotient": module,
        "exterior element": theta_monomial(to_exterior(module), IndexSet(3, 0b100)),
        "betti table": betti(module),
        "decomposition": dec,
        "filtration": filt,
        "dual filtration": dualize_filtration(filt),
        "exterior pieces": pieces,
        "invariants": invariants(module),
        "linear quotients order": order,
        "survey row": survey_module(module).row(),
    }
    cases["command payload"] = {
        "n": 3, "sdepth": dec.sdepth, "decomposition": dec, "signs": signs,
        "pieces": [pieces, dual_pieces], "order": order.gens,
        "colon_vars": [IndexSet(3, v) for v in order.colon_vars],
        "module": (module, {"betti": cases["betti table"], "partition": None})}
    return cases


class TestOneWalk:
    cases = _one_walk_cases()

    def test_every_registered_type_is_covered(self):
        covered = {type(x) for x in self.cases.values()}
        assert set(_document.registry) - {object} <= covered

    @pytest.mark.parametrize("name", sorted(cases))
    def test_matches_the_recursive_walk(self, name):
        x = self.cases[name]
        assert dump_json(x) == json.dumps(ref(x), sort_keys=True, indent=2) + "\n"
        assert to_jsonable(x) == ref(x)

    @pytest.mark.parametrize("x", [object(), {1, 2}, [IndexSet(2, 1), {3}]],
                             ids=["object", "set", "nested-set"])
    def test_unknown_values_are_refused(self, x):
        with pytest.raises(TypeError):
            dump_json(x)
        with pytest.raises(TypeError):
            to_jsonable(x)
