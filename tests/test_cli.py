import itertools
import json
import os

import pytest

from sqstanley import cli, sqmod, survey
from sqstanley.cli import main
from sqstanley.formats import parse_instance
from sqstanley.partition import face_ring
from sqstanley.sqmod import dualize_quotient


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def hypersurface(tmp_path):
    # rows of length n parse as exponent vectors, so spell x1x2 as [1, 1]
    return write(tmp_path, "hyp.json",
                 {"version": 1, "n": 2, "ideal": {"gens": [[1, 1]]}})


@pytest.fixture
def path_complex(tmp_path):
    return write(tmp_path, "path.json",
                 {"version": 1, "n": 3, "complex": {"facets": [[1, 2], [2, 3]]}})


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a survey starts: no pool, no sweep."""
    def refuse(*args, **kwargs):
        pytest.fail("the survey started work")
    monkeypatch.setattr(survey, "Pool", refuse)
    monkeypatch.setattr(cli, "survey_exhaustive", refuse)
    monkeypatch.setattr(cli, "survey_random", refuse)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDual:
    def test_ideal(self, capsys, hypersurface):
        code, out, _ = run(capsys, "dual", hypersurface)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["ideal"]["gens"] == [[1], [2]]

    def test_quotient(self, capsys, tmp_path):
        path = write(tmp_path, "q.json", {
            "n": 2,
            "quotient": {"inner": {"gens": [[1, 1]]}, "outer": {"gens": [[]]}}})
        code, out, _ = run(capsys, "dual", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["quotient"]["inner"]["gens"] == []
        assert doc["quotient"]["outer"]["gens"] == [[1], [2]]

    def test_complex(self, capsys, path_complex):
        # nonfaces of the path are {1,3} and {1,2,3}; their complements
        # give the dual complex with single facet {2}
        code, out, _ = run(capsys, "dual", path_complex)
        assert code == 0
        assert json.loads(out)["complex"]["facets"] == [[2]]

    def test_csv_refused(self, capsys, hypersurface):
        code, _, err = run(capsys, "--format", "csv", "dual", hypersurface)
        assert code == 1
        assert "json" in err


class TestModuleCommands:
    def test_sdepth(self, capsys, hypersurface):
        code, out, _ = run(capsys, "sdepth", hypersurface)
        assert code == 0
        doc = json.loads(out)
        assert doc["sdepth"] == 1
        assert doc["decomposition"]["intervals"]

    def test_sdepth_csv(self, capsys, hypersurface):
        code, out, _ = run(capsys, "--format", "csv", "sdepth", hypersurface)
        assert code == 0
        assert out.splitlines()[0] == "n,sdepth,intervals"

    def test_hreg_two_columns(self, capsys, hypersurface):
        code, out, _ = run(capsys, "hreg", hypersurface)
        assert code == 0
        doc = json.loads(out)
        assert doc["hreg_min"] == doc["hreg_dual"] == 1

    def test_decompose(self, capsys, path_complex):
        code, out, _ = run(capsys, "decompose", path_complex)
        assert code == 0
        doc = json.loads(out)
        assert doc["sdepth"] == 2
        assert {"bottom", "top"} == set(doc["decomposition"]["intervals"][0])

    def test_invariants(self, capsys, hypersurface):
        code, out, _ = run(capsys, "invariants", hypersurface)
        assert code == 0
        doc = json.loads(out)
        assert (doc["projdim"], doc["reg"], doc["depth"]) == (1, 1, 1)
        assert doc["cohen_macaulay"] is True
        assert doc["betti"]["entries"] == [[0, [], 1], [1, [1, 2], 1]]

    def test_invariants_char(self, capsys, hypersurface):
        code, out, _ = run(capsys, "--char", "2", "invariants", hypersurface)
        assert code == 0
        assert json.loads(out)["char"] == 2

    @pytest.mark.parametrize("char", ["1", "4", "-3"])
    def test_char_not_zero_or_prime_is_usage_error(self, capsys, monkeypatch,
                                                    no_work, tmp_path, char):
        def refuse(*args, **kwargs):
            pytest.fail("invariants started work")
        monkeypatch.setattr(cli, "invariants", refuse)
        cycle = write(tmp_path, "c4.json", {"n": 4, "ideal": {
            "gens": [[1, 2], [2, 3], [3, 4], [1, 4]], "encoding": "support"}})
        for argv in (("invariants", cycle), ("survey", "--n", "2")):
            code, out, err = run(capsys, f"--char={char}", *argv)
            assert code == 1
            assert out == ""
            assert "usage error" in err and char in err

    @pytest.mark.parametrize("char", ["0", "2", "3", str(2 ** 61 - 1)])
    def test_four_cycle_in_every_field(self, capsys, tmp_path, char):
        cycle = write(tmp_path, "c4.json", {"n": 4, "ideal": {
            "gens": [[1, 2], [2, 3], [3, 4], [1, 4]], "encoding": "support"}})
        code, out, _ = run(capsys, f"--char={char}", "invariants", cycle)
        assert code == 0
        doc = json.loads(out)
        assert (doc["char"], doc["projdim"], doc["depth"]) == (int(char), 3, 1)

    def test_zero_module(self, capsys, tmp_path):
        path = write(tmp_path, "z.json", {
            "n": 2,
            "quotient": {"inner": {"gens": [[1]]}, "outer": {"gens": [[1]]}}})
        code, _, err = run(capsys, "sdepth", path)
        assert code == 2
        assert "zero" in err

    def test_example_support_pair(self, capsys, tmp_path):
        # x1^2, x1x2 inside adds x2x3 only: support is the single set {2,3}
        path = write(tmp_path, "ex.json", {
            "n": 3,
            "quotient": {
                "inner": {"gens": [[2, 0, 0], [1, 1, 0]]},
                "outer": {"gens": [[2, 0, 0], [1, 1, 0], [0, 1, 1]]}}})
        code, out, _ = run(capsys, "sdepth", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["sdepth"] == 2
        assert doc["decomposition"]["intervals"] == [
            {"bottom": [2, 3], "top": [2, 3]}]

    def test_nonsquarefree_witness_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", {
            "n": 3,
            "quotient": {
                "inner": {"gens": [[2, 0, 0], [0, 1, 1]]},
                "outer": {"gens": [[2, 0, 0], [1, 1, 0], [0, 1, 1]]}}})
        code, _, err = run(capsys, "sdepth", path)
        assert code == 2
        assert "squarefree" in err


class TestFiltration:
    def test_build_validate_dualize(self, capsys, hypersurface, tmp_path):
        code, out, _ = run(capsys, "filtration", "build", hypersurface)
        assert code == 0
        doc = json.loads(out)
        assert [s["degree"] for s in doc["filtration"]["steps"]] \
            == [[1], [2], []]
        built = tmp_path / "filt.json"
        built.write_text(out)
        code, out, _ = run(capsys, "filtration", "validate", str(built))
        assert code == 0
        assert json.loads(out)["valid"] is True
        code, out, _ = run(capsys, "filtration", "dualize", str(built))
        assert code == 0
        dual = json.loads(out)
        assert dual["quotient"]["outer"]["gens"] == [[1], [2]]
        assert len(dual["filtration"]["steps"]) == 3

    def test_validate_rejects_wrong_step(self, capsys, hypersurface, tmp_path):
        code, out, _ = run(capsys, "filtration", "build", hypersurface)
        doc = json.loads(out)
        doc["filtration"]["steps"] = doc["filtration"]["steps"][:-1]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "filtration", "validate", str(broken))
        assert code == 0
        assert json.loads(out)["valid"] is False
        code, _, err = run(capsys, "filtration", "dualize", str(broken))
        assert code == 2
        assert "validate" in err

    def test_vanishing_step_rejected_at_parse(self, capsys, hypersurface,
                                              tmp_path):
        # degree meeting the prime support is structurally impossible, so it
        # is an input error rather than a mere failed validation
        code, out, _ = run(capsys, "filtration", "build", hypersurface)
        doc = json.loads(out)
        doc["filtration"]["steps"][0]["prime"] = \
            doc["filtration"]["steps"][0]["degree"]
        broken = tmp_path / "vanish.json"
        broken.write_text(json.dumps(doc))
        code, _, err = run(capsys, "filtration", "validate", str(broken))
        assert code == 2
        assert "vanish" in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"n": 2, "filtration": {}}')
        code, _, _ = run(capsys, "filtration", "validate", str(path))
        assert code == 2


class TestExterior:
    def test_theta(self, capsys, hypersurface):
        code, out, _ = run(capsys, "exterior", "theta", hypersurface,
                           "--set", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta"]["terms"] == [{"set": [1], "coeff": 1}]

    def test_theta_outside_support(self, capsys, hypersurface):
        code, _, err = run(capsys, "exterior", "theta", hypersurface,
                           "--set", "1,2")
        assert code == 2
        assert "support" in err

    def test_theta_bad_set(self, capsys, hypersurface):
        code, _, _ = run(capsys, "exterior", "theta", hypersurface,
                         "--set", "1,x")
        assert code == 2

    def test_edual(self, capsys, path_complex):
        code, out, _ = run(capsys, "exterior", "edual", path_complex)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["pieces"]["pieces"]) == len(doc["dual_pieces"]["pieces"])
        assert all(s in (1, -1) for s in doc["signs"])


class TestLinquot:
    def test_maximal_ideal(self, capsys, tmp_path):
        path = write(tmp_path, "m.json",
                     {"n": 3, "ideal": {"gens": [[1], [2], [3]]}})
        code, out, _ = run(capsys, "linquot", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["linear_quotients"] is True
        assert doc["r"] == 2
        assert doc["sdepth"] == 1
        assert len(doc["decomposition"]["intervals"]) == 3

    def test_no_linear_quotients(self, capsys, tmp_path):
        path = write(tmp_path, "d.json",
                     {"n": 4, "ideal": {"gens": [[1, 2], [3, 4]]}})
        code, out, _ = run(capsys, "linquot", path)
        assert code == 0
        assert json.loads(out) == {"n": 4, "linear_quotients": False}

    def test_non_squarefree_emission_only(self, capsys, tmp_path):
        path = write(tmp_path, "e.json",
                     {"n": 2, "ideal": {"gens": [[2, 0], [1, 1]]}})
        code, out, _ = run(capsys, "linquot", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["linear_quotients"] is True
        assert "decomposition" not in doc

    def test_wrong_kind(self, capsys, path_complex):
        code, _, err = run(capsys, "linquot", path_complex)
        assert code == 2
        assert "ideal" in err


class TestPartition:
    def test_path_complex(self, capsys, path_complex):
        code, out, _ = run(capsys, "partition", path_complex)
        assert code == 0
        doc = json.loads(out)
        assert doc["partitionable"] is True
        assert doc["ok"] is True
        assert doc["partition"]["intervals"]

    def test_disjoint_edges(self, capsys, tmp_path):
        path = write(tmp_path, "d.json",
                     {"n": 4, "complex": {"facets": [[1, 2], [3, 4]]}})
        code, out, _ = run(capsys, "partition", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["partitionable"] is False
        assert doc["partition"] is None
        assert doc["ok"] is True

    def test_wrong_kind(self, capsys, hypersurface):
        code, _, _ = run(capsys, "partition", hypersurface)
        assert code == 2

    def test_one_search_per_side(self, capsys, monkeypatch, path_complex):
        # the printed partition is the one the duality check found
        searched = []
        search = sqmod.first_interval_partition

        def counted(support, tops_for):
            searched.append(support)
            return search(support, tops_for)

        monkeypatch.setattr(sqmod, "first_interval_partition", counted)
        code, out, _ = run(capsys, "partition", path_complex)
        assert code == 0 and json.loads(out)["partition"]["intervals"]
        with open(path_complex) as fh:
            module = face_ring(parse_instance(fh.read()))
        assert searched == [module.support_word, dualize_quotient(module).support_word]


class TestSurvey:
    def test_exhaustive_n2(self, capsys):
        code, out, err = run(capsys, "survey", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["count"] == 14
        assert doc["counterexamples"] == 0
        assert err == ""

    def test_exhaustive_cap(self, capsys):
        code, _, err = run(capsys, "survey", "--n", "5")
        assert code == 4
        assert "cap" in err

    def test_random_seed_byte_identical(self, capsys):
        a = run(capsys, "survey", "--n", "4", "--count", "10", "--seed", "3")
        b = run(capsys, "survey", "--n", "4", "--count", "10", "--seed", "3")
        assert a == b and a[0] == 0

    @pytest.mark.parametrize("argv", [
        ["--n", "-1"],
        ["--n", "2", "--count", "-2"],
        ["--n", "2", "--jobs", "0"],
        ["--n", "2", "--jobs", "-5"],
        ["--n", "2", "--jobs", str((os.cpu_count() or 1) + 1)],
        ["--n", "2", "--count", "3", "--jobs", "1000000000"],
    ])
    def test_out_of_range_is_usage_error(self, capsys, no_work, argv):
        code, out, err = run(capsys, "survey", *argv)
        assert code == 1
        assert out == "" and "usage error" in err

    def test_random_survey_capped(self, capsys, no_work):
        code, out, err = run(capsys, "survey", "--n", "20", "--count", "1")
        assert code == 4
        assert out == "" and "cap" in err
        code, _, _ = run(capsys, "--cap-n", "3", "survey", "--n", "4", "--count", "1")
        assert code == 4

    def test_jobs_up_to_cpu_count(self, capsys, monkeypatch):
        # an in-process stand-in for the pool: no worker is started
        class InlinePool:
            def __init__(self, jobs):
                assert jobs == (os.cpu_count() or 1)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(survey, "Pool", InlinePool)
        jobs = str(os.cpu_count() or 1)
        code, out, _ = run(capsys, "survey", "--n", "2", "--jobs", jobs)
        assert code == 0
        assert out == run(capsys, "survey", "--n", "2")[1]

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "survey", "--n", "2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].startswith("n,inner,outer,sdepth,depth")
        assert len(lines) == 15


class TestPlumbing:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sdepth", "/nonexistent.json")
        assert code == 2
        assert "cannot read" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{")
        code, _, _ = run(capsys, "sdepth", str(path))
        assert code == 2

    def test_cap_on_instance(self, capsys, tmp_path):
        path = write(tmp_path, "big.json",
                     {"n": 13, "ideal": {"gens": [[13]]}})
        code, _, err = run(capsys, "sdepth", path)
        assert code == 4
        code, out, _ = run(capsys, "--cap-n", "13", "sdepth", path)
        assert code == 0

    def test_too_deep_search(self, capsys, tmp_path):
        # the face ring of the 5-skeleton needs one interval per facet,
        # 1716 of them: deeper than the recursion limit
        facets = [list(f) for f in itertools.combinations(range(1, 14), 6)]
        path = write(tmp_path, "deep.json", {"n": 13, "complex": {"facets": facets}})
        code, out, err = run(capsys, "--cap-n", "13", "sdepth", path)
        assert code == 4
        assert out == ""
        assert "intervals" in err and "Traceback" not in err

    def test_timings_to_stderr(self, capsys, hypersurface):
        code, out, err = run(capsys, "--timings", "sdepth", hypersurface)
        assert code == 0
        assert "[time]" in err
        plain = run(capsys, "sdepth", hypersurface)
        assert out == plain[1]

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"n": 2, "ideal": {"gens": [[1, 1]]}}'))
        code, out, _ = run(capsys, "sdepth", "-")
        assert code == 0
        assert json.loads(out)["sdepth"] == 1
