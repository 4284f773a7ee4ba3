"""Fast tests of the benchmark's oracle checks and tracer.

    python3 bench/selftest.py

Each check must accept the program's answer on a small instance and
reject that answer once corrupted.  The file is not named test_*.py, so
the repository's pytest run does not collect it.
"""

import json
import unittest

import run

run.load_program()

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sqstanley import exterior, filtration, homology, instances, sqmod, survey  # noqa: E402


def band_module(n, d, e):
    return sqmod.SqQuotient.from_support(n, oracles.band(n, d, e))


class Rejects(unittest.TestCase):
    def assertRejects(self, check, *args):
        with self.assertRaises(oracles.OracleError):
            check(*args)


class CoverChecks(Rejects):
    def test_search_witness_and_formula(self):
        value, dec = sqmod.sdepth(band_module(5, 1, 5))
        pairs = workloads._pairs(dec)
        oracles.check_search("sdepth", 5, 1, 5, value, pairs)
        self.assertRejects(oracles.check_search, "sdepth", 5, 1, 5, value + 1, pairs)
        self.assertRejects(oracles.check_search, "sdepth", 5, 1, 5, value, pairs[1:])
        self.assertRejects(oracles.check_search, "sdepth", 5, 1, 5, value, pairs + pairs[:1])
        # a witness whose tops attain a wrong value must fail the formula
        singletons = [(m, m) for m in oracles.band(5, 1, 5)]
        self.assertRejects(oracles.check_search, "sdepth", 5, 1, 5, 1, singletons)

    def test_hreg_witness_and_duality(self):
        h, dec = sqmod.hreg_min(band_module(4, 0, 2))
        s, _ = sqmod.sdepth(band_module(4, 2, 4))
        oracles.check_search("hreg", 4, 0, 2, h, workloads._pairs(dec))
        self.assertRejects(oracles.check_search, "hreg", 4, 0, 2, h - 1, workloads._pairs(dec))
        values = {("hreg", 4, 0, 2): h, ("sdepth", 4, 2, 4): s}
        oracles.check_hreg_duality(values)
        values[("hreg", 4, 0, 2)] = h + 1
        self.assertRejects(oracles.check_hreg_duality, values)


class BettiChecks(Rejects):
    def setUp(self):
        n, d = 5, 2
        level = [m for m in range(1 << n) if m.bit_count() == d]
        module = sqmod.SqQuotient(n, sqmod.SqIdeal.of(n, []), sqmod.SqIdeal.of(n, level))
        self.n, self.d = n, d
        self.family = oracles.band(n, d, n)
        self.entries = list(homology.betti(module).entries)
        self.dual = list(homology.betti(sqmod.dualize_quotient(module)).entries)

    def test_accepts(self):
        oracles.check_betti(self.n, self.family, self.entries, "I", self.d)
        oracles.check_betti(self.n, oracles.complement(self.n, self.family), self.dual, "dual")
        oracles.check_terai(self.entries, self.dual, "I")

    def test_rejects_changed_value(self):
        i, sigma, b = self.entries[-1]
        bad = self.entries[:-1] + [(i, sigma, b + 1)]
        self.assertRejects(oracles.check_betti, self.n, self.family, bad, "I")

    def test_rejects_cancelling_pair(self):
        # adding b to two adjacent levels keeps every Euler sum; the
        # Veronese totals still see it
        i, sigma, b = next(e for e in self.entries if e[0] == 1)
        bad = self.entries + [(i + 1, sigma, 1), (i + 2, sigma, 1)]
        self.assertRejects(oracles.check_betti, self.n, self.family, bad, "I", self.d)

    def test_rejects_wrong_generators(self):
        bad = [(i, s, 2 if i == 0 and k == 0 else b) for k, (i, s, b) in enumerate(self.entries)]
        self.assertRejects(oracles.check_betti, self.n, self.family, bad, "I")

    def test_rejects_terai(self):
        top = max(i for i, _, _ in self.entries)
        full = (1 << self.n) - 1
        self.assertRejects(oracles.check_terai, self.entries + [(top + 1, full, 1)],
                           self.dual, "I")


class SweepChecks(Rejects):
    def test_module_set(self):
        enumerated = [(m.inner.gen_masks, m.outer.gen_masks) for m in instances.all_quotients(3)]
        oracles.check_module_set(3, enumerated, 148)
        self.assertRejects(oracles.check_module_set, 3, enumerated[1:], 148)
        self.assertRejects(oracles.check_module_set, 3, enumerated[1:] + enumerated[:1] * 2, 148)
        self.assertRejects(oracles.check_module_set, 3, enumerated, 149)

    def test_survey_row(self):
        module = list(instances.all_quotients(3))[40]
        gens = workloads._gens(module)
        row = survey.survey_module(module).row()
        text = json.dumps(row)
        oracles.check_survey_row(3, *gens, row, text)
        for key, value in (("dim", row["dim"] + 1), ("depth", row["depth"] + 1),
                           ("hreg_dual", row["hreg_dual"] + 1),
                           ("cohen_macaulay", not row["cohen_macaulay"]),
                           ("sdepth", row["dim"] + 1)):
            self.assertRejects(oracles.check_survey_row, 3, *gens, {**row, key: value}, text)
        self.assertRejects(oracles.check_survey_row, 3, *gens, row,
                           json.dumps({**row, "reg": row["reg"] + 1}))

    def test_duality(self):
        module = band_module(4, 1, 3)
        filt = filtration.facet_peel_filtration(module)
        dual_filt = filtration.dualize_filtration(filt)
        s, witness = sqmod.sdepth(module)
        pieces = exterior.s_to_e_decomposition(witness)
        dual_pieces, signs = exterior.edual_decomposition(pieces)
        steps = [(st.degree.mask, st.prime.mask) for st in filt.steps]
        dual_steps = [(st.degree.mask, st.prime.mask) for st in dual_filt.steps]
        plain = [(p.start.mask, p.free.mask) for p in pieces.pieces]
        dual_plain = [(p.start.mask, p.free.mask) for p in dual_pieces.pieces]
        args = [4, *workloads._gens(module), steps, True, dual_steps, s,
                workloads._pairs(witness), plain, dual_plain, list(signs)]
        oracles.check_duality(*args)
        self.assertTrue(-1 in signs, "the instance should exercise a negative sign")
        corruptions = {3: steps[1:], 4: False, 5: dual_steps[:-1], 6: s + 1,
                       7: workloads._pairs(witness)[1:], 8: plain[1:], 9: dual_plain[1:],
                       10: [-x for x in signs]}
        for index, bad in corruptions.items():
            self.assertRejects(oracles.check_duality, *args[:index], bad, *args[index + 1:])

    def test_inversions(self):
        self.assertEqual(oracles.inversions(0b100, 0b011), 2)
        self.assertEqual(oracles.inversions(0b001, 0b110), 0)
        self.assertEqual(oracles.inversions(0b1010, 0b0101), 3)


class TracerTests(unittest.TestCase):
    def test_counts_and_restores(self):
        original = sqmod.sdepth, sqmod.SqQuotient.support_masks, homology._rank
        tracer = tracing.Tracer()
        tracer.install()
        start = tracer.mark()
        sqmod.sdepth(band_module(4, 1, 4))
        totals = tracer.totals(start, tracer.mark())
        tracer.uninstall()
        self.assertEqual((sqmod.sdepth, sqmod.SqQuotient.support_masks, homology._rank),
                         original)
        self.assertEqual(totals["sqmod.sdepth_calls"], 1)
        self.assertGreater(totals["cover.nodes"], 0)
        self.assertGreaterEqual(totals["cover.probes"], totals["cover.probes_feasible"])
        self.assertGreater(totals["sqmod.support_calls"], 0)

    def test_benchmark_json_names(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracing.metric_names())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in workloads.WORKLOADS if w not in workloads.BY_HAND])


if __name__ == "__main__":
    unittest.main()
