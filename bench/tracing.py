"""Spans and counts at sqstanley's layer boundaries, recorded from outside.

Tracer.install() rebinds the public entry points of each layer (and
SqQuotient.support_masks, the cover engine with its tops_for callback,
and the Betti rank kernel) to wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans live in flat
arrays while the run lasts and are written out once at the end.
uninstall() puts the original functions back.

A layer's self time is its spans' durations minus the parts covered by
their child spans; call counts are span counts.  Work counts that are
not calls (search nodes, tops offered, rank matrix cells, exterior
pieces, serialized bytes, enumerated modules) are kept beside the spans.
"""

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

from sqstanley import exterior, filtration, formats, homology, ideals, instances, sqmod, survey

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "instances.enumerate": ("instances.enumerate_s", None),
    "sqmod.support": ("sqmod.support_s", "sqmod.support_calls"),
    "sqmod.dualize": ("sqmod.dualize_s", "sqmod.dualize_calls"),
    "sqmod.sdepth": ("sqmod.sdepth_s", "sqmod.sdepth_calls"),
    "sqmod.hreg": ("sqmod.hreg_s", "sqmod.hreg_calls"),
    "ideals.tilde": ("ideals.tilde_s", "ideals.tilde_calls"),
    "cover": ("cover.s", "cover.probes"),
    "homology.betti": ("homology.betti_s", "homology.betti_calls"),
    "homology.rank": ("homology.rank_s", "homology.rank_calls"),
    "filtration.peel": ("filtration.peel_s", None),
    "filtration.validate": ("filtration.validate_s", "filtration.validate_calls"),
    "filtration.dualize": ("filtration.dualize_s", None),
    "exterior.edual": ("exterior.edual_s", None),
    "survey.module": ("survey.module_s", None),
    "formats.dump": ("formats.dump_s", None),
}
COUNT_METRICS = ("instances.modules", "cover.probes_feasible", "cover.nodes",
                 "cover.tops_offered", "homology.rank_cells", "exterior.pieces",
                 "formats.bytes")
# Instance enumeration happens while inputs are built, so its numbers
# come from the set-up phase; every other metric is per round.
SETUP_METRICS = ("instances.enumerate_s", "instances.modules")
RUN_METRICS = ("trace.overhead_s", "trace.spans")


def metric_names():
    names = []
    for seconds, calls in SPAN_METRICS.values():
        names += [seconds] + ([calls] if calls else [])
    return names + list(COUNT_METRICS) + list(RUN_METRICS)


def unit_of(name):
    if name == "formats.bytes":
        return "bytes"
    return "s" if name.endswith("_s") or name == "cover.s" else "count"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = []
        self.op_id = -1
        self.counts = Counter()
        self._patches = []

    # ------------------------------------------------------------ spans

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.open[-1] if self.open else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i):
        self.end[i] = perf_counter()
        self.open.pop()

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(i)
        return wrapper

    # ------------------------------------------------------------ wrappers

    def _counted_cover(self, fn):
        counts = self.counts

        def probe(support, tops_for):
            def counted_tops(bottom):
                tops = tops_for(bottom)
                counts["cover.nodes"] += 1
                counts["cover.tops_offered"] += len(tops)
                return tops
            found = fn(support, counted_tops)
            if found is not None:
                counts["cover.probes_feasible"] += 1
            return found
        return probe

    def _counted_rank(self, fn):
        def rank(rows, char):
            if rows:
                self.counts["homology.rank_cells"] += len(rows) * len(rows[0])
            return fn(rows, char)
        return rank

    def _counted_edual(self, fn):
        def edual(dec):
            self.counts["exterior.pieces"] += len(dec.pieces)
            return fn(dec)
        return edual

    def _counted_dump(self, fn):
        def dump(x):
            text = fn(x)
            self.counts["formats.bytes"] += len(text)  # json.dumps escapes to ASCII
            return text
        return dump

    def _enumeration(self, fn):
        def enumerate_quotients(*args, **kwargs):
            i = self.begin("instances.enumerate")
            try:
                for module in fn(*args, **kwargs):
                    self.counts["instances.modules"] += 1
                    yield module
            finally:
                self.finish(i)
        return enumerate_quotients

    def _rebind(self, fn, wrapper):
        """Point every sqstanley module's binding of fn at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname == "sqstanley" or modname.startswith("sqstanley."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self._patch(sqmod.SqQuotient, "support_masks",
                    self.spanned("sqmod.support", sqmod.SqQuotient.support_masks))
        # only the binding sqmod's searches use, so that cover.nodes
        # counts the callback sqmod passes in
        self._patch(sqmod, "first_interval_partition",
                    self.spanned("cover", self._counted_cover(sqmod.first_interval_partition)))
        self._rebind(instances.all_quotients, self._enumeration(instances.all_quotients))
        self._rebind(homology._rank,
                     self.spanned("homology.rank", self._counted_rank(homology._rank)))
        self._rebind(exterior.edual_decomposition,
                     self.spanned("exterior.edual", self._counted_edual(exterior.edual_decomposition)))
        self._rebind(formats.dump_json,
                     self.spanned("formats.dump", self._counted_dump(formats.dump_json)))
        for name, fn in (("sqmod.dualize", sqmod.dualize_quotient),
                         ("sqmod.sdepth", sqmod.sdepth),
                         ("sqmod.hreg", sqmod.hreg_min),
                         ("ideals.tilde", ideals.tilde),
                         ("homology.betti", homology.betti),
                         ("filtration.peel", filtration.facet_peel_filtration),
                         ("filtration.validate", filtration.validate_filtration),
                         ("filtration.dualize", filtration.dualize_filtration),
                         ("survey.module", survey.survey_module)):
            self._rebind(fn, self.spanned(name, fn))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ results

    def mark(self):
        """A point to cut the record at: span count and counts so far."""
        return len(self.start), Counter(self.counts)

    def totals(self, lo, hi):
        """Per-layer metrics of the spans and counts between two marks."""
        (first, before), (last, after) = lo, hi
        child = [0.0] * (last - first)
        for j in range(first, last):
            p = self.parent[j]
            if p >= first:
                child[p - first] += self.end[j] - self.start[j]
        out = Counter()
        for j in range(first, last):
            name = self.names[self.name[j]]
            if name in SPAN_METRICS:
                seconds, calls = SPAN_METRICS[name]
                out[seconds] += self.end[j] - self.start[j] - child[j - first]
                if calls:
                    out[calls] += 1
        for name in COUNT_METRICS:
            out[name] = after[name] - before[name]
        out["trace.spans"] = last - first
        return out

    def write(self, path):
        """Every span as a tab-separated line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\top\n")
            for j in range(len(self.start)):
                f.write(f"{self.names[self.name[j]]}\t{self.start[j]!r}\t{self.end[j]!r}"
                        f"\t{self.parent[j]}\t{self.op[j]}\n")
