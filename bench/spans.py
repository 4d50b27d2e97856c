"""Spans around calls into the library's public functions, from outside it.

The tracer replaces a function at the name its caller looks it up under
(``multdisc.discriminant.subresultant_chain``, not only
``multdisc.subresultants.subresultant_chain``) with a wrapper that records
one span per call: name, start, end and the enclosing span.  Spans live
in flat arrays while the run lasts and are written out at the end; self
time is a span's duration minus the durations of its direct children.
A few counters (stacks, bit sizes, result terms) are taken from the
wrapped calls' arguments and results at the same boundaries.

The two hottest boundaries, SymPoly multiplication (about a million calls
per symbolic pass) and scalar parsing, call nothing that is traced.  They
are kept as leaves: each call adds its count and duration to a per-name
total and its duration to the enclosing span's covered time, instead of
recording a span of its own, so the span file stays small and self times
stay exact.

Calls made inside the library's worker processes are not traced; the
children's CPU time around each D_mu call is recorded instead.
"""

import functools
import json
import resource
import time
from array import array
from collections import defaultdict

DMU_DEGREES = range(4, 11)


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _bits(value):
    if isinstance(value, int):
        return abs(value).bit_length()
    terms = getattr(value, "terms", None)  # SymPoly
    if terms:
        return max(abs(c).bit_length() for c in terms.values())
    return 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.leaf_calls = defaultdict(int)
        self.leaf_time = defaultdict(float)
        self.leaf_cover = defaultdict(float)  # span id -> time spent in leaves under it
        self.dmu_degree = {}  # span id -> degree of the D_mu input
        self.counters = defaultdict(int)
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        """fn wrapped so that every call records one span named name."""
        nid = self._name_id(name)
        clock = time.perf_counter
        open_spans = self._open

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(open_spans[-1] if open_spans else -1)
            self.start.append(clock())
            self.end.append(0.0)
            open_spans.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                open_spans.pop()

        return functools.wraps(fn)(traced)

    def leaf(self, name, fn):
        """fn wrapped so that every call adds to name's count and time, without a span."""
        clock = time.perf_counter
        open_spans = self._open
        calls, spent, cover = self.leaf_calls, self.leaf_time, self.leaf_cover

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                calls[name] += 1
                spent[name] += elapsed
                if open_spans:
                    cover[open_spans[-1]] += elapsed

        return functools.wraps(fn)(counted)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, mods):
        """Wrap the traced functions in the modules of a fresh import.

        mods maps short module names ("cli", "discriminant", ...) to the
        imported module objects.
        """
        cli, disc = mods["cli"], mods["discriminant"]
        counters = self.counters

        original_dmu = disc.dmu

        def observed_dmu(F, mu, **kwargs):
            sid = self._open[-1]  # the discriminant.dmu span around this call
            before = children_cpu()
            result = original_dmu(F, mu, **kwargs)
            self.dmu_degree[sid] = F.degree
            counters["dmu.child_cpu_us"] += round((children_cpu() - before) * 1e6)
            counters["dmu.stacks"] += result.term_count
            counters["dmu.nonzero"] += bool(result.value)
            counters["dmu.value_bits_max"] = max(counters["dmu.value_bits_max"], _bits(result.value))
            return result

        dmu = self.span("discriminant.dmu", observed_dmu)
        self._patch(disc, "dmu", dmu)
        self._patch(cli, "dmu", dmu)

        original_psd = disc.psd_sequence

        def observed_psd(F):
            report = original_psd(F)
            bits = max((abs(v).bit_length() for v in report.psd), default=0)
            counters["psd_bits_max"] = max(counters["psd_bits_max"], bits)
            return report

        self._patch(disc, "psd_sequence", self.span("discriminant.psd_sequence", observed_psd))

        sympoly = mods["sympoly"].SymPoly
        original_mul = sympoly.__mul__

        def observed_mul(a, b):
            result = original_mul(a, b)
            if result is not NotImplemented:
                counters["sympoly.result_terms"] += len(result.terms)
            return result

        mul = self.leaf("sympoly.mul", observed_mul)
        self._patch(sympoly, "__mul__", mul)
        self._patch(sympoly, "__rmul__", mul)

        self._patch(cli, "parse_scalar", self.leaf("scalars.parse_scalar", cli.parse_scalar))

        plain = (
            (cli, "classify_report", "discriminant.classify_report"),
            (cli, "yhz_condition", "yhz.yhz_condition"),
            (disc, "subresultant_chain", "subresultants.subresultant_chain"),
            (disc, "clear_denominators", "scalars.clear_denominators"),
            (mods["unipoly"].Poly, "taylor_derivative", "unipoly.taylor_derivative"),
            (mods["linalg"], "det", "linalg.det"),
            (mods["subresultants"], "det", "linalg.det"),
            (mods["yhz"], "subresultant_det", "subresultants.subresultant_det"),
        )
        for owner, attr, name in plain:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time: duration minus direct children's and leaves' durations."""
        covered = array("d", bytes(8 * len(self.start)))
        for sid, spent in self.leaf_cover.items():
            covered[sid] = spent
        start, end, parent = self.start, self.end, self.parent
        for sid in range(len(start)):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        return [end[s] - start[s] - covered[s] for s in range(len(start))]

    def metrics(self, overhead_s):
        """The per-layer metrics, by name, from the recorded spans and counters."""
        calls = defaultdict(int, self.leaf_calls)
        self_s = defaultdict(float, self.leaf_time)
        dmu_by_degree = defaultdict(float)
        selfs = self.self_times()
        for sid, own in enumerate(selfs):
            name = self.names[self.name[sid]]
            calls[name] += 1
            self_s[name] += own
            if sid in self.dmu_degree:
                dmu_by_degree[self.dmu_degree[sid]] += own
        c = self.counters
        dmu_calls = calls["discriminant.dmu"]
        out = {
            "discriminant.dmu.calls": (dmu_calls, "count"),
            "discriminant.dmu.self_s": (self_s["discriminant.dmu"], "s"),
            "discriminant.dmu.stacks": (c["dmu.stacks"], "count"),
            "discriminant.dmu.value_bits_max": (c["dmu.value_bits_max"], "bits"),
            "discriminant.dmu.nonzero_ratio": (c["dmu.nonzero"] / dmu_calls if dmu_calls else 0.0, "ratio"),
            "discriminant.dmu.child_cpu_s": (c["dmu.child_cpu_us"] / 1e6, "s"),
        }
        for n in DMU_DEGREES:
            out[f"discriminant.dmu.self_s.n{n}"] = (dmu_by_degree[n], "s")
        out.update(
            {
                "discriminant.psd_sequence.self_s": (self_s["discriminant.psd_sequence"], "s"),
                "subresultants.subresultant_chain.calls": (calls["subresultants.subresultant_chain"], "count"),
                "subresultants.subresultant_chain.self_s": (self_s["subresultants.subresultant_chain"], "s"),
                "subresultants.psd_bits_max": (c["psd_bits_max"], "bits"),
                "scalars.parse_scalar.calls": (calls["scalars.parse_scalar"], "count"),
                "scalars.parse_scalar.self_s": (self_s["scalars.parse_scalar"], "s"),
                "scalars.clear_denominators.self_s": (self_s["scalars.clear_denominators"], "s"),
                "cli.self_s": (self_s["cli"], "s"),
                "unipoly.taylor_derivative.calls": (calls["unipoly.taylor_derivative"], "count"),
                "unipoly.taylor_derivative.self_s": (self_s["unipoly.taylor_derivative"], "s"),
                "linalg.det.calls": (calls["linalg.det"], "count"),
                "linalg.det.self_s": (self_s["linalg.det"], "s"),
                "sympoly.mul.calls": (calls["sympoly.mul"], "count"),
                "sympoly.mul.self_s": (self_s["sympoly.mul"], "s"),
                "sympoly.result_terms": (c["sympoly.result_terms"], "count"),
                "yhz.yhz_condition.calls": (calls["yhz.yhz_condition"], "count"),
                "yhz.yhz_condition.self_s": (self_s["yhz.yhz_condition"], "s"),
                "subresultants.subresultant_det.calls": (calls["subresultants.subresultant_det"], "count"),
                "subresultants.subresultant_det.self_s": (self_s["subresultants.subresultant_det"], "s"),
                "discriminant.classify_report.self_s": (self_s["discriminant.classify_report"], "s"),
                "trace.overhead_s": (overhead_s, "s"),
            }
        )
        return out

    def dump(self, path):
        """Write every span as columns (name index, parent, start, end) and the leaf totals."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "leaves": {n: [self.leaf_calls[n], self.leaf_time[n]] for n in self.leaf_calls},
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                handle,
            )
