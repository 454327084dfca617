"""Out-of-process instrumentation: evaluation counter and span recorder.

Both work by replacing public names in the module that calls them, so the
library itself is unchanged.  ``count_evals`` is always on: it wraps
``supergradient_ascent`` where ``slemma`` and ``linalg`` bind it and adds
up the evaluation counts the ascent returns, which costs one extra Python
call per ascent, not per step.  ``Tracer`` is the traced pass: it records a
span (name, start, end, parent, decision id) around each wrapped call, keeps
the spans in flat arrays in memory, and writes them out at the end.
"""

from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A function bound in several modules is
# wrapped at each binding, because each module looks up its own global.
SPANS = [
    ("linalg", "symmetrize", "linalg.symmetrize"),
    ("slemma", "symmetrize", "linalg.symmetrize"),
    ("positivity", "symmetrize", "linalg.symmetrize"),
    ("slemma", "min_eigpair", "linalg.min_eigpair"),
    ("linalg", "spectraplex_project", "linalg.spectraplex_project"),
    ("slemma", "spectraplex_project", "linalg.spectraplex_project"),
    ("slemma", "psd_factor", "linalg.psd_factor"),
    ("positivity", "psd_factor", "linalg.psd_factor"),
    ("positivity", "maximize_spectral", "linalg.maximize_spectral"),
    ("slemma", "evaluate", "poly.evaluate"),
    ("positivity", "evaluate", "poly.evaluate"),
    ("poly", "evaluate", "poly.evaluate"),
    ("slemma", "evaluate_compressed", "poly.evaluate_compressed"),
    ("slemma", "evaluate_hereditary", "poly.evaluate_hereditary"),
    ("poly", "evaluate_hereditary", "poly.evaluate_hereditary"),
    ("cpmaps", "apply_map_blockwise", "cpmaps.apply_map_blockwise"),
    ("slemma", "certify", "slemma.certify"),
    ("slemma", "find_separator", "slemma.find_separator"),
    ("slemma", "build_counterexample", "slemma.build_counterexample"),
    ("slemma", "build_counterexample_hereditary", "slemma.build_counterexample_hereditary"),
    ("slemma", "verify_certificate", "slemma.verify_certificate"),
    ("cli", "verify_certificate", "slemma.verify_certificate"),
    ("slemma", "verify_counterexample", "slemma.verify_counterexample"),
    ("cli", "verify_counterexample", "slemma.verify_counterexample"),
    ("slemma", "decide", "slemma.decide"),
    ("cli", "decide", "slemma.decide"),
    ("slemma", "decide_hereditary", "slemma.decide_hereditary"),
    ("cli", "decide_hereditary", "slemma.decide_hereditary"),
    ("slemma", "homogenize", "slemma.homogenize"),
    ("cli", "homogenize", "slemma.homogenize"),
    ("positivity", "scalar_slemma", "positivity.scalar_slemma"),
    ("cli", "scalar_slemma", "positivity.scalar_slemma"),
    ("positivity", "rank_one_split", "positivity.rank_one_split"),
    ("positivity", "is_globally_psd", "positivity.is_globally_psd"),
    ("cli", "is_globally_psd", "positivity.is_globally_psd"),
    ("positivity", "sos_factor", "positivity.sos_factor"),
    ("cli", "sos_factor", "positivity.sos_factor"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "loads", "serialize.loads"),
    ("serialize", "instance_from_json", "serialize.instance_from_json"),
    ("cli", "main", "cli.main"),
]

# Spans of the search itself, opened by the ascent wrapper.
ASCENT_SPANS = ["linalg.supergradient_ascent", "slemma.oracle",
                "slemma.homogenize.oracle", "positivity.oracle"]

# Exceptions counted as failures of a span, by span name.
FAILURES = {
    "slemma.build_counterexample": "VerificationFailed",
    "slemma.build_counterexample_hereditary": "VerificationFailed",
    "positivity.rank_one_split": "SplitFailed",
}


def count_evals(lib, counter):
    """Add every ascent's evaluation count to ``counter[0]``."""
    for mod in (lib.slemma, lib.linalg):
        ascent = mod.supergradient_ascent

        def counted(*args, _ascent=ascent, **kwargs):
            out = _ascent(*args, **kwargs)
            counter[0] += out[2]
            return out

        mod.supergradient_ascent = counted


def _oracle_span(oracle):
    where = oracle.__module__.rsplit(".", 1)[-1]
    if "homogenize" in oracle.__qualname__:
        return "slemma.homogenize.oracle"
    return f"{where}.oracle"


class Tracer:
    """Span recorder.  Call ``install(lib)`` once; set ``decision`` per decision."""

    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.decision_of = array("i")
        self.failed = array("b")
        self.stack = []
        self.decision = -1
        self.counting = False  # eigensolves are counted only while a decision solves
        self.eig = {}  # decision id -> [calls, computed flops]
        self.dumped = {}  # decision id -> bytes written by serialize.dumps
        self.missing = []

    def _id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def span(self, name, fn, failure=None):
        k_name = self._id(name)

        def wrapper(*args, **kwargs):
            k = len(self.start)
            self.name.append(k_name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.decision_of.append(self.decision)
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(k)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and type(exc).__name__ == failure:
                    self.failed[k] = 1
                raise
            finally:
                self.end[k] = perf_counter()
                self.stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, lib):
        for mod_name, attr, name in SPANS:
            mod = getattr(lib, mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.span(name, fn, FAILURES.get(name)))
        for name in ASCENT_SPANS:
            self._id(name)
        for mod in (lib.slemma, lib.linalg):
            mod.supergradient_ascent = self._ascent(mod.supergradient_ascent)
        dumps = lib.serialize.dumps

        def sized_dumps(obj):
            text = dumps(obj)
            self.dumped[self.decision] = self.dumped.get(self.decision, 0) + len(text)
            return text

        lib.serialize.dumps = sized_dumps
        self._count_eig(np.linalg)

    def _ascent(self, ascent):
        spanned = self.span("linalg.supergradient_ascent", ascent)

        def traced(oracle, *args, **kwargs):
            return spanned(self.span(_oracle_span(oracle), oracle), *args, **kwargs)

        return traced

    def _count_eig(self, linalg):
        # Golub & Van Loan symmetric QR: ~4n^3/3 for values only, ~9n^3 with vectors.
        for attr, per_n3 in (("eigh", 9.0), ("eigvalsh", 4.0 / 3.0)):
            fn = getattr(linalg, attr)

            def counted(a, *args, _fn=fn, _c=per_n3, **kwargs):
                if self.counting:
                    n = np.shape(a)[-1]
                    rec = self.eig.setdefault(self.decision, [0, 0.0])
                    rec[0] += 1
                    rec[1] += _c * n ** 3
                return _fn(a, *args, **kwargs)

            setattr(linalg, attr, counted)

    def arrays(self):
        """Spans as numpy arrays, with each span's self time (span minus child spans)."""
        name = np.asarray(self.name, dtype=np.intc)
        parent = np.asarray(self.parent, dtype=np.intc)
        start = np.asarray(self.start, dtype=float)
        end = np.asarray(self.end, dtype=float)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {
            "name": name, "parent": parent, "start": start, "end": end,
            "decision": np.asarray(self.decision_of, dtype=np.intc),
            "failed": np.asarray(self.failed, dtype=np.int8),
            "self": dur - child,
        }

    def save(self, path, arrays):
        np.savez_compressed(path, names=np.array(self.names), **arrays)
