"""Per-layer tracing of momentforge from outside the package.

``Tracer.install`` wraps the layer functions listed in ``LAYER_FUNCS`` and
rebinds each wrapper in every ``momentforge.*`` module namespace that holds
the original object, because several modules import layer functions by
name (``verify`` and ``catalog`` import ``moment``, ``bernstein`` imports
``integrate``, ``cli`` imports ``resolve``).  Every wrapped call records a
span ``[name, start, end, parent, op]``; some wrappers also read counts off
their arguments or results.  Self time is a span's duration minus the
durations of its direct children.
"""

import sys
import time

import numpy as np

#: (module, attribute) of each traced layer function; the span name is
#: ``<module>.<attribute>``
LAYER_FUNCS = (
    ("hermite", "generating_G"),
    ("hermite", "_sum_float"),
    ("hermite", "_sum_mp"),
    ("measures", "product_convolve"),
    ("measures", "additive_convolve"),
    ("measures", "pushforward"),
    ("measures", "moment"),
    ("measures", "mellin"),
    ("qseries", "tau_c"),
    ("qseries", "mu_c"),
    ("qseries", "hp_coefficients"),
    ("qseries", "sigma_abgamma"),
    ("quadrature", "integrate"),
    ("bernstein", "log_moment_via_rep"),
    ("bernstein", "psi"),
    ("bernstein", "sigma_of"),
    ("hankel", "stieltjes_check"),
    ("hankel", "carleman_diagnostic"),
    ("semigroups", "gamma_mellin"),
    ("semigroups", "beta_mellin"),
    ("semigroups", "vc_mellin"),
    ("catalog", "resolve"),
)

#: private helpers that a later version may delete; their metrics are
#: reported as absent rather than as 0 when the helper is gone
OPTIONAL_FUNCS = {("hermite", "_sum_float"), ("hermite", "_sum_mp")}

#: atoms of mu_c lighter than this carry no information at binary64
TINY_ATOM = 1e-30


class Tracer:
    """Span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = {}
        self.missing = []

    # ------------------------------------------------------------ recording

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, args, kwargs, on_result=None):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    # ------------------------------------------------------------- install

    def install(self):
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "momentforge"
                                           or name.startswith("momentforge."))]
        package = sys.modules["momentforge"]
        for mod_name, attr in LAYER_FUNCS:
            original = getattr(getattr(package, mod_name), attr, None)
            if original is None:
                if (mod_name, attr) not in OPTIONAL_FUNCS:
                    raise RuntimeError("momentforge.%s.%s is missing"
                                       % (mod_name, attr))
                self.missing.append("%s.%s" % (mod_name, attr))
                continue
            _rebind(modules, original,
                    self._wrapper("%s.%s" % (mod_name, attr), original))

        run_suite = package.verify.run_suite

        def traced_run_suite(name, *args, **kwargs):
            return self.call("verify." + name, run_suite,
                             (name,) + args, kwargs)

        _rebind(modules, run_suite, traced_run_suite)

        measures = package.measures
        from_pairs = measures.AtomicMeasure.from_pairs

        def traced_from_pairs(pairs, *args, **kwargs):
            if not hasattr(pairs, "__len__"):
                pairs = list(pairs)
            self.add("measures.atoms_in", len(pairs))
            return self.call(
                "measures.from_pairs", from_pairs, (pairs,) + args, kwargs,
                lambda m: self.add("measures.atoms_out", len(m.atoms)))

        measures.AtomicMeasure.from_pairs = staticmethod(traced_from_pairs)

        catalog_object = package.catalog.CatalogObject
        moments = catalog_object.moments

        def traced_moments(obj, n_max):
            return self.call("catalog.moments", moments, (obj, n_max), {})

        catalog_object.moments = traced_moments

    def _wrapper(self, name, original):
        on_result = None
        if name == "hermite.generating_G":
            def on_result(g):
                self.add("hermite.terms_summed", g.terms_used)
        elif name == "qseries.tau_c":
            def on_result(m):
                self.add("qseries.tau_c.atoms_kept", len(m.atoms))
        elif name == "qseries.mu_c":
            def on_result(m):
                self.add("qseries.mu_c.atoms", len(m.atoms))
                self.add("qseries.mu_c.tiny_atoms",
                         sum(1 for _, w in m.atoms if w < TINY_ATOM))
        elif name == "qseries.hp_coefficients":
            def on_result(series):
                self.add("qseries.hp_coefficients.terms",
                         len(series.coefficients))
        elif name == "quadrature.integrate":
            # count integrand evaluations by wrapping the integrand itself
            def traced_integrate(f, *args, **kwargs):
                def counted(x):
                    self.add("quadrature.integrand_batches", 1)
                    self.add("quadrature.integrand_points", int(np.size(x)))
                    return f(x)
                return self.call(name, original, (counted,) + args, kwargs)
            return traced_integrate

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, on_result)
        return traced

    # ------------------------------------------------------------- summary

    def layer_totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        totals = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return totals


def _rebind(modules, original, wrapper):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
