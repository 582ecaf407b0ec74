"""Outside-in tracing of rmedge: wrap public functions where they are bound.

The benchmark never edits the program.  For a traced set of ops it replaces
each traced function by a wrapper in every ``rmedge`` module that holds a
reference to it, so the ``from .specfun import airy`` copy in ``kernels`` is
traced as well as ``specfun.airy`` itself.  ``solve_ivp`` is wrapped per
binding module (``hill.solve_ivp`` and ``painleve.solve_ivp`` are different
layers), and the ``scipy.special`` module bound as ``_sp`` in ``specfun`` and
``hardedge`` is replaced by a proxy that counts calls by function name.

Spans are kept in memory as ``[name, start, end, parent, op, work]`` lists;
``work`` is the call's size (special-function points, matrix entries, Σ n³,
right-hand-side evaluations, normals drawn or eigenvalues returned).
"""

import sys
import time
from collections import Counter

import numpy as np

# scipy's ``solve_ivp`` is traced per binding module: ``hill.solve_ivp`` and
# ``painleve.solve_ivp`` are different layers.
SOLVE_IVP = ("nfev", lambda r: r.nfev)
# Traced functions by defining module.  Each maps to None, or to the name and
# the size of one call's work, read from the call's result.
TARGETS = {
    "specfun": {
        "gauss_legendre": None,
        "airy": ("points", lambda r: np.size(r[0])),
        "bessel_j": ("points", lambda r: np.size(r[0])),
    },
    "kernels": {
        "kernel_matrix": ("entries", np.size),
        "hankel_square_grid": None,
    },
    "linop": {
        "discretize": None,
        "sym_eigen": ("n3_sum", lambda r: r.rule_size ** 3),
        "gap_probs": None,
    },
    "painleve": {"tw_cdf": None, "tw_cdf_det": None, "solve_ivp": SOLVE_IVP},
    "hill": {
        "discriminant": None,
        "periodic_spectrum": ("eigenvalues", lambda r: r.lambdas.size),
        "mathieu_eigencheck": None,
        "solve_ivp": SOLVE_IVP,
    },
    "twfactor": {"verify_factorization": None, "solve_ivp": SOLVE_IVP},
    "marchenko": {"verify_logdet_slope": None, "marchenko_diag": None},
    "hardedge": {"bessel_det_identity": None, "hankel_transform": None},
    "ensembles": {
        "gaussian_stream": ("normals", np.size),
        "gue_matrix": None,
        "sample_gue_eigs": None,
        "sample_wishart_eigs": None,
    },
    "cli": {"main": None},
}
# Modules whose ``_sp`` (scipy.special) binding is counted by function, with
# the functions each calls today, reported even when a set does not reach them.
SPECIAL_FUNCTIONS = {"specfun": ("airy", "jv", "jvp", "loggamma"), "hardedge": ("jv",)}
OP_PREFIX = "op:"


class _CountingModule:
    """Stands in for a module binding and counts calls of its functions."""

    def __init__(self, module, prefix, counts):
        self._module = module
        self._prefix = prefix
        self._counts = counts
        self._wrapped = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not callable(value):
            return value
        if name not in self._wrapped:
            key = f"{self._prefix}.sp.{name}.calls"
            counts = self._counts

            def counted(*args, **kwargs):
                counts[key] += 1
                return value(*args, **kwargs)

            self._wrapped[name] = counted
        return self._wrapped[name]


class Tracer:
    """Spans and counters of one traced set of ops."""

    def __init__(self):
        self.spans = []
        self.counts = Counter({f"{m}.sp.{f}.calls": 0
                               for m, funcs in SPECIAL_FUNCTIONS.items() for f in funcs})
        self._stack = []
        self._op = -1
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if (name == "rmedge" or name.startswith("rmedge.")) and m is not None]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"rmedge.{mod_name}"]
            for fname, work in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{mod_name}.{fname}", original, work and work[1])
                if work is SOLVE_IVP:  # scipy's function: this binding only
                    self._patch(home, fname, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for mod_name in SPECIAL_FUNCTIONS:
            mod = sys.modules[f"rmedge.{mod_name}"]
            self._patch(mod, "_sp", _CountingModule(mod._sp, mod_name, self.counts))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[5] = int(work(result))
            return result

        return traced

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id, kind):
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_PREFIX + kind, time.perf_counter(), 0.0, -1, op_id, 0])

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = -1

    # -- summary ------------------------------------------------------------

    def summary(self, criteria):
        """Per-layer metrics of this set: calls, self time, work and ratios.

        ``criteria`` are the acceptance criteria whose time is reported, as
        zero where this set did not run them.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_matrix = [False] * len(spans)
        in_spectrum = [False] * len(spans)
        for i, (name, t0, t1, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                pname = spans[parent][0]
                in_matrix[i] = in_matrix[parent] or pname == "kernels.kernel_matrix"
                in_spectrum[i] = in_spectrum[parent] or pname == "hill.periodic_spectrum"
        agg = {}
        sf_points_in_matrix = 0
        hill_ivp_in_spectrum = 0
        unattributed = 0.0
        for i, (name, t0, t1, _, _, work) in enumerate(spans):
            a = agg.setdefault(name, [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += t1 - t0
            a[2] += t1 - t0 - child[i]
            a[3] += work
            if name.startswith(OP_PREFIX):
                unattributed += t1 - t0 - child[i]
            elif in_matrix[i] and name in ("specfun.airy", "specfun.bessel_j"):
                sf_points_in_matrix += work
            elif in_spectrum[i] and name == "hill.solve_ivp":
                hill_ivp_in_spectrum += 1

        out = {}
        for mod_name, funcs in TARGETS.items():
            for fname, work in funcs.items():
                name = f"{mod_name}.{fname}"
                calls, _, self_s, size = agg.get(name, (0, 0.0, 0.0, 0))
                out[f"{name}.calls"] = calls
                out[f"{name}.self_s"] = self_s
                if work is not None:
                    out[f"{name}.{work[0]}"] = size
        for num in criteria:
            name = f"acceptance.criterion_{num}"
            out[name + ".s"] = agg.get(OP_PREFIX + name, (0, 0.0))[1]
        out.update(self.counts)
        entries = out["kernels.kernel_matrix.entries"]
        out["kernels.sf_points_per_entry"] = sf_points_in_matrix / entries if entries else 0.0
        eigenvalues = out["hill.periodic_spectrum.eigenvalues"]
        out["hill.solve_ivp.calls_per_eigenvalue"] = (
            hill_ivp_in_spectrum / eigenvalues if eigenvalues else 0.0)
        out["trace.unattributed_s"] = unattributed
        out["trace.spans"] = len(spans)
        return out
