"""Outside-in tracer for the twonorm benchmark.

The program has no instrumentation of its own, so this module wraps it
from the outside while a traced pass runs:

* every function named in a twonorm module's ``__all__`` (plus the method
  ``WeightedSpace.plus_matrix``), in every twonorm namespace that holds a
  reference to it -- ``compat.oblique_projection``,
  ``studies.compat_margin``, ``cli.make_space`` and so on -- so that a call
  is seen whichever import path it takes;
* the ``scipy.linalg`` and ``numpy.linalg`` entry points the package calls,
  grouped into the factorization kinds below.  These wrappers are guarded
  by depth, so the SVD inside ``null_space``, ``orth``, ``cond`` or
  ``norm(., 2)`` counts once, under the outer call.

Spans are kept in memory as ``(parent, name, start, end, raised, extra,
done)`` tuples indexed by span id, where ``done`` is when the wrapper's own
bookkeeping finished; ``write_spans`` dumps them as JSON lines.  Self time
is a span's duration minus the time covered by its children, bookkeeping
included.
"""

import functools
import importlib
import json
import time

import numpy as np
import numpy.linalg
import scipy.linalg

MODULES = ("cli", "matio", "rand", "space", "subspaces", "compat", "spectra",
           "schatten", "studies")
LAPACK_KINDS = ("svd", "eig", "eigh", "inv", "solve", "null", "angles", "qr")


# ---------------------------------------------------------------------------
# flop and byte models, computed from shapes (real flops; complex counts x4)

def _svd_flops(m, n, uv, full):
    m, n = max(m, n), min(m, n)
    if not uv:
        return 4 * m * n * n - 4 * n ** 3 / 3
    if full:
        return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    return 14 * m * n * n + 8 * n ** 3


def _flops(entry, args, kwargs):
    a = np.asarray(args[0])
    m, n = a.shape[-2:] if a.ndim >= 2 else (a.shape[0], 1)
    if entry == "svd":
        return _svd_flops(m, n, kwargs.get("compute_uv", True),
                          kwargs.get("full_matrices", True))
    if entry in ("svdvals", "norm", "cond", "matrix_rank"):
        return _svd_flops(m, n, False, False)
    if entry == "null_space":
        return _svd_flops(m, n, True, True)
    if entry == "orth":
        return _svd_flops(m, n, True, False)
    if entry == "subspace_angles":
        b = np.asarray(args[1])
        p, q = n, b.shape[1]
        return (_svd_flops(m, p, True, False) + _svd_flops(m, q, True, False)
                + 8 * m * p * q + _svd_flops(p, q, False, False))
    if entry == "eigvals":
        return 10 * n ** 3
    if entry == "eig":
        return 25 * n ** 3
    if entry == "eigvalsh":
        return 4 * n ** 3 / 3
    if entry == "eigh":
        return 9 * n ** 3
    if entry == "inv":
        return 2 * n ** 3
    if entry == "solve":
        b = np.asarray(args[1])
        nrhs = b.shape[1] if b.ndim == 2 else 1
        lu = n ** 3 / 3 if kwargs.get("assume_a") == "pos" else 2 * n ** 3 / 3
        return lu + 2 * n * n * nrhs
    if entry == "qr":
        return 2 * m * n * n - 2 * n ** 3 / 3 + 4 * m * m * n \
            - 4 * m * n * n + 4 * n ** 3 / 3
    raise KeyError(entry)


def _nbytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _is_complex(args):
    return any(isinstance(x, np.ndarray) and np.iscomplexobj(x) for x in args)


# entry point -> kind, for each namespace the package calls through
_SCIPY_ENTRIES = {
    "svd": "svd", "svdvals": "svd", "orth": "svd", "null_space": "null",
    "subspace_angles": "angles", "eigvals": "eig", "eig": "eig",
    "eigh": "eigh", "eigvalsh": "eigh", "inv": "inv", "solve": "solve",
    "qr": "qr",
}
_NUMPY_ENTRIES = {
    "norm": "svd", "cond": "svd", "matrix_rank": "svd", "svd": "svd",
    "eigvals": "eig", "eig": "eig", "eigh": "eigh", "eigvalsh": "eigh",
    "inv": "inv", "solve": "solve", "qr": "qr",
}


def _norm_is_svd(args, kwargs):
    """``norm`` factorizes only for the matrix 2-norm."""
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ in (2, -2) and np.ndim(args[0]) == 2


class Tracer:
    """Span recorder plus the patches that feed it.

    ``install()`` swaps the wrappers into place and ``uninstall()`` puts the
    originals back, so untraced passes run the unmodified program.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._lapack_depth = 0
        self._patches = []          # (owner, attribute, original, wrapper)
        self.originals = {}         # span name -> original function
        self._build_patches()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self._stack = []
        self._lapack_depth = 0

    def _call(self, name, fn, args, kwargs, extra_fn=None):
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        raised = False
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException:
            raised = True
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            extra = extra_fn(args, kwargs, out) if extra_fn and not raised \
                else None
            # the span covers the call; its bookkeeping up to ``done`` is
            # charged to no layer, so the parent's self time excludes it
            done = time.perf_counter()
            self.spans[sid] = (parent, name, t0, t1, raised, extra, done)

    def _wrap_public(self, name, fn, extra_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, extra_fn)
        return traced

    def _wrap_lapack(self, entry, kind, fn):
        def extra(args, kwargs, out):
            flops = _flops(entry, args, kwargs)
            if _is_complex(args):
                flops *= 4
            return {"flops": float(flops),
                    "bytes": _nbytes(list(args)) + _nbytes(out)}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._lapack_depth or (entry == "norm"
                                      and not _norm_is_svd(args, kwargs)):
                return fn(*args, **kwargs)
            self._lapack_depth += 1
            try:
                return self._call("lapack." + kind, fn, args, kwargs, extra)
            finally:
                self._lapack_depth -= 1
        return traced

    # -- patching ----------------------------------------------------------

    def _build_patches(self):
        mods = {m: importlib.import_module("twonorm." + m) for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("twonorm")]
        extras = {
            "compat.compat_margin": lambda a, k, out: {
                "formula": out.residual_cross is not None},
            "studies.diverging_vector_study": lambda a, k, out: {
                "rows": len(out)},
            "studies.symmetry_truncation_study": lambda a, k, out: {
                "rows": len(out)},
        }
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap_public(name, fn, extras.get(name))
                self.originals[name] = fn
                for ns in namespaces:
                    for key, val in vars(ns).items():
                        if val is fn:
                            self._patches.append((ns, key, fn, wrapper))
        ws_cls = mods["space"].WeightedSpace
        fn = ws_cls.plus_matrix
        self.originals["space.plus_matrix"] = fn
        self._patches.append(
            (ws_cls, "plus_matrix", fn,
             self._wrap_public("space.plus_matrix", fn)))
        for owner, table in ((scipy.linalg, _SCIPY_ENTRIES),
                             (numpy.linalg, _NUMPY_ENTRIES)):
            for entry, kind in table.items():
                fn = getattr(owner, entry)
                self._patches.append(
                    (owner, entry, fn, self._wrap_lapack(entry, kind, fn)))

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def unpatched_references(self):
        """(namespace, attribute) pairs in twonorm modules that still hold an
        original public function while the tracer is installed."""
        originals = {id(fn) for fn in self.originals.values()}
        namespaces = [importlib.import_module("twonorm." + m)
                      for m in MODULES] + [importlib.import_module("twonorm")]
        return [(ns.__name__, key) for ns in namespaces
                for key, val in vars(ns).items() if id(val) in originals]

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for sid, (parent, name, t0, t1, raised, extra, _) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "raised": raised,
                    "extra": extra}) + "\n")


# ---------------------------------------------------------------------------
# aggregation of one pass's spans into per-layer figures

def layer_of(name):
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name and per-layer totals for a list of spans.

    Returns a dict with ``calls``/``s``/``errors`` per span name, ``self_s``
    and ``incl_s`` per layer (inclusive time counts a span only when no
    ancestor belongs to the same layer), and the extra counters.
    """
    calls, secs, errors = {}, {}, {}
    self_s, incl_s = {}, {}
    child_time = [0.0] * len(spans)
    for parent, _, t0, _, _, _, done in spans:
        if parent >= 0:
            child_time[parent] += done - t0
    flops = nbytes = 0.0
    formula = rows = accepted = attempts = 0
    for sid, (parent, name, t0, t1, raised, extra, _) in enumerate(spans):
        layer = layer_of(name)
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur
        if raised:
            errors[layer] = errors.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[sid]
        anc = parent
        while anc >= 0 and layer_of(spans[anc][1]) != layer:
            anc = spans[anc][0]
        if anc < 0:
            incl_s[layer] = incl_s.get(layer, 0.0) + dur
        if extra:
            flops += extra.get("flops", 0.0)
            nbytes += extra.get("bytes", 0)
            formula += int(extra.get("formula", False))
            rows += extra.get("rows", 0)
        if name == "subspaces.is_proper_companion" and parent >= 0 \
                and spans[parent][1] == "rand.random_companion_pair":
            attempts += 1
        if name == "rand.random_companion_pair" and not raised:
            accepted += 1
    return {
        "calls": calls, "s": secs, "errors": errors, "self_s": self_s,
        "incl_s": incl_s, "flops": flops, "bytes": nbytes,
        "formula": formula, "rows": rows,
        "companion_accepted": accepted, "companion_attempts": attempts,
    }
