"""In-memory span tracing of taumres' public functions, installed from outside.

The library is not edited.  ``Tracer.install`` replaces each traced
function by a timing shim with ``setattr`` at every binding a caller
actually looks up: ``pde`` calls its own ``pminres``/``assemble_operator``/
``build_preconditioner``/``sample_grid`` names and ``tau`` its own
``dst1_multi``, so those module globals are patched as well as the
defining module's.  Methods are patched on their class.

A span is ``(name, start, end, parent, root)``; indexes refer to
``Tracer.spans``.  The harness installs the shims only around the root
spans it opens (``Tracer.traced``), so untraced runs and the calls the
harness makes to check results pay nothing and are never counted.
"""

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, class or None, attribute, span name).  The span name's first
# component is the layer the time is charged to.
BINDINGS = (
    ("taumres.transforms", None, "dst1_multi", "transforms.dst1_multi"),
    ("taumres.tau", None, "dst1_multi", "transforms.dst1_multi"),
    ("taumres.toeplitz", "MultilevelOperator", "apply_symmetrized", "toeplitz.apply_symmetrized"),
    ("taumres.toeplitz", "MultilevelOperator", "apply", "toeplitz.apply"),
    ("taumres.toeplitz", "Toeplitz1D", "matvec", "toeplitz.Toeplitz1D.matvec"),
    ("taumres.tau", None, "build_preconditioner", "tau.build_preconditioner"),
    ("taumres.pde", None, "build_preconditioner", "tau.build_preconditioner"),
    ("taumres.tau", "TauPreconditioner", "apply_inverse", "tau.apply_inverse"),
    ("taumres.tau", "TauPreconditioner", "apply_inv_sqrt", "tau.apply_inv_sqrt"),
    ("taumres.discretization", None, "assemble_operator", "discretization.assemble_operator"),
    ("taumres.pde", None, "assemble_operator", "discretization.assemble_operator"),
    ("taumres.krylov", None, "pminres", "krylov.pminres"),
    ("taumres.pde", None, "pminres", "krylov.pminres"),
    ("taumres.pde", None, "sample_grid", "pde.sample_grid"),
    ("taumres.pde", None, "step_first_order", "pde.step_first_order"),
    ("taumres.pde", None, "step_second_order", "pde.step_second_order"),
    ("taumres.pde", None, "run_steps", "pde.run_steps"),
    ("taumres.spectrum", None, "sym_eig", "spectrum.sym_eig"),
    ("taumres.spectrum", None, "preconditioned_spectrum", "spectrum.preconditioned_spectrum"),
)

LAYERS = ("transforms", "toeplitz", "tau", "discretization", "krylov", "pde", "spectrum")


class Tracer:
    """Collects spans of the shimmed functions while a root span is open."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if self._stack else len(self.spans)
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, root])
        self._stack.append(idx)
        return idx

    def _close(self, idx, start, end):
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end

    @contextlib.contextmanager
    def root(self, name):
        """Open a top-level span (``setup`` or ``op``) that shims record under."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, start, time.perf_counter())

    def _shim(self, name, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())

        return shim

    @contextlib.contextmanager
    def traced(self, name):
        """Install the shims and open a root span for the duration of the block."""
        with self.install() as missing, self.root(name):
            yield missing

    @contextlib.contextmanager
    def install(self):
        """Patch every binding that exists; yields the ``module.attr`` paths that do not."""
        saved = []
        missing = []
        try:
            for module_name, cls_name, attr, span in BINDINGS:
                owner = importlib.import_module(module_name)
                if cls_name is not None:
                    owner = getattr(owner, cls_name, None)
                path = ".".join(p for p in (module_name, cls_name, attr) if p)
                if owner is None or attr not in vars(owner):
                    missing.append(path)
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._shim(span, original))
            yield missing
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Duration of each span minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def root_profiles(spans, own):
    """Per-function counts and times inside each root span, keyed by root index.

    ``inclusive`` sums the calls of a function that are not nested in a
    call of the same function; ``self`` sums self times and ``self_each``
    lists them; ``layer_self`` groups self times by layer (first
    component of the span name); ``remainder`` is the root's own self
    time, the part of the root no traced function covers.
    """
    profiles = {}
    for idx, (name, start, end, parent, root) in enumerate(spans):
        if parent < 0:
            profiles[idx] = {
                "name": name,
                "wall": end - start,
                "remainder": own[idx],
                "calls": defaultdict(int),
                "inclusive": defaultdict(float),
                "self": defaultdict(float),
                "self_each": defaultdict(list),
                "layer_self": defaultdict(float),
            }
            continue
        prof = profiles[root]
        prof["calls"][name] += 1
        prof["self"][name] += own[idx]
        prof["self_each"][name].append(own[idx])
        prof["layer_self"][name.split(".", 1)[0]] += own[idx]
        ancestor = parent
        while ancestor != root and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor == root:
            prof["inclusive"][name] += end - start
    return profiles


def durations_ms(spans):
    """Inclusive duration in ms of every recorded call, by span name."""
    out = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            out[name].append(1e3 * (end - start))
    return out
