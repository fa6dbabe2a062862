"""Per-layer spans recorded from outside the program.

The tracer wraps listed public morsecs functions at every name their callers
look up: the defining module and every morsecs module that imported the same
function object (``operators.symtridiag_eigen``, ``coherent.matrix_exp``,
...). Each call records one span in memory: name, job index, parent span,
start, end, and the time covered by wrapped children. Spans are aggregated
into per-layer metrics only after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc

import numpy as np

TARGETS = (
    "numerics.symtridiag_eigen",
    "numerics.matrix_exp",
    "numerics.gauss_laguerre_rule",
    "numerics.laguerre_sequence",
    "operators.spectrum",
    "operators.matrix_H",
    "operators.converged_spectrum",
    "operators.matrix_element_oracle",
    "coherent.displacement_matrix",
    "coherent.resolution_of_unity",
    "coherent.phase_space_measure_check",
    "coherent.project_onto_basis",
    "coherent.coefficients",
    "coherent.wavefunction_series",
    "coherent.wavefunction_closed",
    "morse_core.pseudo_wavefunction",
    "morse_core.apply_operator_fd",
)

_MEMORY = "coherent.resolution_of_unity"


def _panel_bytes(fn, args, kwargs) -> int:
    # complex128 panel of shape (m_basis, n_radial, n_angular)
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    return 16 * int(a["m_basis"]) * int(a["n_radial"]) * int(a["n_angular"])


# Work counts recorded with a span, computed from the call's arguments.
_SIZE = {
    "numerics.symtridiag_eigen": lambda fn, a, k: int(a[0].diag.size),
    "numerics.matrix_exp": lambda fn, a, k: int(np.shape(a[0])[0]),
    "numerics.gauss_laguerre_rule": lambda fn, a, k: int(a[0]),
    _MEMORY: _panel_bytes,
}


class Tracer:
    """Installs wrappers, collects spans, restores the originals."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        # span = [name, job, parent, t0, t1, child_ns, size, returned, peak]
        self.spans: list[list] = []
        self.job = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("morsecs.") and m is not None]
        for target in TARGETS:
            modname, fname = target.split(".")
            home = sys.modules.get("morsecs." + modname)
            orig = getattr(home, fname, None)
            if not callable(orig):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        size = _SIZE.get(name)
        memory = name == _MEMORY
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, tracer.job, parent, 0, 0, 0, 0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
                span[7] = True
                return result
            finally:
                span[4] = clock()
                stack.pop()
                if memory:
                    span[8] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if parent >= 0:
                    spans[parent][5] += span[4] - span[3]
                if size is not None:
                    span[6] = size(fn, args, kwargs)

        return wrapper


def layer_metrics(spans: list[list], missing: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from recorded spans, and the targets never seen.

    Returns ({metric: value}, absent). A target that was not found or never
    fired is listed in `absent` and its metrics read 0.
    """
    by_name: dict[str, list[list]] = {t: [] for t in TARGETS}
    for span in spans:
        by_name[span[0]].append(span)
    out: dict[str, float] = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.self_ms"] = sum(s[4] - s[3] - s[5] for s in group) / 1e6
    for name, key in (("numerics.symtridiag_eigen", "order_sum"),
                      ("numerics.matrix_exp", "order_sum"),
                      ("numerics.gauss_laguerre_rule", "points_sum")):
        out[f"{name}.{key}"] = sum(s[6] for s in by_name[name])

    searches = by_name["operators.converged_spectrum"]
    search_idx = {i for i, s in enumerate(spans)
                  if s[0] == "operators.converged_spectrum"}
    inner = sum(1 for s in by_name["operators.spectrum"] if s[2] in search_idx)
    out["operators.converged_spectrum.doublings"] = inner - len(searches)
    out["operators.converged_spectrum.plateau_frac"] = (
        sum(s[7] for s in searches) / len(searches) if searches else 0)

    res = by_name[_MEMORY]
    out[f"{_MEMORY}.peak_mb"] = max((s[8] for s in res), default=0) / 1e6
    out[f"{_MEMORY}.panel_mb_computed"] = max((s[6] for s in res), default=0) / 1e6

    absent = sorted(set(missing) | {t for t, g in by_name.items() if not g})
    return out, absent
