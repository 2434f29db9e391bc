"""Span recorder for the traced benchmark run.

The tracer rebinds module attributes of chargepair to timing wrappers.  This
reaches calls made inside the package too, because the modules call each
other through attributes or module globals (``bethe.state_energy`` reaches
``solve`` through the global; ``models`` and ``spectra`` call
``fock.assemble_operator`` by attribute; ``spectra.spectrum`` calls
``_as_dense`` only on its dense path).  Spans stay in memory and are written
out once, after the traced pass.
"""

from __future__ import annotations

import inspect
import json
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from chargepair import bethe, cli, fock, fss, liebwu, models, spectra, ybx


def _public_functions(module) -> List[str]:
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and not name.startswith("_"))


# Count callbacks see the call's arguments and result and must cost O(1):
# they run inside the caller's span.

def _solve_counts(args, kwargs, roots) -> dict:
    config = args[0] if args else kwargs["config"]
    return {"iterations": roots.iterations,
            "unknowns": len(config.q1) + len(config.q2)}


def _matrix_counts(args, kwargs, mat) -> dict:
    """Stored elements and bytes of an assembled operator."""
    if sp.issparse(mat):
        stored = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        return {"elements": int(mat.nnz), "bytes": int(stored)}
    return {"elements": int(mat.size), "bytes": int(mat.nbytes)}


def _eigvalsh_counts(args, kwargs, dense: np.ndarray) -> dict:
    """Computed flop count of the eigenvalue-only solve of the matrix that
    ``spectra.spectrum`` hands to ``eigvalsh``: Householder
    tridiagonalization costs 4/3 n^3 real flops for a real symmetric matrix
    and 16/3 n^3 for a complex Hermitian one; the tridiagonal eigenvalue step
    is O(n^2)."""
    n = dense.shape[0]
    per_n3 = 16.0 / 3.0 if np.iscomplexobj(dense) else 4.0 / 3.0
    return {"gflop": per_n3 * n ** 3 / 1e9}


#: module -> wrapped attributes (None: every public function of the module)
WRAPPED = (
    (bethe, ("solve", "state_energy")),
    (fock, ("assemble_operator",)),
    (models, ("build_model", "symmetry_generator")),
    (spectra, tuple(_public_functions(spectra)) + ("_as_dense",)),
    (liebwu, None),
    (fss, None),
    (ybx, None),
    (cli, ("main",)),
)

COUNTS: Dict[str, Callable] = {
    "bethe.solve": _solve_counts,
    "fock.assemble_operator": _matrix_counts,
    "spectra._as_dense": _eigvalsh_counts,
}

CALIBRATION_CALLS = 20000


class Tracer:
    """Records spans (name, start, end, parent, cell id, counts) in memory."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._restore: list = []
        self.cell: Optional[str] = None

    def _open(self, name: str) -> dict:
        span = {"name": name, "start": perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "cell": self.cell}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def cell_span(self, cell_id: str):
        self.cell = cell_id
        span = self._open("cell")
        try:
            yield
        finally:
            self._close(span)
            self.cell = None

    def _wrap(self, module, attr: str) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def install(self) -> None:
        for module, attrs in WRAPPED:
            for attr in attrs if attrs is not None else _public_functions(module):
                self._wrap(module, attr)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def cost_per_span(self) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op timed against
        the bare no-op, median of five rounds.  Leaves no spans behind."""
        probe = types.ModuleType("probe")
        probe.noop = bare = lambda: None
        self._wrap(probe, "noop")
        self._restore.pop()
        kept = len(self.spans)
        rounds = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                bare()
            t1 = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                probe.noop()
            t2 = perf_counter()
            del self.spans[kept:]
            rounds.append(((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)
        return max(sorted(rounds)[2], 0.0)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.spans, f)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_by_layer(spans: List[dict]) -> Dict[str, float]:
    """Self time of every layer seen, largest first: each span's duration
    minus that of its child spans.  ``cell`` is benchmark code between the
    layer calls of a cell."""
    out: Dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        out[_layer(s["name"])] = out.get(_layer(s["name"]), 0.0) + dur
        if s["parent"] is not None:
            parent = _layer(spans[s["parent"]]["name"])
            out[parent] = out.get(parent, 0.0) - dur
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def layer_metrics(spans: List[dict], hits: int, misses: int) -> Dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``busy`` sums the spans that enter a layer from outside it; ``self`` is
    the layer's share of :func:`self_time_by_layer`.
    """
    dur = [s["end"] - s["start"] for s in spans]
    own = self_time_by_layer(spans)

    def entering(layer):
        return [i for i, s in enumerate(spans) if _layer(s["name"]) == layer
                and (s["parent"] is None or _layer(spans[s["parent"]]["name"]) != layer)]

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def busy(idx):
        return sum((dur[i] for i in idx), 0.0)

    def total(idx, key):
        return sum(spans[i].get(key, 0) for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    solve = named("bethe.solve")
    assemble = named("fock.assemble_operator")
    as_dense = named("spectra._as_dense")
    dense = sorted({spans[i]["parent"] for i in as_dense})
    lanczos = sorted(set(named("spectra.spectrum")) - set(dense))
    return {
        "bethe.solve.calls": len(solve),
        "bethe.solve.busy_s": busy(solve),
        "bethe.solve.max_s": max((dur[i] for i in solve), default=0.0),
        "bethe.solve.iters": total(solve, "iterations"),
        "bethe.solve.s_per_iter": ratio(busy(solve), total(solve, "iterations")),
        "bethe.solve.unknowns": total(solve, "unknowns"),
        "bethe.state_energy.hit_ratio": ratio(hits, hits + misses),
        "liebwu.calls": len(entering("liebwu")),
        "liebwu.busy_s": busy(entering("liebwu")),
        "fss.self_s": own.get("fss", 0.0),
        "fock.assemble.calls": len(assemble),
        "fock.assemble.busy_s": busy(assemble),
        "fock.assemble.elements": total(assemble, "elements"),
        "fock.assemble.elements_per_s": ratio(total(assemble, "elements"), busy(assemble)),
        "fock.assemble.bytes_computed": total(assemble, "bytes"),
        "models.build.calls": len(entering("models")),
        "models.build.self_s": own.get("models", 0.0),
        "spectra.dense.calls": len(dense),
        "spectra.dense.busy_s": busy(dense),
        "spectra.dense.gflop_computed": total(as_dense, "gflop"),
        "spectra.dense.gflops": ratio(total(as_dense, "gflop"), busy(dense)),
        "spectra.lanczos.calls": len(lanczos),
        "spectra.lanczos.busy_s": busy(lanczos),
        "spectra.commutator.busy_s": busy(named("spectra.commutator_norm")),
        "spectra.reference_state.busy_s": busy(named("spectra.reference_state_residual")),
        "ybx.calls": len(entering("ybx")),
        "ybx.busy_s": busy(entering("ybx")),
        "cli.calls": len(entering("cli")),
        "cli.self_s": own.get("cli", 0.0),
    }
