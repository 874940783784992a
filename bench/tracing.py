"""In-memory span tracing around the calls into affgeo's layers.

Nothing inside the package is instrumented. Instead, :func:`Tracer.install`
replaces the names that a calling module looks up (for example
``affgeo.robust.fundamental_from_acs``) with wrappers that open a span around
the original call, and :func:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and pair id; spans opened
while a pair runs share that pair's id. Spans live in memory until
:func:`Tracer.write` dumps them at the end of a run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute) -> span name, or None when the name is chosen per call.
# Each entry is the name the *caller* resolves at run time, so patching it
# reaches the call without touching the package.
_TARGETS = {
    ("affgeo.robust", "ransac_fundamental"): "robust.ransac",
    ("affgeo.cli", "ransac_homography"): "robust.ransac",
    ("affgeo.robust", "fundamental_from_acs"): None,
    ("affgeo.robust", "homography_from_acs"): None,
    ("affgeo.robust", "essential_from_fundamental"): "solvers.essential",
    ("affgeo.robust", "decompose_essential"): "solvers.decompose",
    ("affgeo.robust", "sampson_point_batch"): "residuals.sampson_point",
    ("affgeo.robust", "sampson_affine_batch"): "residuals.sampson_affine",
    ("affgeo.parallel", "run_chunks"): "parallel.run_chunks",
    ("affgeo.cli", "main"): "cli.main",
    ("affgeo.cli", "read_acs"): "fileio.read_acs",
    ("affgeo.cli", "write_mat3"): "fileio.write",
    ("affgeo.cli", "write_labels"): "fileio.write",
    ("affgeo.cli", "write_pose"): "fileio.write",
    ("affgeo.synthdata", "generate_scene"): "synthdata.generate_scene",
    ("affgeo.synthdata", "sample_acs"): "synthdata.sample_acs",
    ("affgeo.fileio", "write_acs"): "fileio.write_acs",
}

# Constraint rows per AC of each solver, for solvers.*.rows.
_ROWS_PER_AC = {"fundamental_from_acs": 3, "homography_from_acs": 6}
# The RANSAC loops. A solver call made directly from a loop's body is a
# minimal solve; one made from anywhere else (the LO refit helpers) is an LO
# refit. Sample size cannot tell them apart: an LO refit of a hypothesis
# supported only by its own 2-AC sample is also a 2-AC solve.
_RANSAC_LOOPS = ("ransac_fundamental", "ransac_homography")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pair", "attrs")

    def __init__(self, span_id, name, parent, pair):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.pair = pair
        self.attrs = {}
        self.start = self.end = 0.0

    def as_dict(self, epoch: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start - epoch,
            "end": self.end - epoch,
            "parent": self.parent,
            "pair": self.pair,
            **self.attrs,
        }


class Tracer:
    """Collects spans from wrapped affgeo entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pair = None
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._loop_code = set()

    # --- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(next(self._ids), name, stack[-1].id if stack else None, self.pair)
        sp.attrs.update(attrs)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def _under(self, parent: Span):
        """Make ``parent`` the current span on this (worker) thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        for (mod_name, attr), span_name in _TARGETS.items():
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if attr in _RANSAC_LOOPS:
                self._loop_code.add(original.__code__)
            setattr(module, attr, self._wrapper(attr, span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, attr: str, span_name: str | None, fn):
        if attr == "run_chunks":
            return self._wrap_run_chunks(span_name, fn)
        if attr in _ROWS_PER_AC:
            return self._wrap_solver(_ROWS_PER_AC[attr], fn)

        def wrapper(*args, **kwargs):
            with self.span(span_name) as sp:
                result = fn(*args, **kwargs)
                _describe(attr, args, result, sp.attrs)
                return result

        return wrapper

    def _wrap_solver(self, rows_per_ac: int, fn):
        def wrapper(acs, *rest, **kwargs):
            extra = len(rest[0]) if rest else len(kwargs.get("extra_points", ()))
            minimal = sys._getframe(1).f_code in self._loop_code
            name = "solvers.minimal" if minimal else "solvers.lo"
            with self.span(name, rows=rows_per_ac * len(acs) + 2 * extra, ok=False) as sp:
                result = fn(acs, *rest, **kwargs)
                sp.attrs["ok"] = True
                return result

        return wrapper

    def _wrap_run_chunks(self, span_name: str, fn):
        def wrapper(task, n, *rest, **kwargs):
            with self.span(span_name, n=n) as sp:
                caller = threading.get_ident()
                workers = set()

                def traced_task(lo, hi):
                    workers.add(threading.get_ident())
                    with self._under(sp):
                        task(lo, hi)

                fn(traced_task, n, *rest, **kwargs)
                sp.attrs["pool"] = workers != {caller}

        return wrapper

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump([s.as_dict(self.epoch) for s in self.spans], fh)


def _describe(attr: str, args, result, attrs: dict) -> None:
    """Work counts a span carries, taken from the call's input or result."""
    if attr in ("ransac_fundamental", "ransac_homography"):
        attrs["samples"] = result.iterations_run
    elif attr == "decompose_essential":
        attrs["points"] = len(args[1])
    elif attr == "sampson_point_batch":
        attrs["acs"] = int(args[0].size)
    elif attr in ("read_acs", "sample_acs"):
        attrs["rows"] = len(result[0] if attr == "sample_acs" else result)
    elif attr == "write_acs":
        attrs["rows"] = len(args[1])


# --- per-layer metrics ------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics, per traced pair, from one run's spans. A span
    whose call raised carries only the counts known before the call."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    selfs = self_times(spans)

    def spans_of(name, in_pairs=True):
        return [s for s in by_name.get(name, ()) if (s.pair is not None) == in_pairs]

    def total(ss):
        return sum(s.end - s.start for s in ss)

    pairs = len(spans_of("pair"))
    minimal, lo = spans_of("solvers.minimal"), spans_of("solvers.lo")
    decompose = spans_of("solvers.decompose")
    point = spans_of("residuals.sampson_point")
    score = point + spans_of("residuals.sampson_affine")
    chunks = spans_of("parallel.run_chunks")
    reads, writes = spans_of("fileio.read_acs"), spans_of("fileio.write")
    mains, ransacs = spans_of("cli.main"), spans_of("robust.ransac")
    scenes = spans_of("synthdata.generate_scene", False)
    samples = spans_of("synthdata.sample_acs", False)
    ac_writes = spans_of("fileio.write_acs", False)
    return {
        "solvers.lo.calls_per_pair": _ratio(len(lo), pairs),
        "solvers.lo.ms_per_call": 1e3 * _ratio(total(lo), len(lo)),
        "solvers.lo.rows_per_call": _ratio(sum(s.attrs.get("rows", 0) for s in lo), len(lo)),
        "solvers.minimal.calls_per_pair": _ratio(len(minimal), pairs),
        "solvers.minimal.us_per_call": 1e6 * _ratio(total(minimal), len(minimal)),
        "solvers.minimal.ok_ratio": _ratio(sum(s.attrs.get("ok", False) for s in minimal), len(minimal)),
        "solvers.decompose.ms_per_pair": 1e3 * _ratio(total(decompose), pairs),
        "solvers.decompose.us_per_point": 1e6
        * _ratio(total(decompose), sum(s.attrs.get("points", 0) for s in decompose)),
        "residuals.score.calls_per_pair": _ratio(len(point), pairs),
        "residuals.score.ns_per_ac": 1e9
        * _ratio(total(score), sum(s.attrs.get("acs", 0) for s in point)),
        "parallel.pool_calls_per_pair": _ratio(sum(s.attrs.get("pool", False) for s in chunks), pairs),
        "parallel.run_chunks.ms_per_pair": 1e3 * _ratio(total(chunks), pairs),
        "fileio.read_acs.us_per_row": 1e6
        * _ratio(total(reads), sum(s.attrs.get("rows", 0) for s in reads)),
        "fileio.write.us_per_pair": 1e6 * _ratio(total(writes), pairs),
        "cli.main.ms_per_pair": 1e3 * _ratio(total(mains), pairs),
        "cli.self_ms_per_pair": 1e3 * _ratio(sum(selfs[s.id] for s in mains), pairs),
        "robust.ransac.ms_per_pair": 1e3 * _ratio(total(ransacs), pairs),
        "robust.ransac.self_ms_per_pair": 1e3 * _ratio(sum(selfs[s.id] for s in ransacs), pairs),
        "robust.samples_per_pair": _ratio(sum(s.attrs.get("samples", 0) for s in ransacs), pairs),
        "synthdata.generate_scene.ms": 1e3 * _ratio(total(scenes), len(scenes)),
        "synthdata.sample_acs.us_per_ac": 1e6
        * _ratio(total(samples), sum(s.attrs.get("rows", 0) for s in samples)),
        "fileio.write_acs.us_per_row": 1e6
        * _ratio(total(ac_writes), sum(s.attrs.get("rows", 0) for s in ac_writes)),
        "trace.overhead_frac": overhead_frac,
    }


def self_shares(spans: list[Span]) -> dict[str, float]:
    """Each span name's self time as a share of the traced pairs' wall time."""
    selfs = self_times(spans)
    pair_time = sum(s.end - s.start for s in spans if s.name == "pair")
    shares: dict[str, float] = {}
    for sp in spans:
        if sp.pair is not None:
            shares[sp.name] = shares.get(sp.name, 0.0) + _ratio(selfs[sp.id], pair_time)
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
