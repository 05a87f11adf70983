"""Span tracing of the scarf layers from outside the package.

Each traced function is replaced, on every loaded ``scarf`` module that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and job id.  Modules import functions by name
(``from .diophantine import points_in_box``), so patching the defining
module alone would miss those callers.  Methods are wrapped on their class.
Generators are timed across their ``next()`` calls only, so a generator's
span covers the time spent producing items, not the time its consumer holds
it suspended.

Spans stay in memory and are written out by ``Tracer.write`` when the run
ends.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

# (layer, qualified name, metric group, end-to-end metric and workload the
# group should move).  The group is the metric prefix; several functions may
# share one group (the formats renderers).
_RENDER_MOVES = "jobs_per_s and peak_rss_mb on finite (dense jobs; little on sparse jobs)"
TRACED = (
    ("formats", "parse_points_doc", "parse_points_doc", _RENDER_MOVES),
    ("formats", "parse_lattice_doc", "parse_lattice_doc", _RENDER_MOVES),
    ("formats", "complex_doc", "render", _RENDER_MOVES),
    ("formats", "genericity_doc", "render", _RENDER_MOVES),
    ("formats", "layering_doc", "render", _RENDER_MOVES),
    ("formats", "star_doc", "render", _RENDER_MOVES),
    ("formats", "neighbors_doc", "render", _RENDER_MOVES),
    ("formats", "quotient_doc", "render", _RENDER_MOVES),
    ("formats", "resolution_doc", "render", _RENDER_MOVES),
    ("formats", "render_document", "render", _RENDER_MOVES),
    ("finite", "enumerate_complex", "enumerate_complex",
     "jobs_per_s on finite (sparse jobs large, dense jobs small)"),
    ("finite", "strict_dominator", "strict_dominator",
     "jobs_per_s on finite (sparse jobs large, dense jobs small)"),
    ("finite", "is_generic", "is_generic", "jobs_per_s on finite (sparse jobs)"),
    ("finite", "neighbors", "neighbors", "jobs_per_s on finite (sparse jobs)"),
    ("posets", "dickson_layers", "dickson_layers",
     "job_tail_s and jobs_per_s on finite (sparse jobs)"),
    ("posets", "filter_by_downset", "filter_by_downset",
     "job_tail_s and jobs_per_s on finite (sparse jobs)"),
    ("resolution", "build_resolution", "build_resolution", "jobs_per_s on finite (sparse jobs)"),
    ("resolution", "verify_chain", "verify_chain", "jobs_per_s on finite (sparse jobs)"),
    ("complexes", "Face.translated", "Face.translated", "job_p50_s and jobs_per_s on lattice"),
    ("complexes", "LabeledComplex.from_closed", "LabeledComplex.from_closed",
     "jobs_per_s on finite (dense jobs)"),
    ("periodic", "certified_quotient", "certified_quotient",
     "job_p50_s and job_tail_s on lattice"),
    ("periodic", "quotient_complex", "quotient_complex", "job_p50_s and job_tail_s on lattice"),
    ("periodic", "certified_star", "certified_star", "job_p50_s and job_tail_s on lattice"),
    ("periodic", "star_at", "star_at", "job_p50_s and job_tail_s on lattice"),
    ("periodic", "exists_strictly_below", "exists_strictly_below",
     "job_p50_s and job_tail_s on lattice"),
    ("diophantine", "points_in_box", "points_in_box", "jobs_per_s on lattice"),
    ("diophantine", "points_below", "points_below", "jobs_per_s on lattice"),
    ("diophantine", "minimal_orthant_points", "minimal_orthant_points", "jobs_per_s on lattice"),
    ("diophantine", "Lattice.canonical_rep", "Lattice.canonical_rep", "jobs_per_s on lattice"),
    ("diophantine", "Lattice.member", "Lattice.member", "jobs_per_s on lattice"),
    ("intsolve", "fm_enumerate_integer", "fm_enumerate_integer", "jobs_per_s on lattice"),
    ("intsolve", "fm_systems", "fm_systems", "jobs_per_s on lattice"),
    ("intsolve", "minimal_natural_solutions", "minimal_natural_solutions",
     "jobs_per_s on lattice"),
    ("intsolve", "smith_normal_form", "smith_normal_form",
     "jobs_per_s and job_p50_s on lattice (runs at document load)"),
    ("intsolve", "nonzero_cone_direction", "nonzero_cone_direction",
     "jobs_per_s and job_p50_s on lattice (runs at document load)"),
)

# Derived per-layer metrics: name -> (unit, better, what it should move).
DERIVED = {
    "formats.output_bytes": ("bytes", "lower", _RENDER_MOVES),
    "finite.faces_accepted": ("count", "higher",
                              "nothing: fixed by the output; guards the accept ratio's base"),
    "finite.face_accept_ratio": ("ratio", "higher",
                                 "jobs_per_s on finite (sparse jobs large, dense jobs small)"),
    "periodic.doubling_rounds": ("rounds/job", "lower", "job_p50_s and job_tail_s on lattice"),
    "periodic.discarded_round_share": ("ratio", "lower", "job_p50_s and job_tail_s on lattice"),
    "diophantine.box_points_returned": ("count", "lower", "jobs_per_s on lattice"),
    "trace_overhead": ("ratio", "lower", "nothing: cost of tracing itself"),
}

# Recorded with the benchmark: these groups never run on the named workloads.
ZERO_PREDICTIONS = {
    "finite": ("periodic", "diophantine", "intsolve"),
    "lattice": ("finite", "posets", "resolution"),
}


def groups() -> list[tuple[str, str]]:
    """(layer, group) pairs in declaration order, without repeats."""
    seen = []
    for layer, _, group, _ in TRACED:
        if (layer, group) not in seen:
            seen.append((layer, group))
    return seen


# Fields of a recorded span tuple.
SID, NAME, START, END, PARENT, JOB, ACTIVE, SELF = range(8)


class _Open:
    __slots__ = ("sid", "name", "start", "child", "active")

    def __init__(self, sid: int, name: int, start: float):
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0
        self.active = 0.0


class Tracer:
    """Span recorder for the functions in TRACED, active between install and uninstall.

    A span is (id, name, start, end, parent, job, active, self): ``active``
    is the time the call was running (for a generator, the sum of its
    ``next()`` calls) and ``self`` is active minus the active time of its
    child spans.  Parent 0 is the job itself.
    """

    def __init__(self):
        self.names = [f"{layer}.{group}" for layer, _, group, _ in TRACED]
        self.spans: list[tuple] = []
        self.stack: list[_Open] = []
        self.job = 0
        self.output_bytes = 0
        self.box_points = 0
        self.sd_under_enum = 0
        self.sd_accepted = 0
        self._next_sid = 1
        # (owner, attribute, original, wrapper) for every binding to patch
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = _scarf_modules()
        for index, (layer, qualname, _, _) in enumerate(TRACED):
            owner = sys.modules[f"scarf.{layer}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(raw.__func__, index, qualname))
                else:
                    wrapper = self._wrap(raw, index, qualname)
                self._bindings.append((cls, attr, raw, wrapper))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(original, index, qualname)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _open(self, name: int) -> _Open:
        span = _Open(self._next_sid, name, time.perf_counter())
        self._next_sid += 1
        return span

    def _close(self, span: _Open, end: float) -> None:
        parent = 0
        if self.stack:
            top = self.stack[-1]
            top.child += span.active
            parent = top.sid
        self.spans.append((span.sid, span.name, span.start, end, parent, self.job,
                           span.active, span.active - span.child))

    def _wrap(self, fn, name: int, qualname: str):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                span = tracer._open(name)
                end = span.start
                try:
                    while True:
                        t0 = clock()
                        stack.append(span)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                            end = clock()
                            span.active += end - t0
                        yield item
                finally:
                    gen.close()
                    tracer._close(span, end)
            return gen_wrapper

        hook = _RESULT_HOOKS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span.active = end - span.start
                tracer._close(span, end)
            if hook is not None:
                hook(tracer, result)
            return result
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-group call counts and self time, plus the derived metrics."""
        out: dict[str, float] = {}
        for layer, group in groups():
            out[f"{layer}.{group}_calls"] = 0
            out[f"{layer}.{group}_self_s"] = 0.0
        for span in self.spans:
            key = self.names[span[NAME]]
            out[key + "_calls"] += 1
            out[key + "_self_s"] += span[SELF]
        out["formats.output_bytes"] = self.output_bytes
        out["finite.faces_accepted"] = self.sd_accepted
        out["finite.face_accept_ratio"] = (
            self.sd_accepted / self.sd_under_enum if self.sd_under_enum else 0.0)
        rounds, jobs, discarded, certified_time = self._doubling()
        out["periodic.doubling_rounds"] = rounds / jobs if jobs else 0.0
        out["periodic.discarded_round_share"] = (
            discarded / certified_time if certified_time else 0.0)
        out["diophantine.box_points_returned"] = self.box_points
        return out

    def _doubling(self) -> tuple[int, int, float, float]:
        """Rounds under certified calls, and the time of the non-final rounds.

        A certified star's rounds are its star_at children.  A certified
        quotient's rounds are its quotient_complex children, each running
        one star_at per coset.
        """
        idx = {n: i for i, n in enumerate(self.names)}
        star, quotient = idx["periodic.certified_star"], idx["periodic.certified_quotient"]
        star_at, complex_ = idx["periodic.star_at"], idx["periodic.quotient_complex"]
        children: dict[int, list[tuple]] = {}
        for span in self.spans:
            children.setdefault(span[PARENT], []).append(span)
        rounds = jobs = 0
        discarded = certified_time = 0.0
        for span in self.spans:
            if span[NAME] not in (star, quotient):
                continue
            kind = star_at if span[NAME] == star else complex_
            kids = sorted((k for k in children.get(span[SID], ()) if k[NAME] == kind),
                          key=lambda k: k[START])
            jobs += 1
            certified_time += span[ACTIVE]
            discarded += sum(k[ACTIVE] for k in kids[:-1])
            if kind == star_at:
                rounds += len(kids)
            else:
                rounds += sum(1 for k in kids for g in children.get(k[SID], ())
                              if g[NAME] == star_at)
        return rounds, jobs, discarded, certified_time

    def write(self, path) -> None:
        """Spans as gzip-compressed tab-separated lines, one per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\tactive_s\tself_s\n")
            for sid, name, start, end, parent, job, active, self_s in self.spans:
                fh.write(f"{sid}\t{self.names[name]}\t{start:.9f}\t{end:.9f}\t{parent}"
                         f"\t{job}\t{active:.9f}\t{self_s:.9f}\n")


def _scarf_modules() -> list:
    import scarf.cli  # noqa: F401  loads every module the CLI reaches

    return [m for k, m in sorted(sys.modules.items())
            if (k == "scarf" or k.startswith("scarf.")) and m is not None]


def _count_output(tracer: Tracer, text: str) -> None:
    # render_document emits ASCII-only JSON, so characters are bytes
    tracer.output_bytes += len(text)


def _count_box(tracer: Tracer, points) -> None:
    tracer.box_points += len(points)


def _count_dominator(tracer: Tracer, witness) -> None:
    if tracer.stack and tracer.names[tracer.stack[-1].name] == "finite.enumerate_complex":
        tracer.sd_under_enum += 1
        if witness is None:
            tracer.sd_accepted += 1


_RESULT_HOOKS = {
    "render_document": _count_output,
    "points_in_box": _count_box,
    "strict_dominator": _count_dominator,
}
