"""Spans for the traced run.

A span has a name, a start, an end, the span that caused it and the
instance it belongs to, plus the counts read at its boundary. Spans are
kept in memory and written out once, when the run ends. The benchmark
records spans around its own calls into mdclique, and `install` puts
wrappers on the names `mdclique.mdsolve` calls, so no program file changes.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "counts")

    def __init__(self, name: str, start: float, parent: int | None, instance: str | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.counts: dict[str, int] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.instance: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent, self.instance)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self, first: int, last: int) -> list[float]:
        """Self time of spans[first:last]: each span's duration minus the
        time its direct children cover (children run one after another)."""
        own = [s.seconds for s in self.spans[first:last]]
        for s in self.spans[first:last]:
            if s.parent is not None and s.parent >= first:
                own[s.parent - first] -= s.seconds
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "instance": s.instance, **({"counts": s.counts} if s.counts else {})}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows, indent=0) + "\n")


@contextmanager
def install(tracer: Tracer):
    """Wrap mdclique.mdsolve's decompose, quotient and max_weight_clique for
    the duration of the block. The last wrapper does what max_weight_clique
    does, CliqueSearch(g, config).run(), timing construction (which includes
    the dominance reduction) and search as separate spans."""
    from mdclique import mdsolve
    from mdclique.wclique import DEFAULT_CONFIG, CliqueSearch

    def decompose(*args, **kwargs):
        with tracer.span("mdtree.decompose"):
            return original["decompose"](*args, **kwargs)

    def quotient(*args, **kwargs):
        with tracer.span("mdtree.quotient"):
            return original["quotient"](*args, **kwargs)

    def max_weight_clique(g, config=DEFAULT_CONFIG):
        with tracer.span("wclique.init") as s:
            search = CliqueSearch(g, config)
        s.counts["k"] = g.n
        s.counts["survivors"] = len(search.order)
        with tracer.span("wclique.search") as s:
            solution = search.run()
        s.counts["nodes"] = search.nodes
        return solution

    wrappers = {"decompose": decompose, "quotient": quotient,
                "max_weight_clique": max_weight_clique}
    original = {name: getattr(mdsolve, name) for name in wrappers}
    for name, wrapper in wrappers.items():
        setattr(mdsolve, name, wrapper)
    try:
        yield
    finally:
        for name, fn in original.items():
            setattr(mdsolve, name, fn)
