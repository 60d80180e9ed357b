"""Span tracing of the scatsplit package from outside it.

`Tracer.install` replaces every public function of the package at every
module attribute that refers to it, so a call is recorded however the
package reaches it: `stationary.solve_stationary` is wrapped in
`stationary`, `decomposition`, `wavepacket`, `times`, `larmor`, `cli` and
the package namespace.  A span is named `<module>.<function>` after the
module that defines the function.  Names that no longer exist are skipped,
so the tracer survives refactors of the package.

Spans stay in memory as tuples and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "potentials", "stationary", "decomposition", "wavepacket",
          "times", "larmor", "oracle")

# functions wrapped besides the package's public (__all__) functions
EXTRA = ("cli.main", "wavepacket.auto_grid")


def _arg(args, kwargs, name, index):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list = []  # (name, start, end, parent index, op)
        self._stack: list[int] = []
        self.counts = defaultdict(float)
        self._solved = set()  # distinct (barrier, k); inputs never repeat across ops
        self._patched: list = []

    # -- installation --------------------------------------------------------

    def install(self, package) -> int:
        """Wrap the package's functions in place; returns the number of attributes patched."""
        modules = {name: getattr(package, name) for name in LAYERS if hasattr(package, name)}
        targets = {}
        for name in getattr(package, "__all__", ()):
            fn = getattr(package, name, None)
            if inspect.isfunction(fn):
                targets[id(fn)] = fn
        for dotted in EXTRA:
            mod, _, attr = dotted.partition(".")
            fn = getattr(modules.get(mod), attr, None)
            if inspect.isfunction(fn):
                targets[id(fn)] = fn
        wrappers = {key: self._wrap(fn) for key, fn in targets.items()}
        for holder in [package, *modules.values()]:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrapper)
        return len(self._patched)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._patched):
            setattr(holder, attr, value)
        self._patched.clear()

    def _wrap(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}"
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    # -- reduction -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per-layer self time and call count over all spans, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            layer = name.partition(".")[0]
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
        counts = dict(self.counts, **{"stationary.distinct_solves": len(self._solved)})
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": counts}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op},{i},{parent},{name},{start!r},{end!r}\n")


# -- counters recorded where the work happens ----------------------------------

def _solve(tr, args, kwargs, result):
    tr.counts["stationary.solve_calls"] += 1
    tr._solved.add((result.barrier, result.k))


def _spin(tr, args, kwargs, result):
    tr.counts["larmor.spin_solves"] += 2


def _numerov(tr, args, kwargs, result):
    tr.counts["oracle.numerov_solves"] += 1


def _cn(tr, args, kwargs, result):
    grid = _arg(args, kwargs, "grid", 1)
    t_span = _arg(args, kwargs, "t_span", 3)
    tr.counts["oracle.cn_cell_steps"] += grid.n * round(t_span / grid.dt)


def _snapshot(tr, args, kwargs, result):
    packet = _arg(args, kwargs, "packet", 0)
    if _arg(args, kwargs, "xs", 3) is None:
        tr.counts["wavepacket.auto_snapshots"] += 1
    else:
        tr.counts["wavepacket.basis_cells"] += len(result.x_grid) * len(packet.ks)


def _auto_grid(tr, args, kwargs, result):
    packet = _arg(args, kwargs, "packet", 0)
    tr.counts["wavepacket.auto_grids"] += 1
    tr.counts["wavepacket.basis_cells"] += len(result) * len(packet.ks)


def _synthesize(tr, args, kwargs, result):
    packet = _arg(args, kwargs, "packet", 0)
    tr.counts["wavepacket.basis_cells"] += len(result) * len(packet.ks)


_COUNTERS = {
    "stationary.solve_stationary": _solve,
    "larmor.spin_resolved_amplitudes": _spin,
    "oracle.numerov_solve": _numerov,
    "oracle.crank_nicolson_evolve": _cn,
    "wavepacket.snapshot": _snapshot,
    "wavepacket.auto_grid": _auto_grid,
    "wavepacket.synthesize": _synthesize,
}
