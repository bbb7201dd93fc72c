"""Spans at entmac's module boundaries, recorded from outside the package.

`Tracer.install` replaces each boundary function listed in BOUNDARIES with
a wrapper that records one span per call (name, layer, start, end, parent,
thread) in memory. Every alias of the function in any loaded `entmac`
module is replaced, since modules bind names with `from x import y`.
`Tracer.restore` puts the originals back and `Tracer.leftovers` proves it.

Per-slot functions (`run_slot`, the qubit operations, the rng draws) are
not wrapped: a span per slot would cost more than the slot. Those layers
are measured by the isolated rates in child.py instead.

A span opened in a thread with no open span of its own (a worker of a
chunk pool) takes as parent the innermost open span of the thread that
installed the tracer, which is the thread that started the pool.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Boundary:
    layer: str
    target: str  # "module:function", "module:Class.method", or "module:*"
    role: str = ""  # "protocol", "render" or "tally" (a kernel call that runs slots)
    slots_arg: int | None = None  # positional index of the slot count of a tally
    backend: str | None = None  # backend that runs a tally


BOUNDARIES = (
    Boundary("cli", "entmac.cli:main"),
    Boundary("campaign", "entmac.campaign:run_campaign"),
    Boundary("campaign", "entmac.campaign:compare"),
    Boundary("campaign", "entmac.campaign:CampaignResult.render", role="render"),
    Boundary("campaign", "entmac.campaign:ComparisonReport.render", role="render"),
    Boundary("hyperdense", "entmac.hyperdense:simulate", role="protocol"),
    Boundary("hyperdense", "entmac.hyperdense:expected_bits_analytic"),
    Boundary("hyperdense", "entmac.hyperdense:expected_bits_per_direction"),
    Boundary("superdense", "entmac.superdense:simulate", role="protocol"),
    Boundary("superdense", "entmac.superdense:count_successes", role="protocol"),
    Boundary("aloha", "entmac.aloha:simulate", role="protocol"),
    Boundary("aloha", "entmac.aloha:success_probability"),
    Boundary("aloha", "entmac.aloha:total_throughput"),
    Boundary("aloha", "entmac.aloha:max_throughput"),
    Boundary("kernels", "entmac._kernels:chunk_plan"),
    Boundary("kernels", "entmac._kernels:aloha_tally"),
    Boundary("kernels", "entmac._kernels:hyperdense_tally"),
    Boundary("kernels", "entmac._kernels.pure:aloha_tally", "tally", 2, "pure"),
    Boundary("kernels", "entmac._kernels.pure:hyperdense_tally", "tally", 0, "pure"),
    # the superdense chunk kernel lives in its protocol module and has no
    # compiled twin; it is the pure backend of that protocol
    Boundary("kernels", "entmac.superdense:trial_successes", "tally", 0, "pure"),
    # every function of the compiled kernel; a tally's slot count sits where
    # the pure function of the same name has it
    Boundary("kernels", "entmac._kernels._fast:*", "tally", None, "compiled"),
    Boundary("stats", "entmac.stats:RunStats.from_two_valued"),
    Boundary("stats", "entmac.stats:RunStats.from_moments"),
    Boundary("stats", "entmac.stats:aggregate"),
)

@dataclass
class Span:
    id: int
    name: str
    layer: str
    role: str
    backend: str | None
    slots: int | None
    parent: int | None
    thread: int
    start: float
    end: float
    cpu_start: float
    cpu_end: float


def _entmac_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "entmac" or name.startswith("entmac."))]


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # boundaries that do not exist in this build
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, b: Boundary, slots_arg: int | None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            home = tracer._home
            parent = stack[-1] if stack else (home[-1] if home else None)
            sid = next(tracer._ids)
            stack.append(sid)
            slots = args[slots_arg] if slots_arg is not None and slots_arg < len(args) else None
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                tracer.spans.append(Span(sid, name, b.layer, b.role, b.backend, slots, parent,
                                         threading.get_ident(), t0, t1, cpu0, cpu1))

        wrapper.perfbench_span = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod in _entmac_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every boundary; the calling thread becomes the home thread."""
        self._local.stack = self._home
        pure_slots = {b.target.split(":")[1]: b.slots_arg for b in BOUNDARIES
                      if b.target.startswith("entmac._kernels.pure:")}
        for b in BOUNDARIES:
            module_name, attr = b.target.split(":")
            mod = _import(module_name)
            if attr == "*":
                if mod is None:
                    continue  # an optional module that is not built
                for key, fn in sorted(vars(mod).items()):
                    if not key.startswith("_") and callable(fn) and not isinstance(fn, type):
                        name = f"{b.backend}.{key}"
                        self._patch_everywhere(fn, self._wrap(fn, name, b, pure_slots.get(key)))
                continue
            owner, _, method = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if holder is None or (method not in vars(holder)):
                self.missing.append(b.target)
                continue
            name = f"{b.layer}.{attr}" if b.backend is None else f"{b.backend}.{attr}"
            if owner:
                raw = vars(holder)[method]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = self._wrap(fn, name, b, b.slots_arg)
                self._patches.append((holder, method, raw))
                setattr(holder, method,
                        classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            else:
                fn = vars(holder)[method]
                self._patch_everywhere(fn, self._wrap(fn, name, b, b.slots_arg))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @staticmethod
    def leftovers() -> list[str]:
        """Names in loaded entmac modules and classes that still hold a wrapper."""
        found = []
        for mod in _entmac_modules():
            for key, value in vars(mod).items():
                holders = [(f"{mod.__name__}.{key}", value)]
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    holders += [(f"{mod.__name__}.{key}.{k}", getattr(v, "__func__", v))
                                for k, v in vars(value).items()]
                found += [n for n, v in holders if hasattr(v, "perfbench_span")]
        return found

    @contextlib.contextmanager
    def root(self, name: str):
        """The span that every other span nests in; yields its id."""
        sid = next(self._ids)
        self._home.append(sid)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            self._home.pop()
            self.spans.append(Span(sid, name, "root", "", None, None, None,
                                   threading.get_ident(), t0, t1, cpu0, cpu1))


def span_dicts(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in sorted(spans, key=lambda s: s.start)]


def exclusive_times(spans: list[Span]) -> dict[int, float]:
    """Wall time of each span during which none of its children was open.

    Where spans of several threads are open at once and none has an open
    child, each gets an equal share of that time, so the results sum to
    the time any span was open: the root span's duration, when every span
    nests in it.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    share = {s.id: 0.0 for s in spans}
    open_children = {s.id: 0 for s in spans}
    is_open: set[int] = set()
    leaves: set[int] = set()
    last = None
    for t, starting, s in events:
        if last is not None and leaves:
            dt = (t - last) / len(leaves)
            for sid in leaves:
                share[sid] += dt
        last = t
        p = s.parent if s.parent in open_children else None
        if starting:
            is_open.add(s.id)
            if open_children[s.id] == 0:
                leaves.add(s.id)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(s.id)
            leaves.discard(s.id)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and p in is_open:
                    leaves.add(p)
    return share


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
