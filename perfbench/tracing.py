"""Span tracing of calls into specdiff, installed from outside the package.

A :class:`Tracer` replaces public functions of the traced modules with
wrappers that record one span per call: name, start, end, parent span, the
case id the benchmark set, and whether the call raised.  Spans live in
compact in-memory arrays until :meth:`Tracer.write` saves them.  Because
modules also hold functions they imported by name (``scattering`` imports
``count_below``, ``acceptance`` imports ``run_experiment``), every
``specdiff`` module attribute bound to a wrapped function is patched, and
:meth:`Tracer.restore` puts every patched attribute back.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.case_id = 0
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, namer=None, observer=None):
        """A wrapper recording a span named ``name`` (or ``namer(args,
        kwargs)``) per call; ``observer(tracer, args, kwargs, result)`` runs
        after a call returns, outside the span."""
        fixed_id = self._intern(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if namer is None else self._intern(namer(args, kwargs))
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.case.append(self.case_id)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                stack.pop()
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return traced

    # --- installing and restoring ------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules, skip=(), namers=None, observers=None) -> None:
        """Wrap every public function each module defines (except ``skip``,
        given as ``module.function``) and patch every loaded ``specdiff``
        module that binds it under any name."""
        namers = namers or {}
        observers = observers or {}
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in skip
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[fn] = self.wrap(name, fn, namers.get(name),
                                        observers.get(name))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "specdiff"
                                   or mod_name.startswith("specdiff.")):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

    def install_sequence(self, module, attr: str, prefix: str) -> None:
        """Wrap the functions held in a tuple attribute (such as
        ``acceptance.CRITERIA``), naming each span ``prefix + fn.__name__``."""
        funcs = getattr(module, attr)
        self._set(module, attr, tuple(
            self.wrap(f"{prefix}{fn.__name__}", fn) for fn in funcs))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- output --------------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays, plus each span's self time (its
        duration minus the durations of its direct children)."""
        import numpy as np
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "case": np.array(self.case, dtype=np.int32),
            "raised": np.array(self.raised, dtype=np.int8),
            "start": start,
            "end": end,
            "duration": dur,
            "self_time": dur - child_time,
        }

    def write(self, path) -> None:
        import numpy as np
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: v for k, v in spans.items() if k not in ("duration", "self_time")})
