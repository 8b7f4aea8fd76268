"""In-memory span tracer that wraps epturbo functions from outside the package.

A span is one call of a wrapped function: (id, name, parent id, start,
end, info).  Spans stay in memory and are written out once, at the end of
a run.  `info` holds counts taken from the call's arguments and result by
an optional `on_call(args, kwargs, result)` hook; the time and page
faults the hook takes are charged to no span, so they never show up as
some layer's cost.

Wrapping is by name, from outside: a module-level function is replaced in
every loaded `epturbo` module that holds it under any name, because a
module that did `from .x import f` keeps its own reference to `f`.  Calls
made inside the defining module look `f` up in that module's globals and
so reach the wrapper too, as do function-local imports, which read the
module attribute at call time.  Methods are replaced on their class.
"""

import json
import resource
import sys
import time
from contextlib import contextmanager

PACKAGE = "epturbo"

# span fields
ID, NAME, PARENT, START, END, INFO, HIDDEN = range(7)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """Collects spans while `enabled`; wrappers cost one flag test when off."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.enabled = False
        self.minor_faults = 0
        self._hook_faults = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [len(self.spans), name, self.stack[-1] if self.stack else -1,
               self.clock(), None, None, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[ID])
        return rec

    def _close(self, rec):
        rec[END] = self.clock()
        self.stack.pop()

    @contextmanager
    def tracing(self):
        """Record spans inside the block and add its minor page faults,
        less those of the hooks, to `minor_faults`."""
        before = _minor_faults() - self._hook_faults
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.minor_faults += _minor_faults() - self._hook_faults - before

    def call(self, name, fn, args, kwargs, on_call=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if on_call is not None:
            t0, f0 = self.clock(), _minor_faults()
            rec[INFO] = on_call(args, kwargs, out)
            self._hook_faults += _minor_faults() - f0
            if self.stack:
                # keep the hook's own work out of the caller's self time
                self.spans[self.stack[-1]][HIDDEN] += self.clock() - t0
        return out

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_call)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, target, name, on_call=None):
        """Wrap `module:func` or `module:Class.method` at every import site.

        Returns the number of places the wrapper was installed; raises if
        the target does not exist.
        """
        mod_name, attr = target.split(":")
        module = sys.modules.get(mod_name) or __import__(mod_name, fromlist=["_"])
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self.wrap(raw.__func__, name, on_call))
            else:
                new = self.wrap(raw, name, on_call)
            setattr(owner, meth, new)
            self._restore.append((owner, meth, raw))
            return 1
        orig = getattr(module, attr)
        wrapper = self.wrap(orig, name, on_call)
        sites = 0
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == PACKAGE
                                   or mname.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))
                    sites += 1
        return sites

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "start", "end",
                                  "info"],
                       "spans": [s[:HIDDEN] for s in self.spans]}, fh)


def self_times(spans):
    """Per-span self time: duration minus its children's and hook time."""
    out = [s[END] - s[START] - s[HIDDEN] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def children(spans):
    """Child span ids of every span, in call order."""
    kids = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(s[ID])
    return kids

