"""Span tracing of filterlet's public functions, installed from outside the package.

Each traced function is replaced, in every filterlet module (and class) that
holds a reference to it, by a wrapper that records one span: name, start,
end, parent span and operation id.  Self time is a span's duration minus the
time its child spans cover; calls are single-threaded and properly nested, so
the covered time is the sum of the children's durations.

Spans are kept in memory as flat integer records and written out once, when
the benchmark ends.  Wrappers are installed only around traced operations, so
untraced operations in the same process run the unmodified code.
"""

import functools
import gzip
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer, attribute path) of every public function the operations call.  A
# dotted path names a method on a class of that module.
TRACED = (
    ("tensor", "patch_matrix"),
    ("fwcs", "encode_fwcs"), ("fwcs", "decode_fwcs"),
    ("fwcs", "read_fwcs"), ("fwcs", "write_fwcs"),
    ("fwcs", "decode_csr"), ("fwcs", "read_csr"),
    ("importance", "score_model"), ("importance", "build_mask"),
    ("importance", "delta_loss"),
    ("convops", "conv_dense"), ("convops", "conv_fwcs"),
    ("convops", "conv_fwcs_reordered"), ("convops", "conv_csr"),
    ("cyclesim", "lower_schedule"), ("cyclesim", "simulate"),
    ("cyclesim", "schedule_counts"), ("cyclesim", "csr_counts"),
    ("cyclesim", "layer_cycles"),
    ("costmodel", "model_size"), ("costmodel", "runtime_memory"),
    ("costmodel", "total_time"), ("costmodel", "layer_latency"),
    ("costmodel", "fit_latency_params"), ("costmodel", "normalized_mse"),
    ("scheduler", "evaluate"), ("scheduler", "anneal"),
    ("scheduler", "plan_and_pack"),
    ("bundle", "ModelBundle.from_bytes"), ("bundle", "ModelBundle.to_bytes"),
    ("bundle", "BundleLayer.decode_weights"), ("bundle", "bundle_from_masks"),
    ("bundle", "run_bundle"),
)

_MODULES = ("tensor", "fwcs", "importance", "convops", "cyclesim",
            "costmodel", "scheduler", "bundle", "model", "cli")


def _conv_macs(args, kwargs, out) -> int:
    """Host multiply-accumulates of one operator call: stored weights x positions."""
    weights, spec = args[1], args[2]
    stored = weights.nelems if hasattr(weights, "nelems") else weights.arr.size
    return stored * spec.out_positions


# counters taken at a traced boundary from the call's arguments or result
COUNTERS = {
    "convops.conv_dense": ("convops.macs", _conv_macs),
    "convops.conv_fwcs": ("convops.macs", _conv_macs),
    "convops.conv_fwcs_reordered": ("convops.macs", _conv_macs),
    "convops.conv_csr": ("convops.macs", _conv_macs),
    "cyclesim.simulate": ("cyclesim.instructions",
                          lambda args, kwargs, out: len(out.ops)),
}

# span record layout: index, name id, start ns, end ns, parent index, op id
FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op")


class Tracer:
    """Collects spans and per-name self time, calls and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # [index, name id, start, child ns]
        self._next = 0
        self._op = -1
        self._patches = self._build_patches()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> None:
        self._stack.append([self._next, name_id, time.perf_counter_ns(), 0])
        self._next += 1

    def _close(self) -> None:
        end = time.perf_counter_ns()
        idx, name_id, start, child = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        name = self.names[name_id]
        self.self_ns[name] += dur - child
        self.total_ns[name] += dur
        self.calls[name] += 1
        self.records.extend((idx, name_id, start, end, parent, self._op))

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def _build_patches(self):
        """(owner, attribute, original, replacement) for every reference."""
        pkg = importlib.import_module("filterlet")
        modules = [pkg] + [importlib.import_module(f"filterlet.{m}")
                           for m in _MODULES]
        patches = []
        for layer, path in TRACED:
            mod = importlib.import_module(f"filterlet.{layer}")
            name = f"{layer}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                patches.append((cls, attr, raw, new))
                continue
            fn = getattr(mod, path)
            new = self._wrap(name, fn)
            for owner in modules:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        patches.append((owner, attr, fn, new))
        return patches

    @contextmanager
    def op(self, kind: str, op_id: int):
        """Trace one benchmark operation: a root span plus every layer call."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self._op = op_id
        self._open(self._name_id(f"bench.{kind}"))
        try:
            yield
        finally:
            self._close()
            self._op = -1
            for owner, attr, old, _ in self._patches:
                setattr(owner, attr, old)

    @property
    def n_spans(self) -> int:
        return len(self.records) // len(FIELDS)

    def write(self, path, header: str) -> None:
        """Write every span as one CSV row, gzip-compressed, after a header line."""
        rec = self.records
        n = len(FIELDS)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write(header + "\n")
            f.write(",".join(FIELDS) + "\n")
            for i in range(0, len(rec), n):
                idx, name_id, start, end, parent, op = rec[i:i + n]
                f.write(f"{idx},{self.names[name_id]},{start},{end},{parent},{op}\n")
