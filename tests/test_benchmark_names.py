"""Every filterlet name the benchmark harness in ``perfbench/`` uses resolves,
so a deletion that would break the benchmark fails here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

import filterlet
from filterlet import cyclesim
from filterlet.cyclesim import ComputeSchedule, MachineConfig, layer_stream
from filterlet.fwcs import FilterletMask, encode_csr, encode_fwcs
from filterlet.tensor import ConvLayerSpec, Tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def resolve(owner, dotted):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for layer, path in tracer.TRACED:
        module = importlib.import_module(f"filterlet.{layer}")
        assert callable(resolve(module, path)), (layer, path)


def test_every_name_the_workloads_read_resolves():
    # every ``fl.a.b`` attribute chain in the workloads, prefixes included
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    paths = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "fl":
            paths.add(".".join(reversed(parts)))
    assert "layer_cycles" in paths
    for path in sorted(paths):
        resolve(filterlet, path)


def test_aliases_equal_their_layer_stream_calls():
    rng = np.random.default_rng(0)
    spec = ConvLayerSpec(n_filters=3, kernel_h=2, kernel_w=2, channels=5,
                         input_h=5, input_w=4)
    w = Tensor.from_array(rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
    mask = FilterletMask(spec, rng.random((3, 4)) < 0.6)
    fw = encode_fwcs(w, mask)
    cs = encode_csr(w, mask.to_weight_mask())
    cfg = MachineConfig(lanes=2, register_count=5)
    for schedule in ComputeSchedule:
        stream = layer_stream(fw, spec, schedule, cfg)
        assert cyclesim.lower_schedule(fw, spec, schedule, cfg) == stream.expand()
        assert cyclesim.schedule_counts(fw, spec, schedule, cfg) == stream.counts()
        assert cyclesim.layer_cycles(fw, spec, schedule, cfg) == stream.cycles()
    assert cyclesim.csr_counts(cs, spec) == \
        layer_stream(cs, spec, ComputeSchedule.DEFAULT, MachineConfig()).counts()
