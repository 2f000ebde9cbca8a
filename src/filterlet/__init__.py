"""Filterlet-granular CNN pruning toolkit for MCU-class deployment.

Prunes convolution layers one filterlet (all channels at one kernel
position) at a time, stores the survivors in a compressed four-array
format, executes them with lane-parallel sparse operators, prices the
result with a dual-unit cycle simulator, and searches per-layer pruning
fractions under accuracy, flash, and SRAM budgets.
"""

from .bundle import ModelBundle, RunResult, bundle_from_masks, \
    bundle_from_model, gradients_from_bundle, model_from_bundle, run_bundle
from .convops import conv_csr, conv_dense, conv_fwcs
from .costmodel import Budget, LatencyParams, StrategyVector, \
    fit_latency_params, layer_latency, model_size, normalized_mse, \
    runtime_memory, total_time
from .cyclesim import ComputeSchedule, CycleTrace, Instruction, LayerStream, \
    MachineConfig, layer_cycles, layer_stream, lower_schedule, simulate
from .errors import FilterletError
from .fwcs import CsrLayer, FilterletMask, FwcsLayer, decode_csr, decode_fwcs, \
    encode_csr, encode_fwcs, storage_footprint
from .importance import GradientBundle, ImportanceMap, apply_mask_zeroing, \
    build_mask, delta_loss, finite_diff_gradient, model_loss, score_model, \
    taylor_score
from .model import LayerDef, LayerQuant, SequentialModel, forward_float64
from .scheduler import ScheduleProblem, ScheduleResult, anneal, feasible, \
    plan_and_pack
from .tensor import ConvLayerSpec, QuantParams, Tensor, dequantize, \
    extract_patch, flat_index, quantize, read_tensor, write_tensor

# former name of the vector-unit config, still used by the benchmark harness
LaneConfig = MachineConfig

__version__ = "0.1.0"
