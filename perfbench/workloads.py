"""The benchmark's three workloads, built on filterlet's public API.

Each workload draws its inputs from the seed in ``draw``, turns them into
models, bundles and schedules in ``build``, then runs rounds of operations:
one round runs every operation kind once, in order.  Only ``build`` is timed
as set-up: it holds the program's calls, while ``draw`` is the benchmark's
own random generation.  Sizes stay fixed across seeds, so a seed changes
values (weights, gradients, masks, inputs, anneal chains, the fit's
train/held-out split) but not the amount of work, and timings from
different seeds are comparable.

Functions of the package are looked up through ``filterlet`` at call time,
so the tracer's wrappers see every call the benchmark makes.
"""

import time

import numpy as np

import filterlet as fl

FIRST_CHANNELS = 3   # the prune and infer chains start from an RGB-like input
ALPHA = 0.5          # share of filterlets pruned on infer-6L and price-4L
LANES = 4            # 3 channels on 4 lanes: layer 0 takes the predicated tail
FIT_TRAIN, FIT_HELDOUT = 10, 20
MAX_NMSE = 0.05      # held-out accuracy of the latency fit (criterion 4)


class Mismatch(Exception):
    """An operation returned a wrong result."""


def chain_specs(n_layers: int, first_channels: int, filters: int, side: int):
    """A sequential chain of 3x3 layers, valid padding, stride 1."""
    specs = []
    channels = first_channels
    for _ in range(n_layers):
        spec = fl.ConvLayerSpec(n_filters=filters, kernel_h=3, kernel_w=3,
                                channels=channels, input_h=side, input_w=side)
        specs.append(spec)
        channels, side = filters, spec.out_h
    return specs


def draw_chain(specs, rng):
    """Seeded int8 weights, biases and synthetic gradients of a chain."""
    weights, biases = [], []
    for spec in specs:
        weights.append(rng.integers(-100, 101, spec.weight_dims).astype(np.int8))
        biases.append(rng.integers(-5000, 5001, spec.n_filters).astype(np.int64))
    grads = [rng.normal(size=s.weight_dims) for s in specs]
    return {"specs": specs, "weights": weights, "biases": biases, "grads": grads}


def int8_model(chain, name: str) -> "fl.SequentialModel":
    """The drawn chain as a model; scales keep activations mid-range.

    Output scales are set so a layer with half its filterlets kept maps the
    accumulator's standard deviation to about 40 int8 codes.
    """
    layers = []
    x_std, in_scale, w_scale = 74.0, 0.05, 0.02
    for i, (spec, w, bias) in enumerate(zip(chain["specs"], chain["weights"],
                                            chain["biases"])):
        acc_std = np.sqrt(0.5 * spec.filterlets_per_filter * spec.channels) \
            * x_std * 58.0
        out_scale = in_scale * w_scale * acc_std / 40.0
        quant = fl.LayerQuant(input_scale=in_scale, weight_scale=w_scale,
                              output_scale=out_scale)
        layers.append(fl.LayerDef(f"conv{i}", spec, fl.Tensor.from_array(w),
                                  bias, quant))
        x_std, in_scale = 40.0, out_scale
    return fl.SequentialModel(name, layers)


def same_bundle(a, b) -> bool:
    return a.manifest() == b.manifest() and \
        [la.payload for la in a.layers] == [lb.payload for lb in b.layers]


class Workload:
    """One set of inputs and the closed loop of operations run on it."""

    name = ""
    why = ""
    kinds: tuple[str, ...] = ()

    def parts(self) -> dict:
        """Reported kind -> the operation kinds whose times add up to it."""
        return {k: (k,) for k in self.kinds}

    def draw(self, seed: int):
        """Untimed: the seeded arrays and generators the workload needs."""
        raise NotImplementedError

    def build(self, drawn):
        """Timed as set-up: the program calls that make the workload's state."""
        raise NotImplementedError

    def prepare(self, st, kind: str, i: int):
        """Untimed: fresh per-operation inputs and their reference result."""
        return None

    def run(self, st, kind: str, args):
        """Timed: the operation itself."""
        raise NotImplementedError

    def check(self, st, kind: str, args, out, i: int) -> None:
        """Untimed: raise Mismatch unless ``out`` is correct."""

    def facts(self, st) -> dict:
        """Deterministic counts taken from the operations' outputs."""
        return {}


# --------------------------------------------------------------------- prune

class Prune(Workload):
    name = "prune-6L"
    why = ("score_model + plan_and_pack (5000-step anneal) on a 6-layer int8 "
           "chain: scheduler, importance and costmodel, plus the FWCS write path")
    kinds = ("prune",)

    def __init__(self, layers=6, filters=16, side=24, iters=5000,
                 flash_share=0.55, dl_share=0.25):
        self.layers, self.filters, self.side = layers, filters, side
        self.iters = iters
        # flash must drop to this share of the dense prediction while the
        # loss change stays under this share of the total first-order score
        self.flash_share, self.dl_share = flash_share, dl_share

    def draw(self, seed):
        specs = chain_specs(self.layers, FIRST_CHANNELS, self.filters, self.side)
        return {"chain": draw_chain(specs, np.random.default_rng([seed, 0])),
                "seed": seed}

    def build(self, drawn):
        chain = drawn["chain"]
        specs = chain["specs"]
        model = int8_model(chain, "prune")
        grads = fl.GradientBundle(chain["grads"], provenance="synthetic")
        imp = fl.score_model(model, grads)
        zeros = [0.0] * len(specs)
        budget = fl.Budget(
            mem_flash=int(self.flash_share * fl.model_size(specs, zeros)),
            # the dense peak: pruning never raises it, so RAM never binds
            mem_ram=fl.runtime_memory(specs, zeros),
            dl_max=self.dl_share * sum(float(s.sum()) for s in imp.scores))
        latency = fl.LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=LANES)
        return {"model": model, "grads": grads, "budget": budget,
                "latency": latency, "seed": drawn["seed"], "first": None}

    def prepare(self, st, kind, i):
        return int(np.random.SeedSequence([st["seed"], i]).generate_state(1)[0])

    def run(self, st, kind, anneal_seed):
        model = st["model"]
        imp = fl.score_model(model, st["grads"])
        problem = fl.ScheduleProblem(model.specs, imp, st["budget"], st["latency"])
        bundle, result = fl.plan_and_pack(problem, model, seed=anneal_seed,
                                          iters=self.iters)
        blob = bundle.to_bytes() if bundle is not None else None
        return bundle, result, blob

    def check(self, st, kind, args, out, i):
        bundle, result, blob = out
        if not result.feasible or bundle is None:
            raise Mismatch(f"infeasible strategy: {result.violations}")
        if not same_bundle(fl.ModelBundle.from_bytes(blob), bundle):
            raise Mismatch("bundle does not round-trip through to_bytes/from_bytes")
        if st["first"] is None:
            rows = result.trace[1:]
            budget = st["budget"]
            st["first"] = {
                "scheduler.pred_flash_bytes": result.predicted_size,
                "bundle.payload_bytes": bundle.payload_bytes(),
                "scheduler.feasible_ratio":
                    sum(r.feasible for r in rows) / len(rows),
                "scheduler.flash_slack":
                    1.0 - result.predicted_size / budget.mem_flash,
                "scheduler.dl_slack": 1.0 - result.predicted_dl / budget.dl_max,
            }

    def facts(self, st):
        return dict(st["first"] or {})


# --------------------------------------------------------------------- infer

class Infer(Workload):
    name = "infer-6L"
    why = ("from_bytes + run_bundle on fresh inputs, round-robin over FWCS "
           "default/reordered, CSR and dense: convops, patch_matrix and the read path")
    kinds = ("infer_fwcs_default", "infer_fwcs_reordered", "infer_csr",
             "infer_dense")

    def __init__(self, layers=6, filters=16, side=24):
        self.layers, self.filters, self.side = layers, filters, side

    def draw(self, seed):
        specs = chain_specs(self.layers, FIRST_CHANNELS, self.filters, self.side)
        return {"chain": draw_chain(specs, np.random.default_rng([seed, 1])),
                "inputs": np.random.default_rng([seed, 2])}

    def build(self, drawn):
        chain = drawn["chain"]
        model = int8_model(chain, "infer")
        grads = fl.GradientBundle(chain["grads"], provenance="synthetic")
        imp = fl.score_model(model, grads)
        masks = fl.build_mask(imp, [ALPHA] * len(chain["specs"]))
        zeroed = fl.SequentialModel(model.name, [
            fl.LayerDef(l.name, l.spec, fl.apply_mask_zeroing(l.weights, m),
                        l.bias, l.quant)
            for l, m in zip(model.layers, masks)])
        reference = fl.bundle_from_model(zeroed)
        fwcs = fl.bundle_from_masks(model, masks, fmt="fwcs").to_bytes()
        csr = fl.bundle_from_masks(model, masks, fmt="csr").to_bytes()
        blobs = {"infer_fwcs_default": fwcs, "infer_fwcs_reordered": fwcs,
                 "infer_csr": csr, "infer_dense": reference.to_bytes()}
        return {"reference": reference, "blobs": blobs,
                "input_dims": chain["specs"][0].input_dims,
                "inputs": drawn["inputs"], "lanes": fl.LaneConfig(lanes=LANES)}

    def prepare(self, st, kind, i):
        x = fl.Tensor.from_array(st["inputs"].integers(
            -128, 128, st["input_dims"]).astype(np.int8))
        return x, fl.run_bundle(st["reference"], x).output

    def run(self, st, kind, args):
        x, _ = args
        schedule = fl.ComputeSchedule.DEFAULT if kind == "infer_fwcs_default" \
            else fl.ComputeSchedule.REORDERED
        bundle = fl.ModelBundle.from_bytes(st["blobs"][kind])
        return fl.run_bundle(bundle, x, schedule, st["lanes"])

    def check(self, st, kind, args, out, i):
        _, ref = args
        if out.output.dims != ref.dims or \
                not np.array_equal(out.output.data, ref.data):
            raise Mismatch(f"{kind}: int8 output differs from the dense reference")


# --------------------------------------------------------------------- price

def fit_geometries(n: int):
    """Fixed (spec, alpha) pool for the latency fit, the same for every seed.

    Drawn like the samples of acceptance criterion 4; only the seed-chosen
    train/held-out split and masks vary, so the simulated work is constant.
    """
    rng = np.random.default_rng(1004)
    out = []
    for _ in range(n):
        kh, kw = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        spec = fl.ConvLayerSpec(
            n_filters=int(rng.integers(3, 13)), kernel_h=kh, kernel_w=kw,
            channels=int(rng.integers(4, 25)),
            input_h=int(rng.integers(kh + 4, 13)),
            input_w=int(rng.integers(kw + 4, 13)))
        out.append((spec, float(rng.uniform(0.05, 0.85))))
    return out


def draw_layer(spec, alpha, rng):
    """Random int8 weights and a random kept-filterlet subset of one layer."""
    total = spec.n_filters * spec.filterlets_per_filter
    kept = np.zeros(total, bool)
    kept[rng.choice(total, fl.fwcs.kept_count(total, alpha), replace=False)] = True
    w = rng.integers(-100, 101, spec.weight_dims).astype(np.int8)
    return w, kept.reshape(spec.n_filters, -1)


def encode_layer(spec, drawn_layer):
    w, kept = drawn_layer
    return fl.encode_fwcs(fl.Tensor.from_array(w), fl.FilterletMask(spec, kept))


_STREAM_KINDS = {"ldv": "vector_loads", "lds": "scalar_loads", "macv": "macs",
                 "macs": "macs"}
SCHEDULES = (fl.ComputeSchedule.DEFAULT, fl.ComputeSchedule.REORDERED)


class Price(Workload):
    """Pricing, one ``layer_cycles`` call per operation.

    A chain is priced one layer per operation, and the fit's samples are
    simulated one per operation before the fit itself, so operations last
    well under a second and a run holds several samples of each; the
    reported kinds add their parts back up.
    """

    name = "price-4L"
    why = ("layer_cycles under both schedules on a 4-layer chain, then a latency "
           "fit on 10 simulated layers checked on 20 held out: cyclesim and costmodel")

    def __init__(self, layers=4, filters=16, side=14):
        self.layers, self.filters, self.side = layers, filters, side
        self._parts = {f"price_{s.value}": tuple(
            f"price_{s.value}/conv{k}" for k in range(layers)) for s in SCHEDULES}
        self._parts["fit"] = tuple(
            f"fit/sim{j:02d}" for j in range(FIT_TRAIN + FIT_HELDOUT)) + ("fit/fit",)
        self.kinds = tuple(k for parts in self._parts.values() for k in parts)

    def parts(self):
        return self._parts

    def draw(self, seed):
        specs = chain_specs(self.layers, self.filters, self.filters, self.side)
        rng = np.random.default_rng([seed, 3])
        chain = [draw_layer(s, ALPHA, rng) for s in specs]
        pool = fit_geometries(FIT_TRAIN + FIT_HELDOUT)
        samples = [(s, a, draw_layer(s, a, rng)) for s, a in pool]
        order = rng.permutation(len(samples))
        return {"specs": specs, "chain": chain,
                "samples": [samples[k] for k in order]}

    def build(self, drawn):
        specs = drawn["specs"]
        chain = [encode_layer(s, d) for s, d in zip(specs, drawn["chain"])]
        samples = [(s, a, encode_layer(s, d)) for s, a, d in drawn["samples"]]
        # operation kind -> (layer, spec, schedule) it simulates
        sims = {f"price_{sched.value}/conv{k}": (layer, spec, sched)
                for sched in SCHEDULES
                for k, (layer, spec) in enumerate(zip(chain, specs))}
        for j, (spec, _, layer) in enumerate(samples):
            sims[f"fit/sim{j:02d}"] = (layer, spec, fl.ComputeSchedule.REORDERED)
        return {"specs": specs, "samples": samples, "sims": sims,
                "cfg": fl.MachineConfig(), "cycles": {}, "streams": {},
                "nmse": None, "params": None}

    def run(self, st, kind, args):
        cfg = st["cfg"]
        if kind != "fit/fit":
            layer, spec, schedule = st["sims"][kind]
            return fl.layer_cycles(layer, spec, schedule, cfg)
        rows = [(spec, a, st["cycles"][f"fit/sim{j:02d}"])
                for j, (spec, a, _) in enumerate(st["samples"])]
        train, held = rows[:FIT_TRAIN], rows[FIT_TRAIN:]
        params, _ = fl.fit_latency_params(train, lanes=cfg.lanes)
        pred = [fl.layer_latency(spec, a, params) for spec, a, _ in held]
        return params, fl.normalized_mse([c for *_, c in held], pred)

    def check(self, st, kind, args, out, i):
        if kind == "fit/fit":
            params, nmse = out
            if not nmse <= MAX_NMSE:
                raise Mismatch(f"held-out NMSE {nmse:.4f} > {MAX_NMSE}")
            st["nmse"], st["params"] = nmse, params
            return
        if kind in st["cycles"]:
            if out != st["cycles"][kind]:
                raise Mismatch(f"{kind}: cycles changed between rounds")
            return
        if kind.startswith("price_"):
            layer, spec, schedule = st["sims"][kind]
            got = dict.fromkeys(("macs", "vector_loads", "scalar_loads"), 0)
            stream = fl.lower_schedule(layer, spec, schedule, st["cfg"])
            for ins in stream:
                got[_STREAM_KINDS[ins.kind]] += 1
            want = fl.cyclesim.schedule_counts(layer, spec, schedule, st["cfg"])
            if got != want:
                raise Mismatch(
                    f"{kind}: lowered stream {got} != schedule_counts {want}")
            st["streams"][kind] = (len(stream), got["macs"])
        st["cycles"][kind] = out

    def facts(self, st):
        cfg = st["cfg"]
        out = {}
        post = sum(s.n_filters * s.out_positions * cfg.post_cycles
                   for s in st["specs"])
        for sched in SCHEDULES:
            kinds = self._parts[f"price_{sched.value}"]
            if not all(k in st["streams"] for k in kinds):
                continue
            cycles = [st["cycles"][k] for k in kinds]
            stream_cycles = sum(cycles) - post
            instr = sum(st["streams"][k][0] for k in kinds)
            alu = sum(st["streams"][k][1] for k in kinds) * cfg.vec_instr_cycles
            out[f"cyclesim.cycles.{sched.value}"] = sum(cycles)
            for k, c in enumerate(cycles):
                out[f"cyclesim.cycles.{sched.value}.conv{k}"] = c
            out[f"cyclesim.ipc.{sched.value}"] = instr / stream_cycles
            out[f"cyclesim.alu_busy_ratio.{sched.value}"] = alu / stream_cycles
        if st["nmse"] is not None:
            out["costmodel.fit_heldout_nmse"] = st["nmse"]
            for k, spec in enumerate(st["specs"]):
                c = st["cycles"].get(f"price_reordered/conv{k}")
                if c is not None:
                    pred = fl.layer_latency(spec, ALPHA, st["params"])
                    out[f"costmodel.pred_error.conv{k}"] = abs(pred / c - 1.0)
        return out


WORKLOADS = {w.name: w for w in (Prune(), Infer(), Price())}


def toy_workloads() -> dict:
    """Toy-size versions of every workload, for the benchmark's smoke test."""
    return {
        "prune-6L": Prune(layers=2, filters=4, side=8, iters=50),
        "infer-6L": Infer(layers=2, filters=4, side=8),
        "price-4L": Price(layers=2, filters=4, side=6),
    }


# ----------------------------------------------------------------- reference

_REF_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8)
_REF_CODES = np.arange(300).astype(np.int8)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy calls.

    It uses no filterlet code, so only the host's speed moves it.  It lasts
    a few milliseconds, about as long as one CSR inference.
    """
    t0 = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(700):
        prod = _REF_MATRIX @ _REF_MATRIX
        total = int(_REF_CODES.astype(np.int32).sum())
        seen[i % 17] = int(prod[i % 8, 3]) + acc + total
        acc = (acc + seen[i % 17]) % 1000003
    return time.perf_counter() - t0
