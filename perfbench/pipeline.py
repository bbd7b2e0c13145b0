"""kml_pipeline: the KML training and inference paths, without storage.

It replays the committed Table-2 feature windows.  Each op takes the
next window, in a seeded shuffle order, through the section-3.2
training path -- push it into a CircularBuffer, pop it, Z-score it and
run one float32 SGD step (lr 0.01, momentum 0.99) on a network with
seeded initial weights -- and then classifies it with the deployed
model as a single row, in float32 and in fixed32.  After the ops, one
full ``ReadaheadClassifier.fit`` runs on all windows.

``kml`` is close to 0% of both storage workloads, because an agent tick
comes only once per 0.1 simulated seconds; an inference or training
speed-up needs a workload where ``kml`` does nearly all the work.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import time
from array import array
from typing import Dict, List

import numpy as np

from repro.kml import CrossEntropyLoss, Linear, SGD, Sequential, Sigmoid
from repro.kml.matrix import Matrix
from repro.readahead.model import (
    LEARNING_RATE,
    MOMENTUM,
    ReadaheadClassifier,
    build_network,
)
from repro.runtime.circular_buffer import CircularBuffer
from repro.stats.zscore import ZScoreNormalizer

from . import inputs
from .common import (
    Result,
    digest,
    timed_setups,
    ops_for,
    out_path,
    peak_rss_mib,
    slices_for,
    SETUP_REPEATS,
    TRACE_MAX_SECONDS,
)
from .layers import Instrumented, span_report
from .percentiles import fast_mode, percentile, sliced_op_wall_us, summarize
from .spans import Tracer

NAME = "kml_pipeline"
#: Timed ops per --seconds, sized on a 2-vCPU x86 VM (the fit comes on top).
OPS_PER_SECOND = 1300
WARMUP_OPS = 100
#: A set-up takes tens of milliseconds, so it repeats this many times
#: more than a storage set-up for a steadier median.
SETUP_REPEAT_FACTOR = 5
BUFFER_CAPACITY = 64
#: Training accuracy one full fit must reach on the committed windows.
FIT_ACCURACY_FLOOR = 0.85


def oracle_classes(model: Sequential, x) -> np.ndarray:
    """Argmax of a plain-numpy float64 forward pass of ``model``."""
    out = np.asarray(x, dtype=np.float64)
    for layer in model.layers:
        if isinstance(layer, Linear):
            out = out @ layer.weight.value.to_numpy() + layer.bias.value.to_numpy()
        elif isinstance(layer, Sigmoid):
            with np.errstate(over="ignore"):
                out = 1.0 / (1.0 + np.exp(-out))
        else:
            raise ValueError(f"the oracle has no rule for {type(layer).__name__}")
    return np.argmax(out, axis=1)


def with_dtype(model: Sequential, dtype: str) -> Sequential:
    """A copy of a Linear/Sigmoid chain with its weights in ``dtype``."""
    copy = Sequential(name=f"{model.name}-{dtype}")
    for layer in model.layers:
        if isinstance(layer, Linear):
            linear = Linear(
                layer.in_features,
                layer.out_features,
                dtype=dtype,
                rng=np.random.default_rng(0),
                name=layer.name,
            )
            linear.weight.value = Matrix(layer.weight.value.to_numpy(), dtype=dtype)
            linear.bias.value = Matrix(layer.bias.value.to_numpy(), dtype=dtype)
            copy.add(linear)
        else:
            copy.add(layer)
    return copy


def _weights_sha256(network: Sequential) -> str:
    h = hashlib.sha256()
    for param in network.parameters():
        h.update(param.value.raw.tobytes())
    return h.hexdigest()


class PipelineEnv:
    """The committed inputs, the deployed model in float32 and fixed32,
    and a seeded network for the training path, warmed up."""

    def __init__(self, seed: int):
        model, x, y = inputs.load_pipeline_inputs()
        init_seq, order_seq, fit_seq = np.random.SeedSequence(seed).spawn(3)
        self.model = model
        self.model_fixed = with_dtype(model, "fixed32")
        self.x, self.y = x, y
        self.oracle = oracle_classes(model, x)
        self.network = build_network(rng=np.random.default_rng(init_seq))
        self.optimizer = SGD(
            self.network.parameters(), lr=LEARNING_RATE, momentum=MOMENTUM
        )
        self.loss_fn = CrossEntropyLoss()
        self.normalizer = ZScoreNormalizer().fit(x)
        self.buffer = CircularBuffer(BUFFER_CAPACITY)
        self.order_rng = np.random.default_rng(order_seq)
        self.fit_seq = fit_seq
        self._order: List[int] = []
        #: per window: fixed32 argmax equals the oracle's (1), not (0), unseen (-1)
        self.agreement = np.full(len(x), -1, dtype=np.int8)
        self.mismatches = 0
        self.first_mismatch = ""
        self.reset_timings()
        for _ in range(WARMUP_OPS):
            self.step()
        self.reset_timings()

    def reset_timings(self) -> None:
        self.train_ns = array("q")
        self.infer_ns = array("q")
        self.fixed_ns = array("q")

    def step(self) -> None:
        """One op: the training path for the next window, then inference."""
        if not self._order:
            self._order = self.order_rng.permutation(len(self.x)).tolist()
        i = self._order.pop()
        row = self.x[i : i + 1]
        clock = time.perf_counter_ns
        self.buffer.push(row)
        sample = self.buffer.pop()
        features = Matrix(self.normalizer.transform(sample), dtype="float32")
        t0 = clock()
        loss = self.network.train_step(
            features, self.y[i : i + 1], self.loss_fn, self.optimizer
        )
        t1 = clock()
        predicted = int(self.model.predict_classes(row)[0])
        t2 = clock()
        predicted_fixed = int(self.model_fixed.predict_classes(row, dtype="fixed32")[0])
        t3 = clock()
        self.train_ns.append(t1 - t0)
        self.infer_ns.append(t2 - t1)
        self.fixed_ns.append(t3 - t2)
        if predicted != self.oracle[i]:
            self._mismatch(f"window {i}: float32 class {predicted} != oracle {self.oracle[i]}")
        if not math.isfinite(loss):
            self._mismatch(f"window {i}: training loss {loss}")
        agree = int(predicted_fixed == self.oracle[i])
        if self.agreement[i] >= 0 and self.agreement[i] != agree:
            self._mismatch(f"window {i}: fixed32 changed its class for the same input")
        self.agreement[i] = agree

    def fit(self):
        """One full fit; returns (seconds, training accuracy, classifier)."""
        classifier = ReadaheadClassifier(rng=np.random.default_rng(self.fit_seq))
        start = time.perf_counter()
        classifier.fit(self.x, self.y)
        seconds = time.perf_counter() - start
        return seconds, classifier.accuracy(self.x, self.y), classifier

    def _mismatch(self, message: str) -> None:
        self.mismatches += 1
        if not self.first_mismatch:
            self.first_mismatch = message


@dataclasses.dataclass
class Phase:
    ops: int
    end_ns: int
    op_start_ns: array
    op_ns: array
    fit_s: float
    fit_accuracy: float
    record: dict


def timed_phase(env: PipelineEnv, n_ops: int) -> Phase:
    op_start_ns = array("q")
    op_ns = array("q")
    clock = time.perf_counter_ns
    gc.collect()
    for _ in range(n_ops):
        t = clock()
        env.step()
        op_ns.append(clock() - t)
        op_start_ns.append(t)
    end = clock()
    fit_s, accuracy, classifier = env.fit()
    record = {
        "workload": NAME,
        "ops": n_ops,
        "agreement": env.agreement.tolist(),
        "trained_weights_sha256": _weights_sha256(env.network),
        "fitted_weights_sha256": _weights_sha256(classifier.network),
        "fit_accuracy": accuracy,
        "buffer": [env.buffer.pushed, env.buffer.popped, env.buffer.dropped],
    }
    return Phase(n_ops, end, op_start_ns, op_ns, fit_s, accuracy, record)


def figures(env: PipelineEnv, phase: Phase) -> Dict[str, float]:
    """The pipeline's own end-to-end figures (printed, and per-layer)."""
    seen = env.agreement[env.agreement >= 0]
    return {
        "infer_us.p50": percentile(env.infer_ns, "50") / 1e3,
        "infer_us.p99": percentile(env.infer_ns, "99") / 1e3,
        "infer_fixed32_us.p50": percentile(env.fixed_ns, "50") / 1e3,
        "train_step_us.p50": percentile(env.train_ns, "50") / 1e3,
        "fit_s": phase.fit_s,
        "fixed32_agreement": float(seen.mean()),
    }


_UNITS = {
    "infer_us.p50": ("us", "float32 single-row predict_classes"),
    "infer_us.p99": ("us", "float32 single-row predict_classes"),
    "infer_fixed32_us.p50": ("us", "the same call in fixed32"),
    "train_step_us.p50": ("us", "one float32 SGD step on one window"),
    "fit_s": ("s", "one full ReadaheadClassifier.fit"),
    "fixed32_agreement": ("ratio", "windows whose fixed32 class equals the float64 oracle's"),
}


def check(result: Result, env: PipelineEnv, phase: Phase) -> None:
    result.attempted += phase.ops
    if env.mismatches:
        result.fail(
            f"{env.mismatches} pipeline checks failed; first: {env.first_mismatch}",
            env.mismatches,
        )
    result.check(
        phase.fit_accuracy >= FIT_ACCURACY_FLOOR,
        f"fit accuracy {phase.fit_accuracy:.3f} is below {FIT_ACCURACY_FLOOR}",
    )


def run(seed: int, seconds: float, trace: bool) -> Result:
    if trace:
        seconds = min(seconds, TRACE_MAX_SECONDS)
    n_ops = ops_for(seconds, OPS_PER_SECOND)
    result = Result(NAME, seed)
    repeats = SETUP_REPEATS * SETUP_REPEAT_FACTOR

    def build():
        return PipelineEnv(seed)

    env, setups = timed_setups(build, 1 if trace else repeats)
    double = with_dtype(env.model, "float64").predict_classes(env.x, dtype="float64")
    disagree = int(np.sum(double != env.oracle))
    result.check(disagree == 0, f"float64 KML disagrees with the numpy oracle on {disagree} windows")
    phase = timed_phase(env, n_ops)
    check(result, env, phase)
    result.ops = phase.ops
    result.digest = digest(phase.record)

    pipeline = figures(env, phase)
    buffer_dropped = env.buffer.dropped
    env = None  # free the set-up before the next one
    rss_mib = peak_rss_mib()  # before the set-ups below fragment the heap
    if not trace:
        setups += timed_setups(build, repeats)[1]
    tail = summarize(phase.op_ns, scale=1e-3)
    result.end_to_end = sliced_op_wall_us(
        phase.op_start_ns, phase.op_ns, phase.end_ns, slices_for(phase.ops)
    )
    result.end_to_end.update({"setup_s": fast_mode(setups), "peak_rss_mib": rss_mib})
    result.extra = [
        (
            "op_wall_us.p99",
            result.end_to_end.pop("op_wall_us.p99"),
            "us",
            "of the fast cluster of slices; printed, not bounded",
        ),
        (
            f"op_wall_us.p{tail['tail']}",
            tail["tail_value"],
            "us",
            f"highest percentile with >= 10 samples beyond, n={tail['n']}",
        )
    ]
    result.extra += [(name, value, *_UNITS[name]) for name, value in pipeline.items()]
    result.extra.append(("fit_accuracy", phase.fit_accuracy, "ratio", "training accuracy of the fit"))
    if not trace:
        return result

    traced_env = PipelineEnv(seed)
    tracer = Tracer()
    with Instrumented(tracer, PipelineEnv):
        traced = timed_phase(traced_env, n_ops)
    result.check(traced_env.mismatches == 0, f"traced pass: {traced_env.first_mismatch}")
    result.check(
        digest(traced.record) == result.digest,
        "the traced pass computed something other than the untraced pass",
    )
    report = span_report(tracer)
    result.check(
        report.nesting_errors == 0,
        f"{report.nesting_errors} spans do not nest inside their parents",
    )
    tracer.save(out_path(f"spans-{NAME}-seed{seed}.npz"))
    result.per_layer = report.metrics()
    result.per_layer.update(pipeline)
    result.per_layer.update(
        {
            "runtime.buffer_dropped": buffer_dropped,
            "trace.overhead_ratio": sliced_op_wall_us(
                traced.op_start_ns, traced.op_ns, traced.end_ns, slices_for(traced.ops)
            )["wall_us_per_op"]
            / result.end_to_end["wall_us_per_op"],
        }
    )
    result.report = report.lines()
    return result
