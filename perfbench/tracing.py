"""Spans and exact counts for the traced run, recorded from outside dccsim.

The wrappers replace the names as the calling module binds them (for example
``dccsim.protocol.sample_memory_error``, ``dccsim.decoder.fwht`` or the
methods of ``SparseLikelihood``), so nothing in the package changes. Spans
stay in memory as ``[name, start, end, parent, trial]`` lists; ``install``
restores every replaced name when its block ends.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from dccsim import cli, codefamily, decoder, f2, protocol


class Tracer:
    """Collects spans and integer counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trial = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.trial]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span counted without its child spans.

    Spans of one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations add up.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name] += end - start - child
    return dict(out)


def fwht_bytes(values) -> int:
    """Bytes one fwht call computes on: a read and a write of the whole
    array per butterfly stage."""
    return 2 * values.nbytes * (values.shape[0].bit_length() - 1)


def min_odd_weight_candidates(space: f2.Subspace, max_weight: int | None, found: int | None) -> int:
    """Candidate vectors min_odd_weight examines: all of S-perp when it
    enumerates, else the sum of C(n, w) over the odd weights it searches
    (an upper bound when it stops early at a found weight)."""
    n = space.n
    if n - space.dim <= f2.FULL_ENUM_DIM_LIMIT and n <= 63:
        return 1 << (n - space.dim)
    top = found if found is not None else max_weight
    return sum(math.comb(n, w) for w in range(1, top + 1, 2))


FINAL_T_BY_N = {codefamily.qubit_counts(t)["final"]: t for t in range(1, 5)}

_PROTOCOL_NOISE = ("sample_memory_error", "flip_syndrome", "sample_clifford", "random_element")
SETUP_SPANS = {
    "cached_doubled": "setup.doubled",
    "make_code": "setup.make_code",
    "build_cleanability_table": "setup.cleanability",
    "TPropagator": "setup.t_propagator",
    "build_t_gate_update": "setup.t_gate_update",
}
_ENGINE_METHODS = {
    "apply_syndrome": "decoder.syndrome",
    "apply_clifford": "decoder.clifford",
    "choose_recovery": "decoder.recovery",
    "apply_t_gate": "decoder.t_gate",
    "final_coset": "decoder.argmax",
}
_CLI_NAMES = {
    "cmd_build": "cli.build",
    "cmd_verify": "cli.verify",
    "build_gadget_codes": "codefamily.build",
    "cached_doubled": "codefamily.build",
    "Subspace": "f2.subspace",
    "check_evenness": "csscode.evenness",
    "make_code": "csscode.make_code",
    "verify_transversality": "csscode.transversality",
    "build_cleanability_table": "csscode.cleanability",
}


def _traced_deform(tr: Tracer, fn):
    def deform(self, dmap):
        return tr.call("decoder." + dmap.direction, fn, self, dmap)
    return deform


def _traced_sparse_memory(tr: Tracer, fn):
    def apply_memory(self, shifts, shift_weights):
        expanded = len(self.labels) * len(shifts)
        out = tr.call("decoder.memory", fn, self, shifts, shift_weights)
        tr.counts["memory.expanded"] += expanded
        tr.counts["memory.kept"] += len(self.labels)
        return out
    return apply_memory


def _traced_sparse_truncate(tr: Tracer, fn):
    def truncate(self, eps):
        before = len(self.labels)
        out = tr.call("decoder.truncate", fn, self, eps)
        tr.counts["truncate.before"] += before
        tr.counts["truncate.kept"] += len(self.labels)
        return out
    return truncate


def _traced_fwht(tr: Tracer, fn):
    def fwht(values, axis=0):
        tr.counts["fwht.calls"] += 1
        tr.counts["fwht.bytes"] += fwht_bytes(values)
        return tr.call("f2.fwht", fn, values, axis)
    return fwht


def _traced_syndrome_test(tr: Tracer, fn):
    def syndrome_test(*args):
        ok = tr.call("protocol.frame", fn, *args)
        tr.counts["syndrome_test.calls"] += 1
        tr.counts["syndrome_test.passed"] += bool(ok)
        return ok
    return syndrome_test


def _traced_min_odd_weight(tr: Tracer, fn):
    def min_odd_weight(space, max_weight=None):
        t = FINAL_T_BY_N.get(space.n, 0)
        found = tr.call(f"f2.min_odd_weight.t{t}", fn, space, max_weight)
        tr.counts[f"min_odd_weight.candidates.t{t}"] += min_odd_weight_candidates(space, max_weight, found)
        return found
    return min_odd_weight


def _replacements(tr: Tracer) -> list[tuple[object, str, object]]:
    out = []

    def wrap(owner, attr, name):
        out.append((owner, attr, tr.wrap(name, getattr(owner, attr))))

    for attr in _PROTOCOL_NOISE:
        wrap(protocol, attr, "noise.sample")
    wrap(protocol, "propagate_through_t", "noise.propagate_t")
    wrap(protocol, "logical_error_test", "protocol.frame")
    out.append((protocol, "syndrome_test", _traced_syndrome_test(tr, protocol.syndrome_test)))
    for attr in ("ideal_c_syndromes", "ideal_t_syndromes", "recovery_vector"):
        wrap(protocol.Family15, attr, "protocol.frame")
    wrap(protocol.StageContext, "frame_label", "protocol.frame")
    for attr, name in SETUP_SPANS.items():
        wrap(protocol, attr, name)

    out.append((decoder, "fwht", _traced_fwht(tr, decoder.fwht)))
    for cls in (decoder.DenseLikelihood, decoder.SparseLikelihood):
        for attr, name in _ENGINE_METHODS.items():
            wrap(cls, attr, name)
        out.append((cls, "deform", _traced_deform(tr, cls.deform)))
    sparse = decoder.SparseLikelihood
    wrap(decoder.DenseLikelihood, "apply_memory", "decoder.memory")
    out.append((sparse, "apply_memory", _traced_sparse_memory(tr, sparse.apply_memory)))
    # run_trial truncates only the sparse engine.
    out.append((sparse, "truncate", _traced_sparse_truncate(tr, sparse.truncate)))

    for attr, name in _CLI_NAMES.items():
        wrap(cli, attr, name)
    out.append((cli, "min_odd_weight", _traced_min_odd_weight(tr, cli.min_odd_weight)))
    return out


@contextmanager
def install(tr: Tracer):
    """Route the traced names through `tr` for the duration of the block."""
    replaced = _replacements(tr)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replaced]
    try:
        for owner, attr, fn in replaced:
            setattr(owner, attr, fn)
        yield tr
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
