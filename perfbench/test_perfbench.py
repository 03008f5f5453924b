"""Tests of the benchmark's own rules. Run: python3 -m pytest perfbench"""

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from dccsim import decoder, f2, protocol  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n, q", [(100, 90), (109, 90), (110, 90), (111, 90), (1000, 99),
                                  (20, 50), (19, 47), (11, 9), (10, None), (0, None)])
def test_highest_percentile(n, q):
    assert bench.highest_percentile(n) == q


@pytest.mark.parametrize("n", range(20, 400, 7))
def test_highest_percentile_leaves_ten_beyond(n):
    q = bench.highest_percentile(n)
    values = list(range(n))
    beyond = sum(v > bench.percentile(values, q) for v in values)
    assert beyond >= 10
    if q < 99:
        assert sum(v > bench.percentile(values, q + 1) for v in values) < 10


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert bench.percentile(values, 90) == 90.0
    assert bench.percentile(values, 50) == 50.0
    assert bench.percentile([3.0], 90) == 3.0


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    assert tracing.self_times(spans) == {"root": 6.0, "a": 3.0, "b": 1.0}


def test_tracer_records_parents_and_sums_to_root():
    tr = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def middle():
        return tr.call("leaf", leaf) + tr.call("leaf", leaf)

    tr.trial = 7
    assert tr.call("root", lambda: tr.call("middle", middle)) == 2 * sum(range(1000))
    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ["root", "middle", "leaf", "leaf"]
    assert parents == [-1, 0, 1, 1]
    assert {s[4] for s in tr.spans} == {7}
    root = tr.spans[0]
    assert sum(tracing.self_times(tr.spans).values()) == pytest.approx(root[2] - root[1])


def test_install_restores_every_name():
    before = {(id(o), a): o.__dict__[a] for o, a, _ in tracing._replacements(tracing.Tracer())}
    with tracing.install(tracing.Tracer()):
        assert protocol.sample_memory_error is not before[(id(protocol), "sample_memory_error")]
    after = {(id(o), a): o.__dict__[a] for o, a, _ in tracing._replacements(tracing.Tracer())}
    assert after == before


def test_counted_sizes():
    assert tracing.fwht_bytes(np.zeros(1 << 16)) == 2 * 8 * (1 << 16) * 16
    space = f2.Subspace(5, [0b00011, 0b01100])
    assert tracing.min_odd_weight_candidates(space, 3, None) == 1 << 3
    big = f2.Subspace(59, [0b11])
    assert tracing.min_odd_weight_candidates(big, 3, None) == 59 + 32509
    assert tracing.min_odd_weight_candidates(big, 3, 1) == 59


def test_cap_threads():
    env = {"OMP_NUM_THREADS": "64", "MKL_NUM_THREADS": "x"}
    capped = run.cap_threads(env, 2)
    assert capped["OMP_NUM_THREADS"] == "2"
    assert capped["MKL_NUM_THREADS"] == "1"
    assert capped["OPENBLAS_NUM_THREADS"] == "1"
    assert set(capped) == set(run.THREAD_VARS)


@pytest.mark.parametrize("name", sorted(bench.DIGESTS))
def test_digest_is_stable_and_matches_serial_run_trials(name):
    w = bench.WORKLOADS[name]
    config = w.config(bench.DEFAULT_SEED, trials=bench.DIGEST_TRIALS)
    log = bench.run_ops(lambda i: protocol.run_trial(config, i), count=bench.DIGEST_TRIALS)
    assert bench.trial_digest(log.results) == bench.DIGESTS[name]
    assert bench.trial_digest(protocol.run_trials(config)) == bench.DIGESTS[name]


def test_traced_passes_repeat_counts_and_declare_their_metrics():
    w = bench.WORKLOADS["sparse-lowp"]
    config = w.config(bench.DEFAULT_SEED)
    protocol.family15()
    (tr1, log1), (tr2, log2) = (bench.traced_trials(config, 5) for _ in range(2))
    assert tr1.counts == tr2.counts
    assert tr1.counts["fwht.calls"] > 0 and tr1.counts["support.rounds"] > 0
    assert log1.results == log2.results == [protocol.run_trial(config, i) for i in range(5)]
    assert decoder.fwht is f2.fwht
    out = bench.summarize_trace(w, [(tr1, log1.wall), (tr2, log2.wall)], log1.wall, 5, [])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(declared[k] == unit for k, (_, unit) in out["metrics"].items())
    assert out["metrics"]["trace.residual_frac"][0] < 0.05


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {"setup_s", "rounds_per_s"} <= {m["name"] for m in SPEC["end_to_end"]}
    assert {"trial_ms_p50", "trial_ms_p90"} <= {m["name"] for m in SPEC["per_layer"]}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_reps_repeats_every_operation_and_keeps_its_best_time():
    calls = []
    log = bench.run_reps(lambda i: calls.append(i) or i * i, 4, seconds=0.0, min_reps=3)
    assert calls == [0, 1, 2, 3] * 3
    assert log.results == [0, 1, 4, 9] and log.reps == 3
    assert len(log.host) == 3 and all(h > 0 for h in log.host)
    scale = bench.hostspeed.scale
    assert log.best() == [min(scale(s, h) for s, h in zip(times, log.host)) for times in log.seconds]
    assert not log.errors and not log.changed


def test_run_reps_counts_a_failure_once_and_reports_a_changed_result():
    state = {"n": 0}

    def op(i):
        if i == 0:
            raise ZeroDivisionError("always")
        state["n"] += 1
        return state["n"]

    log = bench.run_reps(op, 2, seconds=0.0, min_reps=2)
    assert log.results == [None, 1]
    assert len(log.errors) == 1 and "ZeroDivisionError" in log.errors[0]
    assert len(log.changed) == 1 and log.changed[0].startswith("operation 1: repetition 2")


def test_sampler_samples_inside_a_long_operation_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with bench.hostspeed.Sampler() as speed:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.35:
            pass
    assert len(speed.samples) >= 2 and speed.spent >= sum(speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
