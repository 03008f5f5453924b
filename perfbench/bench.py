"""Workloads, measurement loops and correctness checks of the dccsim benchmark.

The load is a closed loop with one caller: trials run one after another
through ``protocol.run_trial(config, i)`` with ``threads=1``, exactly as
``run_trials`` runs them serially, and ``estimate_pl`` is applied to the
results. The codes-verify workload calls ``cli.main`` in process. A measured
run repeats its fixed set of operations and times each one at its fastest
repetition, scaled to the reference host speed (hostspeed.py). See README.md
in this directory for why each workload exists.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from dccsim import cli, codefamily, protocol

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 0
# The digest covers the first this many trials; every simulate workload runs
# at least this many.
DIGEST_TRIALS = 100
SETUP_SAMPLES = 7
# A measured run repeats its operations at least this many times and times
# each at its fastest repetition, scaled to the reference host speed.
MIN_REPS = 3
VERIFY_TS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Simulate:
    decoder: str
    p: float
    max_gates: int
    trials: int
    dominant: tuple[str, ...]

    def config(self, seed: int, trials: int = 1) -> protocol.ProtocolConfig:
        return protocol.ProtocolConfig(
            p=self.p, trials=trials, decoder=self.decoder, seed=seed,
            max_gates=self.max_gates, threads=1,
        )


@dataclass(frozen=True)
class CodesVerify:
    dominant: tuple[str, ...] = tuple(f"f2.min_odd_weight.t{t}" for t in VERIFY_TS)


WORKLOADS = {
    "sparse-lowp": Simulate("sparse", 0.005, 20, 100,
                            ("decoder.syndrome", "decoder.split", "decoder.t_gate", "f2.fwht")),
    "sparse-highp": Simulate("sparse", 0.02, 2, 360, ("decoder.memory",)),
    "exact-dense": Simulate("exact", 0.02, 2, 150, ("f2.fwht",)),
    "codes-verify": CodesVerify(),
}

# sha256 over the first DIGEST_TRIALS TrialResults at DEFAULT_SEED.
DIGESTS = {
    "sparse-lowp": "b176ae0374cf1e74245e33df6a19c2049b707a306c5b30b9391cc9797a7abdbf",
    "sparse-highp": "279550ce470b76ac34efcab3bea58b95498f26c898ca8cd21632b26cad76c46c",
    "exact-dense": "718aaaff39461230a60c3f67de3b229edabecb701e5b1cf0fcd9573fb507129c",
}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def highest_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile of n samples with at least `beyond` samples
    above its nearest-rank value, or None when no percentile has that many."""
    for q in range(99, 0, -1):
        if n - math.ceil(q * n / 100) >= beyond:
            return q
    return None


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def trial_digest(results: list) -> str:
    text = "".join(
        f"{r.gates_implemented},{r.termination},{r.retries},{r.rounds}\n" for r in results
    )
    return hashlib.sha256(text.encode()).hexdigest()


def setup_seconds(workload, samples: int, env: dict) -> list[tuple[float, float]]:
    """Import plus family15() (import alone for codes-verify), each sample in
    a fresh interpreter, as (wall seconds, hostspeed.level of reference
    samples this process takes just before and after)."""
    build = "import dccsim.cli" if isinstance(workload, CodesVerify) else (
        "import dccsim.protocol as p; p.family15()")
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        f"{build}\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = []
    for _ in range(samples):
        ref = [hostspeed.reference_seconds() for _ in range(5)]
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        ref += [hostspeed.reference_seconds() for _ in range(5)]
        out.append((float(done.stdout.strip().splitlines()[-1]), hostspeed.level(ref)))
    return out


# ---------------------------------------------------------------------------
# Operation loop
# ---------------------------------------------------------------------------

@dataclass
class OpLog:
    results: list            # one per operation, None where it raised
    seconds: list[float]
    errors: list[str]
    wall: float


def run_ops(op, count: int) -> OpLog:
    """Runs op(0), ..., op(count - 1) once, one after another."""
    log = OpLog([], [], [], 0.0)
    start = perf_counter()
    for i in range(count):
        t0 = perf_counter()
        try:
            result = op(i)
        except Exception as exc:  # a failing operation is counted, the run goes on
            result = None
            log.errors.append(f"operation {i}: {exc!r}")
        log.seconds.append(perf_counter() - t0)
        log.results.append(result)
    log.wall = perf_counter() - start
    return log


@dataclass
class RepLog:
    results: list              # of the first repetition, None where it raised
    seconds: list[list[float]]  # wall time per operation, one entry per repetition
    host: list[float]          # reference seconds per repetition (hostspeed.level)
    errors: list[str]          # operations that raised in the first repetition
    changed: list[str]         # operations whose result changed in a later one

    def scaled(self, i: int) -> list[float]:
        """Operation i's times at the reference host speed."""
        return [hostspeed.scale(s, h) for s, h in zip(self.seconds[i], self.host)]

    def best(self) -> list[float]:
        """Each operation's fastest scaled time."""
        return [min(self.scaled(i)) for i in range(len(self.seconds))]

    def walls(self) -> list[float]:
        """Wall seconds each repetition took."""
        return [sum(s[r] for s in self.seconds) for r in range(self.reps)]

    @property
    def reps(self) -> int:
        return len(self.host)


def run_reps(op, count: int, seconds: float, min_reps: int = MIN_REPS) -> RepLog:
    """Runs op(0), ..., op(count - 1), then the same again: at least
    `min_reps` times, and more while another repetition fits in `seconds`.
    The host's speed is sampled throughout (see hostspeed)."""
    log = RepLog([], [[] for _ in range(count)], [], [], [])
    start = perf_counter()
    rep = 0
    with hostspeed.Sampler() as speed:
        while rep < min_reps or (perf_counter() - start) * (rep + 1) / rep <= seconds:
            first = len(speed.samples)
            speed.sample()
            for i in range(count):
                spent, t0 = speed.spent, perf_counter()
                try:
                    result = op(i)
                except Exception as exc:  # a failing operation is counted, the run goes on
                    result = None
                    if rep == 0:
                        log.errors.append(f"operation {i}: {exc!r}")
                log.seconds[i].append(perf_counter() - t0 - (speed.spent - spent))
                if rep == 0:
                    log.results.append(result)
                elif result != log.results[i]:
                    log.changed.append(f"operation {i}: repetition {rep + 1} gave {result!r}, "
                                       f"the first gave {log.results[i]!r}")
            speed.sample()
            log.host.append(hostspeed.level(speed.samples[first:]))
            rep += 1
    return log


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency(log: RepLog) -> dict[str, tuple[float, str]]:
    """Median and nearest-rank p90 of the operations' best times."""
    ms = [s * 1e3 for s, r in zip(log.best(), log.results) if r is not None]
    return {"trial_ms_p50": (statistics.median(ms), "ms"), "trial_ms_p90": (percentile(ms, 90), "ms")}


def latency_note(log: RepLog) -> str:
    p50, p90 = (value for value, _ in latency(log).values())
    host = ", ".join(f"{h * 1e3:.2f}" for h in log.host)
    return (f"repetitions: {log.reps}; reference ms per repetition: {host} "
            f"(scaled to {hostspeed.REFERENCE_S * 1e3:.2f}); "
            f"best scaled ms per operation: p50 {p50:.3f}, p90 {p90:.3f}")


# ---------------------------------------------------------------------------
# Simulate workloads
# ---------------------------------------------------------------------------

def invariant_problems(w: Simulate, results: list) -> list[str]:
    """Every result ends in a known termination within the gate cap."""
    problems = []
    for i, r in enumerate(results):
        if r is None:
            continue
        if r.termination not in protocol.TERMINATIONS:
            problems.append(f"trial {i}: unknown termination {r.termination!r}")
        if not 0 <= r.gates_implemented <= w.max_gates:
            problems.append(f"trial {i}: gates {r.gates_implemented} outside [0, {w.max_gates}]")
        if r.rounds < 1:
            problems.append(f"trial {i}: no rounds")
    return problems


def digest_problems(name: str, seed: int, results: list) -> tuple[list[str], str]:
    """Digest of the first DIGEST_TRIALS results; at DEFAULT_SEED it must
    equal the recorded one."""
    head = results[:DIGEST_TRIALS]
    if len(head) < DIGEST_TRIALS:
        return [f"only {len(head)} trials ran, the digest needs {DIGEST_TRIALS}"], ""
    digest = "" if None in head else trial_digest(head)
    if seed == DEFAULT_SEED and digest != DIGESTS[name]:
        return [f"digest {digest or 'missing'} != recorded {DIGESTS[name]}"], digest
    return [], digest


def estimate(w: Simulate, seed: int, results: list) -> tuple[list[str], list[str]]:
    """estimate_pl over the completed trials. Returns (errors, problems): an
    exception is one failed operation, a wrong termination count a problem."""
    done = [r for r in results if r is not None]
    try:
        est = protocol.estimate_pl(w.config(seed, trials=len(done)), done)
    except Exception as exc:  # e.g. the jackknife ZeroDivisionError, counted not fatal
        return [f"estimate_pl: {exc!r}"], []
    total = est.n_logical + est.n_cleanability + est.n_censored + est.n_retry_limit
    if total != len(done):
        return [], [f"estimate counts {total} terminations for {len(done)} trials"]
    return [], []


def measure_simulate(w: Simulate, name: str, seed: int, seconds: float) -> dict:
    config = w.config(seed)
    protocol.family15()
    protocol.run_trial(config, 0)  # fills the lazy per-process tables
    log = run_reps(lambda i: protocol.run_trial(config, i), w.trials, seconds)
    problems, digest = digest_problems(name, seed, log.results)
    problems += invariant_problems(w, log.results) + log.changed
    est_errors, est_problems = estimate(w, seed, log.results)
    done = [(i, r) for i, r in enumerate(log.results) if r is not None]
    rounds = sum(r.rounds for _, r in done)
    best = log.best()
    wall_best = sum(min(log.seconds[i]) for i, _ in done)
    return {
        "correct": not problems and not est_problems,
        "attempted": len(log.results) + 1,
        "failed": len(log.errors) + len(est_errors),
        "problems": problems + est_problems + log.errors + est_errors,
        "notes": [latency_note(log), f"rounds per wall second, best unscaled times: {rounds / wall_best:.2f}"],
        "samples": len(done),
        "digest": digest,
        "metrics": {
            "rounds_per_s": (rounds / sum(best[i] for i, _ in done), "1/s"),
        },
    }


class SupportObserver:
    """run_trial observer: support size after every round's decoder updates."""

    def __init__(self, tr: tracing.Tracer):
        self.counts = tr.counts

    def __call__(self, kind, stage, rho, frame) -> None:
        size = rho.support_size()
        self.counts["support.sum"] += size
        self.counts["support.rounds"] += 1
        self.counts["support.max"] = max(self.counts["support.max"], size)


def traced_trials(config, count: int) -> tuple[tracing.Tracer, OpLog]:
    tr = tracing.Tracer()
    with tracing.install(tr):
        observer = tr.wrap("bench.observer", SupportObserver(tr))

        def trial(i):
            tr.trial = i
            return tr.call("protocol.run_trial", protocol.run_trial, config, i, observer)

        log = run_ops(trial, count=count)
    for r in log.results:
        if r is not None:
            tr.counts["protocol.rounds"] += r.rounds
            tr.counts["protocol.gates"] += r.gates_implemented
    return tr, log


def traced_setup(samples: int = 3) -> dict[str, float]:
    """Median seconds of each Family15 construction step, from cold builds."""
    runs = []
    for _ in range(samples):
        codefamily.cached_doubled.cache_clear()
        tr = tracing.Tracer()
        with tracing.install(tr):
            tr.call("setup.family15", protocol.Family15)
        runs.append(tracing.self_times(tr.spans))
    return {name: statistics.median(run.get(name, 0.0) for run in runs)
            for name in tracing.SETUP_SPANS.values()}


def trace_simulate(w: Simulate, seed: int) -> dict:
    config = w.config(seed)
    protocol.family15()
    protocol.run_trial(config, 0)
    n = w.trials
    plain = run_reps(lambda i: protocol.run_trial(config, i), n, seconds=0.0)
    rss = peak_rss_mb()  # before the traced passes store their spans
    passes, problems = [], invariant_problems(w, plain.results) + plain.changed
    for _ in range(2):
        tr, log = traced_trials(config, n)
        if log.results != plain.results:
            problems.append("traced trials differ from untraced ones")
        passes.append((tr, log.wall))
    out = summarize_trace(w, passes, statistics.median(plain.walls()), n, problems)
    out["metrics"].update(latency(plain), peak_rss_mb=(rss, "MB"))
    counts = passes[0][0].counts
    per_round = max(counts["support.rounds"], 1)
    out["metrics"].update({
        "decoder.support.mean": (counts["support.sum"] / per_round, "labels"),
        "decoder.support.max": (counts["support.max"], "labels"),
        "decoder.memory.kept_frac": (counts["memory.kept"] / max(counts["memory.expanded"], 1), "ratio"),
        "decoder.truncate.kept_frac": (counts["truncate.kept"] / max(counts["truncate.before"], 1), "ratio"),
        "protocol.syndrome_test.pass_frac": (
            counts["syndrome_test.passed"] / max(counts["syndrome_test.calls"], 1), "ratio"),
        "protocol.rounds": (counts["protocol.rounds"] / n, "rounds/op"),
        "protocol.gates": (counts["protocol.gates"] / n, "gates/op"),
    })
    for step, value in traced_setup().items():
        out["metrics"][step + ".s"] = (value, "s")
    out["attempted"] = n
    out["failed"] = len(plain.errors)
    out["problems"] += plain.errors
    return out


# ---------------------------------------------------------------------------
# codes-verify
# ---------------------------------------------------------------------------

def verify_commands() -> list[list[str]]:
    """build then verify of the final stage, for t = 1..4: one pass."""
    out = []
    for t in VERIFY_TS:
        path = str(OUT_DIR / f"code-t{t}.json")
        out += [["build", "--t", str(t), "--stage", "final", "--out", path], ["verify", path]]
    return out


def command_t(argv: list[str]) -> int:
    return int(Path(argv[-1]).stem.removeprefix("code-t"))


def verify_op(commands: list[list[str]], main=cli.main):
    """op(i) runs command i in process and returns (exit code, stdout).
    Command 0 clears the code caches, so every pass builds from cold."""
    OUT_DIR.mkdir(exist_ok=True)

    def op(i):
        argv = commands[i]
        if i == 0:
            codefamily.cached_doubled.cache_clear()
            codefamily.cached_gadget.cache_clear()
        if argv[0] == "build":
            Path(argv[-1]).unlink(missing_ok=True)
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue()
    return op


def verify_outcome(commands: list[list[str]], log) -> tuple[list[str], list[str]]:
    """(errors, problems) of a pass: errors are commands that raised or
    exited non-zero, problems failed output checks."""
    errors, problems = list(log.errors), []
    for argv, result in zip(commands, log.results):
        if result is None:
            continue
        rc, text = result
        t = command_t(argv)
        if rc != 0:
            errors.append(f"{argv[0]} t={t}: exit {rc}")
        elif argv[0] == "build":
            n = json.loads(Path(argv[-1]).read_text())["n"]
            if n != codefamily.qubit_counts(t)["final"]:
                problems.append(f"t={t}: n={n} != {codefamily.qubit_counts(t)['final']}")
        else:
            lines = text.splitlines()
            if not lines or not all(line.startswith("PASS") for line in lines):
                problems.append(f"verify t={t}: not only PASS lines")
    return errors, problems


def measure_verify(seconds: float) -> dict:
    commands = verify_commands()
    log = run_reps(verify_op(commands), len(commands), seconds)
    errors, problems = verify_outcome(commands, log)
    problems += log.changed
    best = log.best()
    return {
        "correct": not problems,
        "attempted": len(commands),
        "failed": len(errors),
        "problems": errors + problems,
        "notes": [latency_note(log)] + [
            f"best ms {argv[0]} t={command_t(argv)}: {s * 1e3:.1f}" for argv, s in zip(commands, best)],
        "samples": len(best),
        "digest": "",
        "metrics": {
            "rounds_per_s": (len(VERIFY_TS) / sum(best), "1/s"),
        },
    }


def trace_verify(w: CodesVerify) -> dict:
    commands = verify_commands()
    plain = run_reps(verify_op(commands), len(commands), seconds=0.0)
    rss = peak_rss_mb()
    errors, problems = verify_outcome(commands, plain)
    problems += plain.changed
    passes = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tracing.install(tr):
            log = run_ops(verify_op(commands, tr.wrap("cli.main", cli.main)), len(commands))
        problems += sum(verify_outcome(commands, log), [])
        if log.results != plain.results:
            problems.append("traced commands print other output than untraced ones")
        passes.append((tr, log.wall))
    out = summarize_trace(w, passes, statistics.median(plain.walls()), 1, problems)
    out["metrics"].update(latency(plain), peak_rss_mb=(rss, "MB"))
    counts = passes[0][0].counts
    for t in VERIFY_TS:
        out["metrics"][f"f2.min_odd_weight.candidates.t{t}"] = (
            counts[f"min_odd_weight.candidates.t{t}"], "count")
    out["attempted"] = len(commands)
    out["failed"] = len(errors)
    out["problems"] += errors
    return out


# ---------------------------------------------------------------------------
# Traced-run summary
# ---------------------------------------------------------------------------

# Per-layer span names reported as "<name>.ms" (self ms per operation).
LAYER_MS = (
    "decoder.memory", "decoder.syndrome", "decoder.merge", "decoder.split", "decoder.t_gate",
    "decoder.clifford", "decoder.recovery", "decoder.truncate", "decoder.argmax",
    "f2.fwht", "noise.sample", "noise.propagate_t", "protocol.frame",
    "csscode.transversality", "csscode.evenness", "csscode.make_code", "csscode.cleanability",
    "codefamily.build", "f2.subspace",
)
# Benchmark-side spans that are not layers of dccsim.
NOT_LAYERS = ("bench.observer", "cli.main")


def summarize_trace(w, passes, untraced_wall: float, ops: int, problems: list[str]) -> dict:
    """Per-layer self time per operation, averaged over the traced passes
    given as (tracer, wall seconds), with the exact counts of both compared."""
    selfs = [tracing.self_times(tr.spans) for tr, _ in passes]
    names = set().union(*selfs)
    mean_self = {k: statistics.mean(s.get(k, 0.0) for s in selfs) for k in names}
    first, second = (dict(tr.counts) for tr, _ in passes)
    if first != second:
        problems.append(f"exact counts differ between traced passes: {first} vs {second}")
    traced_wall = statistics.mean(wall for _, wall in passes)
    m = {f"{k}.ms": (mean_self.get(k, 0.0) * 1e3 / ops, "ms/op") for k in LAYER_MS}
    m["protocol.loop_self.ms"] = (mean_self.get("protocol.run_trial", 0.0) * 1e3 / ops, "ms/op")
    m["cli.verify.self_ms"] = (mean_self.get("cli.verify", 0.0) * 1e3 / ops, "ms/op")
    m["cli.build.self_ms"] = (mean_self.get("cli.build", 0.0) * 1e3 / ops, "ms/op")
    for t in VERIFY_TS:
        m[f"f2.min_odd_weight.ms.t{t}"] = (mean_self.get(f"f2.min_odd_weight.t{t}", 0.0) * 1e3 / ops, "ms/op")
    counts = passes[0][0].counts
    m["f2.fwht.calls"] = (counts["fwht.calls"] / ops, "calls/op")
    m["f2.fwht.gb_computed"] = (counts["fwht.bytes"] / 1e9 / ops, "GB/op")

    layers = {k: v for k, v in mean_self.items() if k not in NOT_LAYERS}
    if "protocol.run_trial" in layers:
        layers["protocol.loop_self"] = layers.pop("protocol.run_trial")
    dominant = " + ".join(w.dominant)
    ranked = {dominant: sum(layers.pop(k, 0.0) for k in w.dominant), **layers}
    top = max(ranked, key=ranked.get)
    total_self = sum(mean_self.values())
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.residual_frac"] = (1.0 - total_self / traced_wall, "ratio")
    m["trace.dominant_share"] = (ranked[dominant] / total_self, "ratio")
    m["trace.dominant_ok"] = (float(top == dominant), "bool")
    notes = [f"self ms/op {k}: {v * 1e3 / ops:.3f}" for k, v in
             sorted(ranked.items(), key=lambda kv: -kv[1])]
    notes.append(f"largest self time: {top} (expected {dominant})"
                 + ("" if top == dominant else " MISMATCH"))
    return {"correct": not problems, "problems": problems, "notes": notes,
            "passes": passes, "samples": ops, "digest": "", "metrics": m}


def write_spans(path: Path, record: dict, passes) -> None:
    """Spans of every traced pass, one JSON list per line after the run record:
    [pass, name, start, end, parent, trial]."""
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(record) + "\n")
        for k, (tr, _) in enumerate(passes):
            for name, start, end, parent, trial in tr.spans:
                fh.write(f'[{k},"{name}",{start:.9f},{end:.9f},{parent},{trial}]\n')


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    if trace:
        if isinstance(w, CodesVerify):
            return trace_verify(w)
        return trace_simulate(w, seed)
    if isinstance(w, CodesVerify):
        return measure_verify(seconds)
    return measure_simulate(w, name, seed, seconds)

