"""Fault-tolerant Clifford+T Monte Carlo on the 15-qubit code family.

A trial alternates C-rounds and T-rounds. Each C-round merges the T-code's
labels into the base code, applies memory noise there, splits them to the
C-code, measures the 14 face generators (X and Z type) with noisy outcomes,
updates the decoder, runs the logical-error test, and applies a random
transversal Clifford when the previous syndrome test passed. Each T-round
deforms back the same way, measures the 9 double-edge Z generators, updates
the decoder, runs the logical-error test, and runs the syndrome test over
the completed C,T pair: on success the decoder's recovery is applied to the
frame, the frame's X coset must be cleanable, and the transversal T gate is
applied (decoder Gamma update, frame propagation, stabilizer twirl); on
failure the pair implements no gate and another pair is requested.

Both round kinds are stated once, as the `Round` records in
`Family15.rounds` (stage, merge map, split map, syndrome map); `run_trial`
plays each half of a pair through one round function, and `decode-trace`
reads its stage graph (`stages`, `deformations`, `syndromes`) off the same
records.

Memory before the split gives exactly the posterior of memory after it
(memory commutes with split; see decoder) on 1/8 of the labels, and
deformations draw no random numbers, so each trial's RNG stream is drawn
in the same order either way.

Label bases of the three codes are nested so that deformations are pure bit
projections/insertions: the base-code rows are a shared prefix of both the
C-code and T-code rows, with the C-code adding three Z-side rows and the
T-code adding three X-side (double-edge) rows.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import f2
from .codefamily import cached_doubled
from .csscode import CleanabilityTable, SubsystemCode, build_cleanability_table, make_code
from .decoder import (
    ENGINES,
    DeformationMap,
    LabelLayout,
    SyndromeMap,
    TGateUpdate,
    build_t_gate_update,
    init_likelihood,
)
from .noise import (
    CLIFFORD_CLASSES,
    CliffordAction,
    PauliFrame,
    TPropagator,
    flip_syndrome,
    propagate_through_t,
    random_element,
    sample_clifford,
    sample_memory_error,
)

N_QUBITS = 15


@dataclass(frozen=True)
class StageContext:
    """One code of the deformation cycle with its label bookkeeping."""

    name: str
    code: SubsystemCode
    layout: LabelLayout
    logical_x: int
    logical_z: int

    @property
    def nontrivial_logical_labels(self) -> frozenset[int]:
        return frozenset({self.logical_x, self.logical_z, self.logical_x ^ self.logical_z})

    def frame_label(self, frame: PauliFrame) -> int:
        return self.code.coset_map.label(frame.a, frame.b)


def _express(rows: tuple[int, ...], target: int) -> int:
    combo = f2.express(rows, target, N_QUBITS)
    if combo is None:
        raise AssertionError("vector not expressible in the chosen label rows")
    return combo


@dataclass(frozen=True)
class Round:
    """One round kind of the cycle: merge the previous round's code into the
    base code, split the base code to `stage`, and measure `syndrome` there."""

    kind: str                # "C" or "T"
    stage: StageContext
    merge: DeformationMap
    split: DeformationMap
    syndrome: SyndromeMap


class Family15:
    """All precomputed data for the t=1 protocol (codes, maps, tables)."""

    def __init__(self) -> None:
        doubled = cached_doubled(1)
        self.doubled = doubled
        lat = doubled.lattices[1]
        layout = doubled.layout
        t_space, c_space, dot_t = doubled.t_space, doubled.c_space, doubled.dot_t_space
        ones = (1 << N_QUBITS) - 1

        def generators(kind: str) -> list[int]:
            return [g.bits for g in doubled.generators if g.kind == kind]

        faces_a, faces_b, edges = generators("face_a"), generators("face_b"), generators("edge_double")
        double_faces = [a | b for a, b in zip(faces_a, faces_b)]
        bc = layout.embed((1 << 7) - 1, "B1") | layout.embed(1, "A0")

        rows_t = tuple(double_faces) + (bc, ones)
        rows_c = rows_t + tuple(faces_a)
        extra_edges = []
        for e in edges:
            if f2.express(rows_c + tuple(extra_edges), e, N_QUBITS) is None:
                extra_edges.append(e)
        if len(extra_edges) != 3:
            raise AssertionError("expected exactly three independent extra edge rows")
        rows_dot_t = rows_c + tuple(extra_edges)

        t_code = make_code(t_space, dot_t, mat_a=rows_t, mat_b=rows_dot_t)
        base_code = make_code(t_space, c_space, mat_a=rows_t, mat_b=rows_c)
        c_code = make_code(c_space, c_space, mat_a=rows_c, mat_b=rows_c)

        def stage(name: str, code: SubsystemCode) -> StageContext:
            cm = code.coset_map
            return StageContext(
                name=name,
                code=code,
                layout=LabelLayout(cm.alpha_bits, cm.beta_bits),
                logical_x=cm.label(ones, 0),
                logical_z=cm.label(0, ones),
            )

        self.t_stage = stage("t", t_code)
        self.base_stage = stage("base", base_code)
        self.c_stage = stage("c", c_code)

        lay_t, lay_b, lay_c = self.t_stage.layout, self.base_stage.layout, self.c_stage.layout
        # A base label nests in a wider one: its X bits are the lowest, and its
        # Z bits start at the wide label's Z offset.
        base_bits_in_t, base_bits_in_c = (
            ((1 << lay_b.alpha_bits) - 1) | (((1 << lay_b.beta_bits) - 1) << wide.alpha_bits)
            for wide in (lay_t, lay_c)
        )
        self.t_to_base = DeformationMap("merge", base_bits_in_t, lay_t, lay_b)
        self.base_to_c = DeformationMap("split", base_bits_in_c, lay_b, lay_c)
        self.c_to_base = DeformationMap("merge", base_bits_in_c, lay_c, lay_b)
        self.base_to_t = DeformationMap("split", base_bits_in_t, lay_b, lay_t)

        # Measured generators. C-round: xi and zeta of the seven faces;
        # T-round: zeta of the nine double edges.
        self.faces_measured = tuple(faces_a + faces_b + generators("omega_link"))
        self.edges_measured = tuple(edges)
        zeta_rows = tuple(_express(rows_c, g) for g in self.faces_measured)
        xi_rows = tuple(z << lay_c.alpha_bits for z in zeta_rows)
        self.m_c = SyndromeMap(xi_rows + zeta_rows, lay_c)
        self.m_t = SyndromeMap(tuple(_express(rows_dot_t, g) for g in self.edges_measured), lay_t)

        self.rounds = (
            Round("C", self.c_stage, self.t_to_base, self.base_to_c, self.m_c),
            Round("T", self.t_stage, self.c_to_base, self.base_to_t, self.m_t),
        )
        # The stage graph decode-trace walks: each round merges out of the
        # stage of the round before it.
        self.stages = {ctx.name: ctx for ctx in (self.t_stage, self.base_stage, self.c_stage)}
        self.syndromes = {rnd.stage.name: rnd.syndrome for rnd in self.rounds}
        self.deformations = {}
        for prev, rnd in zip(self.rounds[-1:] + self.rounds[:-1], self.rounds):
            self.deformations[prev.stage.name, "base"] = rnd.merge
            self.deformations["base", rnd.stage.name] = rnd.split
        for rnd in self.rounds:
            for label in (rnd.stage.logical_x, rnd.stage.logical_z):
                if any((row & label).bit_count() & 1 for row in rnd.syndrome.rows):
                    raise AssertionError("a measured generator reads the logical qubit")

        # Opposite-edge pairs (l, l') with l + l' = face, per square face.
        self.face_opposite_edges = tuple(
            lat.opposite_edge_pairs(i) for i in range(len(lat.faces))
        )

        self.table: CleanabilityTable = build_cleanability_table(t_code)
        self.prop = TPropagator(t_code, self.table)
        self.t_update: TGateUpdate = build_t_gate_update(t_code, self.table, lay_t)

        # Recovery vector of every X label, spanned by a linear section:
        # vectors r_k with label_x(r_k) = e_k.
        section = []
        for k in range(lay_t.alpha_bits):
            rhs = [1 if i == k else 0 for i in range(len(rows_dot_t))]
            x = f2.solve_linear(list(rows_dot_t), rhs, N_QUBITS)
            if x is None:
                raise AssertionError("label map is not surjective")
            section.append(x)
        self._recovery = f2.enumerate_span(section, N_QUBITS).tolist()

    def recovery_vector(self, alpha: int) -> int:
        return self._recovery[alpha]

    # -- frame-side measurements ----------------------------------------------

    def ideal_c_syndromes(self, frame: PauliFrame) -> int:
        bits = 0
        for i, g in enumerate(self.faces_measured):
            bits |= f2.dot(g, frame.b) << i                      # xi
            bits |= f2.dot(g, frame.a) << (i + len(self.faces_measured))  # zeta
        return bits

    def ideal_t_syndromes(self, frame: PauliFrame) -> int:
        bits = 0
        for i, g in enumerate(self.edges_measured):
            bits |= f2.dot(g, frame.a) << i
        return bits


@lru_cache(maxsize=1)
def family15() -> Family15:
    return Family15()


# ---------------------------------------------------------------------------
# Protocol configuration and trial execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolConfig:
    p: float
    trials: int
    max_gates: int = 100_000
    decoder: str = "sparse"        # "exact" | "sparse"
    eps: float = 1e-6
    seed: int = 0
    max_retry_rounds: int = 100
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.max_gates < 1:
            raise ValueError("max_gates must be at least 1")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.max_retry_rounds < 0:
            raise ValueError("max_retry_rounds must be at least 0")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.decoder not in ENGINES:
            raise ValueError(f"decoder must be one of {', '.join(map(repr, ENGINES))}")

    def to_json(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        """Hash of the settings that fix the results; the worker count does not."""
        fields = self.to_json()
        del fields["threads"]
        text = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


TERMINATIONS = ("logical_error", "cleanability_failure", "max_gates_reached", "retry_limit")


@dataclass(frozen=True)
class TrialResult:
    gates_implemented: int
    termination: str
    retries: int
    rounds: int


def syndrome_test(fam: Family15, c_bits: int, t_bits: int, action: CliffordAction) -> bool:
    """Consistency of a C,T round pair: for every square face and each of its
    opposite-edge pairs, the two edge outcomes must agree with the predicted
    post-gate Z syndromes of the face on both copies."""
    n_faces = len(fam.faces_measured)
    lat_faces = len(fam.face_opposite_edges)
    for i in range(lat_faces):
        zu = []
        for block in (0, 1):   # face on copy A, face on copy B
            idx = i + block * lat_faces
            xi = (c_bits >> idx) & 1
            zeta = (c_bits >> (idx + n_faces)) & 1
            zu.append((action.p * zeta) ^ (action.r * xi))
        for l, lp in fam.face_opposite_edges[i]:
            parity = ((t_bits >> l) & 1) ^ ((t_bits >> lp) & 1) ^ zu[0] ^ zu[1]
            if parity:
                return False
    return True


def logical_error_test(final_label: int, frame_label: int, stage: StageContext) -> bool:
    """Passes unless the decoder's best coset differs from the truth by a
    non-trivial undetectable class. Detectable disagreements are transient
    (subsequent syndromes resolve them) and do not end the encoded
    computation; an undetectable one is an unrecoverable logical error."""
    delta = final_label ^ frame_label
    return delta not in stage.nontrivial_logical_labels


def run_trial(config: ProtocolConfig, trial_index: int, observer=None) -> TrialResult:
    fam = family15()
    rng = np.random.default_rng([config.seed, trial_index])
    frame = PauliFrame(N_QUBITS)
    rho = init_likelihood(fam.t_stage.layout, config.decoder)
    mem = rho.memory_input(fam.base_stage.code.coset_map, config.p)

    gates = retries = rounds = 0
    consecutive_fails = 0
    last_pass = True
    identity = CLIFFORD_CLASSES[0]
    c_round, t_round = fam.rounds

    def play(rnd: Round) -> int | None:
        """Run one round; its observed syndrome, or None on a logical error."""
        rho.deform(rnd.merge)
        a, b = sample_memory_error(config.p, N_QUBITS, rng)
        frame.apply(a, b)
        rho.apply_memory(*mem)
        ideal = fam.ideal_c_syndromes(frame) if rnd.kind == "C" else fam.ideal_t_syndromes(frame)
        observed = flip_syndrome(config.p, ideal, rnd.syndrome.width, rng)
        rho.measure(rnd.split, rnd.syndrome, observed, config.p, config.eps)
        if observer is not None:
            observer(rnd.kind, rnd.stage, rho, frame)
        if not logical_error_test(rho.final_coset(), rnd.stage.frame_label(frame), rnd.stage):
            return None
        return observed

    while True:
        rounds += 1
        observed_c = play(c_round)
        if observed_c is None:
            return TrialResult(gates, "logical_error", retries, rounds)
        if last_pass:
            action = sample_clifford(rng)
            rho.apply_clifford(action)
            action.apply_frame(frame)
            gates += 1
        else:
            action = identity
        if gates >= config.max_gates:
            return TrialResult(gates, "max_gates_reached", retries, rounds)

        rounds += 1
        observed_t = play(t_round)
        if observed_t is None:
            return TrialResult(gates, "logical_error", retries, rounds)
        if syndrome_test(fam, observed_c, observed_t, action):
            last_pass = True
            consecutive_fails = 0
            alpha_star = rho.choose_recovery()
            frame.a ^= fam.recovery_vector(alpha_star)
            alpha_res = fam.t_stage.code.coset_map.label_x(frame.a)
            if not fam.table.is_cleanable(alpha_res):
                return TrialResult(gates, "cleanability_failure", retries, rounds)
            rho.apply_t_gate(fam.t_update)
            propagate_through_t(frame, fam.prop, rng)
            frame.a ^= random_element(fam.doubled.t_space, rng)
            gates += 1
            if gates >= config.max_gates:
                return TrialResult(gates, "max_gates_reached", retries, rounds)
        else:
            last_pass = False
            retries += 1
            consecutive_fails += 1
            if consecutive_fails > config.max_retry_rounds:
                return TrialResult(gates, "retry_limit", retries, rounds)


def run_trials(config: ProtocolConfig) -> list[TrialResult]:
    workers = min(config.threads, config.trials)
    if workers <= 1:
        return [run_trial(config, i) for i in range(config.trials)]
    from concurrent.futures import ProcessPoolExecutor

    # About four chunks per worker, as multiprocessing.Pool.map chooses, so
    # every worker gets trials and a slow chunk leaves little idle time.
    chunksize = -(-config.trials // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_trial, itertools.repeat(config), range(config.trials),
                             chunksize=chunksize))


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    p: float
    trials: int
    mean_gates: float
    p_l: float | None
    stderr: float | None
    p_l_upper: float | None
    n_logical: int
    n_cleanability: int
    n_censored: int
    n_retry_limit: int
    mean_retries: float
    p_l_geometric: float | None
    wall_seconds: float

    def csv_row(self) -> dict:
        return {
            "p": self.p,
            "trials": self.trials,
            "mean_gates": f"{self.mean_gates:.6g}",
            "p_L": "" if self.p_l is None else f"{self.p_l:.6g}",
            "stderr": "" if self.stderr is None else f"{self.stderr:.3g}",
            "n_logical_failures": self.n_logical,
            "n_cleanability_failures": self.n_cleanability,
            "n_censored": self.n_censored,
            "mean_retries": f"{self.mean_retries:.6g}",
            "n_retry_limit": self.n_retry_limit,
            "p_L_geometric": "" if self.p_l_geometric is None else f"{self.p_l_geometric:.6g}",
            "wall_seconds": f"{self.wall_seconds:.3f}",
        }


def jackknife_inverse_mean(values: list[int]) -> float:
    """Jackknife standard error of 1/mean over the given samples.

    A leave-one-out mean of 0 makes that estimate of 1/mean infinite: the
    error is then inf, or nan when every sample is 0 and 1/mean itself is inf.
    """
    n = len(values)
    if n < 2:
        return float("nan")
    total = sum(values)
    if total == 0:
        return float("nan")
    if any(total == v for v in values):
        return float("inf")
    leave_out = [(n - 1) / (total - v) for v in values]
    mean_theta = sum(leave_out) / n
    var = (n - 1) / n * sum((t - mean_theta) ** 2 for t in leave_out)
    return math.sqrt(var)


def estimate_pl(config: ProtocolConfig, results: list[TrialResult] | None = None) -> Estimate:
    if results is None:
        family15()  # the one-time precompute is not part of the run's wall time
        start = time.monotonic()
        results = run_trials(config)
        wall = time.monotonic() - start
    else:
        wall = 0.0
    failing = [r.gates_implemented for r in results
               if r.termination in ("logical_error", "cleanability_failure")]
    all_gates = [r.gates_implemented for r in results]
    counts = {t: sum(1 for r in results if r.termination == t) for t in TERMINATIONS}
    mean_gates = sum(all_gates) / len(all_gates)
    # Geometric MLE over every trial: censored and retry-limit trials add
    # gates but no failure.
    if sum(all_gates):
        p_l_geometric = len(failing) / sum(all_gates)
    else:
        p_l_geometric = float("inf") if failing else None
    if failing:
        mean_fail = sum(failing) / len(failing)
        p_l = float("inf") if mean_fail == 0 else 1.0 / mean_fail
        stderr = jackknife_inverse_mean(failing)
        upper = None
    else:
        p_l, stderr = None, None
        upper = 1.0 / mean_gates if mean_gates else None
    return Estimate(
        p=config.p,
        trials=config.trials,
        mean_gates=mean_gates,
        p_l=p_l,
        stderr=stderr,
        p_l_upper=upper,
        n_logical=counts["logical_error"],
        n_cleanability=counts["cleanability_failure"],
        n_censored=counts["max_gates_reached"],
        n_retry_limit=counts["retry_limit"],
        mean_retries=sum(r.retries for r in results) / len(results),
        p_l_geometric=p_l_geometric,
        wall_seconds=wall,
    )
