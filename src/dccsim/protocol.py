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
records. The frame side reads them too: a round's ideal syndrome is its
syndrome map read at the frame's label, which is two lookups in the stage's
coset-map label tables (csscode.CosetMap), and the pair test checks the
parities of the two rounds' concatenated outcomes against masks built once
from the C-round's syndrome layout and the faces' opposite-edge pairs.

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

import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import f2
from .codefamily import cached_doubled
from .csscode import CleanabilityTable, SubsystemCode, build_cleanability_table, make_code
from .decoder import (
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
from .settings import ProtocolConfig

N_QUBITS = 15


@dataclass(frozen=True)
class StageContext:
    """One code of the deformation cycle with its label bookkeeping. A
    frame's label is two lookups, in the coset map's label tables."""

    name: str
    code: SubsystemCode
    layout: LabelLayout
    logical_x: int
    logical_z: int
    nontrivial_logical_labels: frozenset[int]

    def frame_label(self, frame: PauliFrame) -> int:
        cm = self.code.coset_map
        return int(cm.x_labels[frame.a] | cm.z_labels[frame.b] << self.layout.alpha_bits)


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
            logical_x, logical_z = cm.label(ones, 0), cm.label(0, ones)
            return StageContext(
                name=name,
                code=code,
                layout=LabelLayout(cm.alpha_bits, cm.beta_bits),
                logical_x=logical_x,
                logical_z=logical_z,
                nontrivial_logical_labels=frozenset({logical_x, logical_z, logical_x ^ logical_z}),
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

        # Measured generators. C-round: the xi block, then the zeta block, of
        # the seven faces; T-round: zeta of the nine double edges.
        faces_measured = faces_a + faces_b + generators("omega_link")
        zeta_rows = tuple(_express(rows_c, g) for g in faces_measured)
        xi_rows = tuple(z << lay_c.alpha_bits for z in zeta_rows)
        self.m_c = SyndromeMap(xi_rows + zeta_rows, lay_c)
        self.m_t = SyndromeMap(tuple(_express(rows_dot_t, g) for g in edges), lay_t)

        # The pair test's parity checks on c_bits | t_bits << m_c.width, per
        # Clifford (p, r): for each square face and each of its opposite-edge
        # pairs (l, l') with l + l' = face, the two edge outcomes and the
        # predicted post-gate Z syndrome p zeta + r xi of the face on both
        # copies. Face k's xi bit is k and its zeta bit k + len(faces_measured).
        self.pair_masks = {}
        for p, r in {(cls.p, cls.r) for cls in CLIFFORD_CLASSES}:
            masks = []
            for i in range(len(lat.faces)):
                face = 0
                for k in (i, len(faces_a) + i):
                    face |= (r << k) | (p << (k + len(faces_measured)))
                for l, lp in lat.opposite_edge_pairs(i):
                    masks.append(face | ((1 << l) | (1 << lp)) << self.m_c.width)
            self.pair_masks[p, r] = tuple(masks)

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

        self.table: CleanabilityTable = build_cleanability_table(t_code, doubled.witness_t)
        self.prop = TPropagator(self.table)
        self.t_update: TGateUpdate = build_t_gate_update(self.table)

        # Recovery vector of every X label, spanned by a linear section: the
        # first vector r_k with label_x(r_k) = e_k (make_code checked mat_b to
        # be a basis, so there is one). Any section serves: a trial reads the
        # recovered X part only through its label, which the label map's
        # linearity makes the same for every section, and
        # propagate_through_t then replaces it by that label's representative.
        x_labels = t_code.coset_map.x_labels
        section = [int(np.argmax(x_labels == 1 << k)) for k in range(lay_t.alpha_bits)]
        self._recovery = f2.enumerate_span(section, N_QUBITS).tolist()

    def recovery_vector(self, alpha: int) -> int:
        return self._recovery[alpha]

    # -- frame-side measurements ----------------------------------------------

    def ideal_c_syndromes(self, frame: PauliFrame) -> int:
        return int(self.m_c.table[self.c_stage.frame_label(frame)])

    def ideal_t_syndromes(self, frame: PauliFrame) -> int:
        return int(self.m_t.table[self.t_stage.frame_label(frame)])


@lru_cache(maxsize=1)
def family15() -> Family15:
    return Family15()


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------

TERMINATIONS = ("logical_error", "cleanability_failure", "max_gates_reached", "retry_limit")
# A trial whose syndrome tests fail more times in a row than this ends as "retry_limit".
MAX_RETRY_ROUNDS = 100


@dataclass(frozen=True)
class TrialResult:
    gates_implemented: int
    termination: str
    retries: int
    rounds: int


def syndrome_test(fam: Family15, c_bits: int, t_bits: int, action: CliffordAction) -> bool:
    """Consistency of a C,T round pair: for every square face and each of its
    opposite-edge pairs, the two edge outcomes must agree with the predicted
    post-gate Z syndromes of the face on both copies (`Family15.pair_masks`)."""
    word = c_bits | t_bits << fam.m_c.width
    return not any((word & mask).bit_count() & 1 for mask in fam.pair_masks[action.p, action.r])


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
    frame = PauliFrame()
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
            alpha_res = int(fam.t_stage.code.coset_map.x_labels[frame.a])
            if not fam.table.is_cleanable(alpha_res):
                return TrialResult(gates, "cleanability_failure", retries, rounds)
            rho.apply_t_gate(fam.t_update)
            propagate_through_t(frame, fam.prop, alpha_res, rng)
            frame.a ^= random_element(fam.doubled.t_space, rng)
            gates += 1
            if gates >= config.max_gates:
                return TrialResult(gates, "max_gates_reached", retries, rounds)
        else:
            last_pass = False
            retries += 1
            consecutive_fails += 1
            if consecutive_fails > MAX_RETRY_ROUNDS:
                return TrialResult(gates, "retry_limit", retries, rounds)


def run_trials(config: ProtocolConfig) -> list[TrialResult]:
    # The pool may start all of its workers at once: at most one per core.
    workers = min(config.threads, config.trials, os.cpu_count() or 1)
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
    else:
        p_l, stderr = None, None
    return Estimate(
        p=config.p,
        trials=config.trials,
        mean_gates=mean_gates,
        p_l=p_l,
        stderr=stderr,
        n_logical=counts["logical_error"],
        n_cleanability=counts["cleanability_failure"],
        n_censored=counts["max_gates_reached"],
        n_retry_limit=counts["retry_limit"],
        mean_retries=sum(r.retries for r in results) / len(results),
        p_l_geometric=p_l_geometric,
        wall_seconds=wall,
    )
