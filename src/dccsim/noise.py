"""Noise sampling, Pauli frames, and error propagation through transversal gates.

The simulator's ground truth is a phase-free Pauli frame (a, b): X on the
support of a, Z on the support of b, composed by XOR. Memory noise is
single-qubit depolarizing (X, Y, Z each with probability p/3), and each
measured syndrome bit flips independently with the same probability p.
A single-qubit Clifford acts on frames through four bits, the images of X
and Z modulo phases; a uniform draw over the 24-element group keeps only
its class, one of six.

Transversal T gates convert X-support into random Z errors. For a frame
whose X part lies in a cleanable coset (the caller labels the coset and
checks it), the X part is first replaced by the stored clean
representative e of its coset (a gauge-equivalent substitution, the one
place the simulator edits the true error), then a vector f inside e is
drawn from the distribution

    P(f|e) = 2^-|e| * prod_a [1 + (-1)^(f.g^a + (|g^a & M+| - |g^a & M-|)/2)]

over a basis g^a of the radical of B_e = {b in B : b inside e}, and XORed
into the Z part; the gate is T on the witness's sites M+ and T-dagger on
its sites M-. The vectors inside e orthogonal to B_e are the restrictions
to e of B-perp = A + <1> (B is even and A = dot(B)), the vectors
g = A^T beta & e; the radical is those g in B, the nonzero entries of the T
gate's Gamma in the column of e's coset.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import f2
from .csscode import CleanabilityTable


@dataclass
class PauliFrame:
    """Accumulated Pauli error: X on support(a), Z on support(b)."""

    a: int = 0
    b: int = 0

    def apply(self, a: int, b: int) -> None:
        self.a ^= a
        self.b ^= b


def _pack(mask: np.ndarray) -> int:
    """The integer whose bit j is mask[j]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def sample_memory_error(p: float, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Depolarizing draw: per qubit identity w.p. 1-p, else X, Y, or Z."""
    if p == 0.0:
        return 0, 0
    hit = rng.random(n) < p
    kinds = rng.integers(0, 3, size=n)  # 0=X, 1=Y, 2=Z
    if not hit.any():  # most draws at small p
        return 0, 0
    return _pack(hit & (kinds != 2)), _pack(hit & (kinds != 0))


def flip_syndrome(q: float, bits: int, width: int, rng: np.random.Generator) -> int:
    """XOR each of `width` syndrome bits with an independent Bernoulli(q) flip."""
    if q == 0.0:
        return bits
    return bits ^ _pack(rng.random(width) < q)


# ---------------------------------------------------------------------------
# Single-qubit Clifford actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliffordAction:
    """Conjugation action of a single-qubit Clifford on Pauli frames.

    Four bits: U X U^-1 ~ X^p Z^q and U Z U^-1 ~ X^r Z^s. A transversal
    layer maps the frame (a, b) to (p a + r b, q a + s b). The predictor of
    a post-gate Z(f) syndrome from pre-gate records is p * zeta(f) + r * xi(f).
    """

    name: str
    p: int
    q: int
    r: int
    s: int

    def apply_frame(self, frame: PauliFrame) -> None:
        a = (frame.a if self.p else 0) ^ (frame.b if self.r else 0)
        b = (frame.a if self.q else 0) ^ (frame.b if self.s else 0)
        frame.a, frame.b = a, b


# The six conjugation classes (Clifford group modulo Paulis), i.e. the
# permutations of {X, Y, Z}.
CLIFFORD_CLASSES: tuple[CliffordAction, ...] = (
    CliffordAction("I", 1, 0, 0, 1),
    CliffordAction("H", 0, 1, 1, 0),          # X <-> Z
    CliffordAction("S", 1, 1, 0, 1),          # X -> Y
    CliffordAction("HS", 1, 1, 1, 0),         # X -> Y -> Z -> X
    CliffordAction("SH", 0, 1, 1, 1),         # X -> Z -> Y -> X
    CliffordAction("HSH", 1, 0, 1, 1),        # Z -> Y
)


def sample_clifford(rng: np.random.Generator) -> CliffordAction:
    """Uniform draw over the 24 single-qubit Cliffords modulo phases, each a
    Pauli layer (acting trivially on frames, cosets and syndrome predictors)
    times a class: draw k is Pauli k % 4 times class k // 4, and only the
    class acts."""
    return CLIFFORD_CLASSES[int(rng.integers(0, 24)) // 4]


# ---------------------------------------------------------------------------
# Propagation through transversal T
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetPropagation:
    """Sampling data for one cleanable coset.

    positions: support of its clean representative e (table.rep).
    radical: basis of {g in B : g inside e} intersected with its own
        orthogonal complement, as vectors on the full qubit line.
    particular / kernel: solution structure of the parity constraints
        f . g^a = |g^a|/2 (mod 2) over f inside e, in e-local coordinates.
    """

    positions: tuple[int, ...]
    radical: tuple[int, ...]
    particular: int
    kernel: tuple[int, ...]


class TPropagator:
    """Per-coset propagation tables for the regular T-transversal code of a
    cleanability table (build_cleanability_table refuses any other code).

    A coset's radical is spanned by the A^T beta & e(alpha) at the nonzero
    entries of Gamma's column alpha (see the module docstring). Its table is
    built the first time coset() or sample_f asks for it, then cached: a run
    meets only a few of the cleanable cosets.
    """

    def __init__(self, table: CleanabilityTable):
        self.table = table
        self._cosets: dict[int, CosetPropagation] = {}

    def coset(self, alpha: int) -> CosetPropagation:
        cp = self._cosets.get(alpha)
        if cp is None:
            cp = self._cosets[alpha] = self._build(alpha)
        return cp

    def _build(self, alpha: int) -> CosetPropagation:
        e = self.table.rep(alpha)
        members = self.table.at_beta[self.table.gamma_hat[:, alpha] != 0] & np.uint64(e)
        radical = f2.Subspace(self.table.code.n, members.tolist()).basis
        positions = f2.support(e)
        rows = [f2.restrict(g, positions) for g in radical]
        w = self.table.witness
        rhs = [(((g & w.plus).bit_count() - (g & w.minus).bit_count()) >> 1) & 1 for g in radical]
        particular = f2.solve_linear(rows, rhs, len(positions))
        if particular is None:
            raise AssertionError("propagation constraints are inconsistent")
        return CosetPropagation(
            positions=positions,
            radical=radical,
            particular=particular,
            kernel=f2.nullspace(rows, len(positions)),
        )

    def sample_f(self, alpha: int, rng: np.random.Generator) -> int:
        """Draw f ~ P(f|e(alpha)), returned on the full qubit line."""
        cp = self.coset(alpha)
        x = cp.particular
        if cp.kernel:
            picks = rng.integers(0, 2, size=len(cp.kernel))
            for k, take in zip(cp.kernel, picks):
                if take:
                    x ^= k
        return f2.embed(x, cp.positions)


def propagate_through_t(frame: PauliFrame, prop: TPropagator, alpha: int,
                        rng: np.random.Generator) -> None:
    """Replace the X part, of cleanable X label alpha, by its clean
    representative and add the sampled Z error. A non-cleanable alpha has
    no representative: the lookup raises KeyError before the frame changes."""
    frame.a = prop.table.rep(alpha)
    frame.b ^= prop.sample_f(alpha, rng)


def random_element(space: f2.Subspace, rng: np.random.Generator) -> int:
    """Uniform element of a subspace: the XOR of a uniform subset of its basis."""
    if not space.dim:
        return 0
    picks = rng.integers(0, 2, size=space.dim).tolist()
    return functools.reduce(operator.xor, itertools.compress(space.basis, picks), 0)
