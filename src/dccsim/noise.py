"""Noise sampling, Pauli frames, and error propagation through transversal gates.

The simulator's ground truth is a phase-free Pauli frame (a, b): X on the
support of a, Z on the support of b, composed by XOR. Memory noise is
single-qubit depolarizing (X, Y, Z each with probability p/3), and each
measured syndrome bit flips independently with the same probability p.

Transversal T gates convert X-support into random Z errors. For a frame
whose X part lies in a cleanable coset, the X part is first replaced by the
stored clean representative e of its coset (a gauge-equivalent substitution,
the one place the simulator edits the true error), then a vector f inside e
is drawn from the distribution

    P(f|e) = 2^-|e| * prod_a [1 + (-1)^(f.g^a + |g^a|/2)]

over a basis g^a of the radical of B_e = {b in B : b inside e}, and XORed
into the Z part. The vectors inside e orthogonal to B_e are the restrictions
to e of B-perp = A + <1> (B is even and A = dot(B)), the vectors
g = A^T beta & e; the radical is those g in B, the nonzero entries of the T
gate's Gamma in the column of e's coset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import f2
from .csscode import CleanabilityTable, SubsystemCode


@dataclass
class PauliFrame:
    """Accumulated Pauli error: X on support(a), Z on support(b)."""

    n: int
    a: int = 0
    b: int = 0

    def apply(self, a: int, b: int) -> None:
        self.a ^= a
        self.b ^= b

    def copy(self) -> "PauliFrame":
        return PauliFrame(self.n, self.a, self.b)


def sample_memory_error(p: float, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Depolarizing draw: per qubit identity w.p. 1-p, else X, Y, or Z."""
    if p == 0.0:
        return 0, 0
    hit = rng.random(n) < p
    kinds = rng.integers(0, 3, size=n)  # 0=X, 1=Y, 2=Z
    a = b = 0
    for j in np.flatnonzero(hit):
        k = kinds[j]
        if k != 2:
            a |= 1 << int(j)
        if k != 0:
            b |= 1 << int(j)
    return a, b


def flip_syndrome(q: float, bits: int, width: int, rng: np.random.Generator) -> int:
    """XOR each of `width` syndrome bits with an independent Bernoulli(q) flip."""
    if q == 0.0:
        return bits
    flips = rng.random(width) < q
    for i in np.flatnonzero(flips):
        bits ^= 1 << int(i)
    return bits


# ---------------------------------------------------------------------------
# Single-qubit Clifford actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliffordAction:
    """Conjugation action of a single-qubit Clifford on Pauli frames.

    img_x = (p, q) with U X U^-1 ~ X^p Z^q and img_z = (r, s) with
    U Z U^-1 ~ X^r Z^s. A transversal layer maps the frame (a, b) to
    (p a + r b, q a + s b). The predictor of a post-gate Z(f) syndrome from
    pre-gate records is p * zeta(f) + r * xi(f).
    """

    name: str
    img_x: tuple[int, int]
    img_z: tuple[int, int]

    @property
    def p(self) -> int:
        return self.img_x[0]

    @property
    def q(self) -> int:
        return self.img_x[1]

    @property
    def r(self) -> int:
        return self.img_z[0]

    @property
    def s(self) -> int:
        return self.img_z[1]

    def apply_frame(self, frame: PauliFrame) -> None:
        a = (frame.a if self.p else 0) ^ (frame.b if self.r else 0)
        b = (frame.a if self.q else 0) ^ (frame.b if self.s else 0)
        frame.a, frame.b = a, b


# The six conjugation classes (Clifford group modulo Paulis), i.e. the
# permutations of {X, Y, Z}.
CLIFFORD_CLASSES: tuple[CliffordAction, ...] = (
    CliffordAction("I", (1, 0), (0, 1)),
    CliffordAction("H", (0, 1), (1, 0)),          # X <-> Z
    CliffordAction("S", (1, 1), (0, 1)),          # X -> Y
    CliffordAction("HS", (1, 1), (1, 0)),         # X -> Y -> Z -> X
    CliffordAction("SH", (0, 1), (1, 1)),         # X -> Z -> Y -> X
    CliffordAction("HSH", (1, 0), (1, 1)),        # Z -> Y
)

# All 24 single-qubit Cliffords modulo phases: a Pauli layer (acting
# trivially on frames, cosets, and syndrome predictors) times a class.
CLIFFORD_GROUP: tuple[tuple[str, int], ...] = tuple(
    (f"{pauli}*{cls.name}", idx)
    for idx, cls in enumerate(CLIFFORD_CLASSES)
    for pauli in ("I", "X", "Y", "Z")
)


def sample_clifford(rng: np.random.Generator) -> CliffordAction:
    """Uniform draw over the 24-element Clifford group; only the class acts."""
    _, idx = CLIFFORD_GROUP[int(rng.integers(0, len(CLIFFORD_GROUP)))]
    return CLIFFORD_CLASSES[idx]


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
    """Per-coset propagation tables for a regular T-transversal code.

    A coset's radical is spanned by the A^T beta & e(alpha) at the nonzero
    entries of Gamma's column alpha (see the module docstring). Its table is
    built the first time coset() or sample_f asks for it, then cached: a run
    meets only a few of the cleanable cosets.
    """

    def __init__(self, code: SubsystemCode, table: CleanabilityTable):
        if not code.is_regular:
            raise ValueError("propagation requires a regular code")
        self.code = code
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
        radical = f2.Subspace(self.code.n, members.tolist()).basis
        positions = f2.support(e)
        rows = [f2.restrict(g, positions) for g in radical]
        rhs = [(g.bit_count() // 2) & 1 for g in radical]
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


def p_f_given_e(prop: TPropagator, alpha: int) -> dict[int, float]:
    """Exact distribution of f inside e(alpha), by the product formula."""
    cp = prop.coset(alpha)
    k = len(cp.positions)
    out: dict[int, float] = {}
    r_loc = [(f2.restrict(g, cp.positions), (g.bit_count() // 2) & 1) for g in cp.radical]
    for x in range(1 << k):
        p = 2.0 ** -k
        for g, half in r_loc:
            p *= 1.0 + (-1.0) ** ((f2.dot(x, g) + half) % 2)
        if p:
            out[f2.embed(x, cp.positions)] = p
    return out


def p_f_given_e_charsum(prop: TPropagator, alpha: int) -> dict[int, float]:
    """Same distribution by the character sum over the full self-orthogonal
    subgroup inside e; independent route for cross-checking."""
    cp = prop.coset(alpha)
    k = len(cp.positions)
    sub = f2.Subspace(prop.code.n, cp.radical)
    elements = [int(v) for v in sub.element_array()]
    out: dict[int, float] = {}
    for x in range(1 << k):
        fvec = f2.embed(x, cp.positions)
        acc = 0.0
        for g in elements:
            acc += (-1.0) ** ((f2.dot(fvec, g) + (g.bit_count() // 2)) % 2)
        val = acc * 2.0 ** -k
        if abs(val) > 1e-15:
            out[fvec] = val
    return out


def propagate_through_t(frame: PauliFrame, prop: TPropagator, rng: np.random.Generator) -> None:
    """Replace the X part by its clean representative and add the sampled
    Z error; raises if the X coset is not cleanable."""
    alpha = prop.code.coset_map.label_x(frame.a)
    if not prop.table.is_cleanable(alpha):
        raise ValueError("X part lies in a non-cleanable coset")
    frame.a = prop.table.rep(alpha)
    frame.b ^= prop.sample_f(alpha, rng)


def random_element(space: f2.Subspace, rng: np.random.Generator) -> int:
    """Uniform element of a subspace."""
    v = 0
    if space.dim:
        picks = rng.integers(0, 2, size=space.dim)
        for row, take in zip(space.basis, picks):
            if take:
                v ^= row
    return v
