"""Subsystem CSS codes built from a pair of even, mutually orthogonal subspaces.

A code is the pair (A, B) of GF(2) subspaces on an odd number of qubits with
A and B orthogonal and all generators of even weight. X-stabilizers come from
A, Z-stabilizers from B; the gauge group is generated by dot(B) (X side) and
dot(A) (Z side), and X_L = X(1...1), Z_L = Z(1...1) are the logical operators.

Pauli errors X(a)Z(b) are tracked modulo the gauge group through packed coset
labels (matB.a in the low bits, matA.b above them), where matA and matB
generate A+<1> and B+<1>. Two errors get equal labels iff they differ by a
gauge element, which is what the decoder and the Monte Carlo both rely on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import f2
from .f2 import CapacityError, Subspace

CLEANABILITY_QUBIT_LIMIT = 25


class CodeConstructionError(ValueError):
    """A make_code precondition failed; the message names the condition."""


@dataclass(frozen=True)
class EvennessWitness:
    """Disjoint site sets M+ / M- certifying a mod-4 or mod-8 weight condition."""

    plus: int          # packed site mask
    minus: int
    order: int         # 4 or 8

    def __post_init__(self) -> None:
        if self.order not in (4, 8):
            raise ValueError("order must be 4 or 8")
        if self.plus & self.minus:
            raise ValueError("witness sets must be disjoint")
        if self.plus == 0 and self.minus == 0:
            raise ValueError("at least one witness set must be non-empty")

    @classmethod
    def from_sites(cls, plus: Iterable[int], minus: Iterable[int], order: int) -> "EvennessWitness":
        return cls(f2.vector_from_support(plus), f2.vector_from_support(minus), order)

    @property
    def m(self) -> int:
        """Signed size |M+| - |M-|."""
        return self.plus.bit_count() - self.minus.bit_count()

    def signed_overlap(self, v: int) -> int:
        return (v & self.plus).bit_count() - (v & self.minus).bit_count()

    def embed(self, positions: Sequence[int]) -> "EvennessWitness":
        """Witness with sites remapped by an index embedding (site i -> positions[i])."""
        return EvennessWitness(
            f2.embed(self.plus, positions), f2.embed(self.minus, positions), self.order
        )

    def to_json(self) -> dict:
        return {
            "plus": list(f2.support(self.plus)),
            "minus": list(f2.support(self.minus)),
            "order": self.order,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EvennessWitness":
        return cls.from_sites(obj["plus"], obj["minus"], obj["order"])


def check_evenness(s: Subspace, witness: EvennessWitness) -> bool:
    """Whether |f & M+| - |f & M-| vanishes mod `order` for every f in S.

    The weight of an XOR expands as sum w(x_i) - 2 sum w(x_i & x_j)
    + 4 sum w(x_i & x_j & x_k) - ..., so the basis conditions mod `order`,
    the pairwise intersection conditions mod order/2 and, for order 8, the
    triple intersection conditions mod 2 are necessary and sufficient for
    the whole space.
    """
    w = witness
    basis = s.basis
    if any(w.signed_overlap(b) % w.order for b in basis):
        return False
    half = w.order // 2
    for i, j in itertools.combinations(range(len(basis)), 2):
        if w.signed_overlap(basis[i] & basis[j]) % half:
            return False
    if w.order == 8:
        for i, j, k in itertools.combinations(range(len(basis)), 3):
            if w.signed_overlap(basis[i] & basis[j] & basis[k]) % 2:
                return False
    return True


@dataclass(frozen=True)
class CosetMap:
    """Label map for Pauli errors modulo the gauge group.

    mat_b rows generate B+<1> and act on the X part a; mat_a rows generate
    A+<1> and act on the Z part b. label(a, b) packs mat_b.a into the low
    len(mat_b) bits and mat_a.b above them.
    """

    n: int
    mat_a: tuple[int, ...]
    mat_b: tuple[int, ...]

    @property
    def alpha_bits(self) -> int:
        return len(self.mat_b)

    @property
    def beta_bits(self) -> int:
        return len(self.mat_a)

    @property
    def c(self) -> int:
        return self.alpha_bits + self.beta_bits

    def label_x(self, a: int) -> int:
        out = 0
        for i, row in enumerate(self.mat_b):
            out |= ((row & a).bit_count() & 1) << i
        return out

    def label_z(self, b: int) -> int:
        out = 0
        for i, row in enumerate(self.mat_a):
            out |= ((row & b).bit_count() & 1) << i
        return out

    def label(self, a: int, b: int) -> int:
        return self.label_x(a) | (self.label_z(b) << self.alpha_bits)


class SubsystemCode:
    """CSS code defined by (A, B); see the module docstring for conventions."""

    def __init__(self, a_space: Subspace, b_space: Subspace, coset_map: CosetMap):
        self.n = a_space.n
        self.a_space = a_space
        self.b_space = b_space
        self.coset_map = coset_map

    @cached_property
    def dot_a(self) -> Subspace:
        """Z-type gauge generators."""
        return self.a_space.dot_space()

    @cached_property
    def dot_b(self) -> Subspace:
        """X-type gauge generators."""
        return self.b_space.dot_space()

    @property
    def is_regular(self) -> bool:
        return self.a_space == self.dot_b

    def distance(self, max_weight: int | None = None) -> int | None:
        da = f2.min_odd_weight(self.a_space, max_weight)
        db = f2.min_odd_weight(self.b_space, max_weight)
        if da is None or db is None:
            return None
        return min(da, db)


def make_code(
    a_space: Subspace,
    b_space: Subspace,
    mat_a: Sequence[int] | None = None,
    mat_b: Sequence[int] | None = None,
) -> SubsystemCode:
    """Build a subsystem CSS code, validating the structural preconditions.

    Explicit mat_a / mat_b rows may be supplied to fix the label basis (the
    protocol uses this to nest the label spaces of deformed codes); they must
    generate A+<1> and B+<1> exactly.
    """
    n = a_space.n
    if b_space.n != n:
        raise CodeConstructionError("A and B have different qubit counts")
    if n % 2 == 0:
        raise CodeConstructionError("qubit count must be odd")
    for space, name in ((a_space, "A"), (b_space, "B")):
        if any(v.bit_count() & 1 for v in space.basis):
            raise CodeConstructionError(f"{name} is not contained in the even subspace")
    # Row x of A is orthogonal to all of B iff the columns of B's basis at
    # the sites of x XOR to zero.
    cols = f2.columns(b_space.basis, n)
    for x in a_space.basis:
        if f2.xor_at_sites(cols, x):
            raise CodeConstructionError("A and B are not mutually orthogonal")
    ones = (1 << n) - 1
    label_rows = []
    for rows, space, name in ((mat_a, a_space, "mat_a"), (mat_b, b_space, "mat_b")):
        if rows is None:
            # A basis of the even space plus the odd all-ones vector.
            rows = space.basis + (ones,)
        else:
            rows = tuple(rows)
            target = space + Subspace(n, [ones])
            if Subspace(n, rows) != target or len(rows) != target.dim:
                raise CodeConstructionError(f"{name} rows do not form a basis of the space plus <1>")
        label_rows.append(rows)
    return SubsystemCode(a_space, b_space, CosetMap(n, *label_rows))


def verify_transversality(
    code: SubsystemCode, gate: str, witness: EvennessWitness | None = None
) -> bool:
    """Sufficient-condition check for a transversal T, S, or H gate."""
    if gate == "H":
        return code.a_space == code.b_space
    if gate not in ("T", "S"):
        raise ValueError(f"unknown gate {gate!r}")
    if witness is None:
        raise ValueError(f"gate {gate} requires an evenness witness")
    if witness.m % 2 == 0:
        return False
    if gate == "T":
        if witness.order != 8 or code.b_space != code.dot_a:
            return False
        return check_evenness(code.a_space, witness)
    if witness.order != 4 or not code.b_space.contains_subspace(code.a_space):
        return False
    return check_evenness(code.a_space, witness)


# ---------------------------------------------------------------------------
# Cleanability
# ---------------------------------------------------------------------------

def odd_dual_vectors(a_space: Subspace) -> list[int]:
    """All odd-weight vectors of A-perp (undetectable non-trivial Z errors)."""
    perp = a_space.orthogonal_complement()
    if perp.dim > f2.FULL_ENUM_DIM_LIMIT:
        raise CapacityError("A-perp too large to enumerate")
    return [v for v in perp.elements() if v.bit_count() & 1]


def is_clean_representative(a_space: Subspace, e: int, odd_duals: Sequence[int] | None = None) -> bool:
    """No odd-weight vector of A-perp has support inside e."""
    if odd_duals is None:
        odd_duals = odd_dual_vectors(a_space)
    return all(g & ~e for g in odd_duals)


def clean_system_solvable(a_space: Subspace, e: int) -> bool:
    """Linear-system version of the representative test.

    Solves for g odd with g supported in e and g orthogonal to A; returns
    True when such g exists (so e fails the cleanability support test).
    """
    positions = f2.support(e)
    k = len(positions)
    rows = [f2.restrict(row, positions) for row in a_space.basis]
    rows.append((1 << k) - 1)
    rhs = [0] * a_space.dim + [1]
    return f2.solve_linear(rows, rhs, k) is not None


@dataclass(frozen=True)
class CleanabilityTable:
    """Per-coset cleanability of A with a stored clean representative.

    Cosets are keyed by the X label mat_b.e. Representatives are chosen of
    minimum weight with ties broken by the smallest packed bit pattern, so
    the table is deterministic.
    """

    code: SubsystemCode
    cleanable: frozenset[int]
    representative: dict[int, int]

    def is_cleanable(self, alpha: int) -> bool:
        return alpha in self.cleanable

    def rep(self, alpha: int) -> int:
        return self.representative[alpha]

    @cached_property
    def at_beta(self) -> np.ndarray:
        """A^T beta for every Z label beta: the elements of A + <1>."""
        return f2.enumerate_span(self.code.coset_map.mat_a, self.code.n)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """The T gate's Gamma, (2^beta_bits, 2^alpha_bits), read-only; the
        columns of non-cleanable alpha are zero.

        Entry (beta, alpha) is (-1)^(|g|/2) when g = A^T beta & e(alpha) lies
        in the radical of B_e = {b in B : b inside e}, and zero otherwise.
        That radical test is the test g in B: A^T beta lies in A + <1>, which
        is orthogonal to B (make_code checks A against B, and B is even), and
        g agrees with A^T beta on e, so g is orthogonal to all of B_e. A g in
        B is thus in B_e and in its radical, and the radical lies in B.
        """
        alphas = sorted(self.cleanable)
        reps = np.array([self.representative[alpha] for alpha in alphas], dtype=np.uint64)
        g = self.at_beta[:, np.newaxis] & reps
        in_b = np.ones(g.shape, dtype=bool)
        for check in self.code.b_space.parity_checks:
            in_b &= (np.bitwise_count(g & np.uint64(check)) & 1) == 0
        sign = np.where(np.bitwise_count(g) & 2, -1.0, 1.0)
        gamma = np.zeros((len(g), 1 << self.code.coset_map.alpha_bits), dtype=np.float64)
        gamma[:, alphas] = np.where(in_b, sign, 0.0)
        gamma.flags.writeable = False
        return gamma


def build_cleanability_table(code: SubsystemCode) -> CleanabilityTable:
    """Scan all of F2^n, marking cosets of A that admit a clean representative.

    A vector e is clean when it contains no odd vector of A-perp: when no g
    inside e has |g| odd and g.a = 0 for every a in A. That system has no
    solution exactly when the ones on e are the restriction to e of some a
    in A, i.e. when e lies inside an element of A. So marking A's elements
    and closing the marks under subsets, one bit at a time (v without bit j
    inherits the mark of v with it), marks exactly the clean vectors. The
    vectors, in value order, are stably sorted by weight, so the first clean
    vector of each label is its minimum-weight, smallest-pattern
    representative.
    """
    n = code.n
    if not code.is_regular:
        raise CodeConstructionError("cleanability table requires a regular code")
    if n > CLEANABILITY_QUBIT_LIMIT:
        raise CapacityError(f"cleanability scan over 2^{n} vectors is not supported")
    clean = np.zeros(1 << n, dtype=bool)
    clean[code.a_space.element_array()] = True
    for j in range(n):
        halves = clean.reshape(-1, 2, 1 << j)
        halves[:, 0, :] |= halves[:, 1, :]
    labels = f2.enumerate_span([code.coset_map.label_x(1 << j) for j in range(n)], n)
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    order = np.argsort(weights, kind="stable")
    order = order[clean[order]]
    alphas, first = np.unique(labels[order], return_index=True)
    alphas, reps = alphas.tolist(), order[first].tolist()
    return CleanabilityTable(code, frozenset(alphas), dict(zip(alphas, reps)))


# ---------------------------------------------------------------------------
# Code JSON
# ---------------------------------------------------------------------------

def code_to_json(
    name: str,
    n: int,
    a_space: Subspace,
    b_space: Subspace,
    witness: EvennessWitness | None,
) -> dict:
    obj = {
        "n": n,
        "name": name,
        "A": [f2.row_to_hex(row, n) for row in a_space.basis],
        "B": [f2.row_to_hex(row, n) for row in b_space.basis],
    }
    if witness is not None:
        obj["witness"] = witness.to_json()
    return obj


def spaces_from_json(obj: dict) -> tuple[int, Subspace, Subspace, EvennessWitness | None]:
    n = obj["n"]
    a = Subspace(n, [f2.hex_to_row(row, n) for row in obj["A"]])
    b = Subspace(n, [f2.hex_to_row(row, n) for row in obj["B"]])
    witness = EvennessWitness.from_json(obj["witness"]) if "witness" in obj else None
    return n, a, b, witness


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
