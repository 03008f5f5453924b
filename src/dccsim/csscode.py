"""Subsystem CSS codes built from a pair of even, mutually orthogonal subspaces.

A code is the pair (A, B) of GF(2) subspaces on an odd number of qubits with
A and B orthogonal and all generators of even weight. X-stabilizers come from
A, Z-stabilizers from B; the gauge group is generated by dot(B) (X side) and
dot(A) (Z side), and X_L = X(1...1), Z_L = Z(1...1) are the logical operators.
The code is regular, B = dot(A) and A = dot(B), exactly when
dim A + dim B = n - 1 (SubsystemCode.is_regular), so no dot space is built
to decide it.

Pauli errors X(a)Z(b) are tracked modulo the gauge group through packed coset
labels (matB.a in the low bits, matA.b above them), where matA and matB
generate A+<1> and B+<1>. Two errors get equal labels iff they differ by a
gauge element, which is what the decoder and the Monte Carlo both rely on.
Every label is read from the code's two label tables (CosetMap.label), so
labels exist only for codes of at most f2.FULL_ENUM_DIM_LIMIT qubits.

The code JSON that `build` writes and `verify` reads is laid out in
dccsim.cli alone; a witness converts itself (EvennessWitness.to_json and
from_json).

Only the tables use numpy: build_cleanability_table (the 2^n scan) and
CleanabilityTable.gamma_hat import it in their own bodies, and the label
tables (CosetMap.x_labels and z_labels, one per distinct row set, which
CosetMap.label and the scan read) and CleanabilityTable.at_beta are
read-only arrays from f2.enumerate_span. Codes, witnesses and the evenness
and transversality checks run on Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, KeysView, Sequence

from . import f2
from .f2 import CapacityError, Subspace

if TYPE_CHECKING:
    import numpy as np

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

    Each basis vector is split once into its parts on M+ and on M-; a
    basis or pairwise condition is then a difference of two popcounts of
    those parts (x_i & x_j & M+ is the AND of the two M+ parts). Sites at
    or above n meet no basis vector. The triple conditions are parities:
    for each pair i < j, one XOR of the basis columns at the sites of
    x_i & x_j & (M+ | M-) gives the triple parities against every basis row
    at once.
    """
    w, n, basis = witness, s.n, s.basis
    half = w.order // 2
    parts = [(x & w.plus, x & w.minus) for x in basis]
    for i, (plus, minus) in enumerate(parts):
        if (plus.bit_count() - minus.bit_count()) % w.order:
            return False
        for other_plus, other_minus in parts[i + 1:]:
            if ((plus & other_plus).bit_count() - (minus & other_minus).bit_count()) % half:
                return False
    if w.order == 8:
        cols = f2.columns(basis, n)
        sites = w.plus | w.minus
        for i, x in enumerate(basis):
            for j in range(i + 1, len(basis)):
                if f2.xor_at_sites(cols, x & basis[j] & sites) >> (j + 1):
                    return False
    return True


@dataclass(frozen=True)
class CosetMap:
    """Label map for Pauli errors modulo the gauge group.

    mat_b rows generate B+<1> and act on the X part a; mat_a rows generate
    A+<1> and act on the Z part b. x_labels and z_labels tabulate mat_b.a
    and mat_a.b over all of F2^n, and label(a, b) reads them, packing mat_b.a
    into the low alpha_bits bits and mat_a.b above them. The tables are the
    one route to a label, so a code above f2.FULL_ENUM_DIM_LIMIT qubits has
    none: label raises CapacityError there.
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

    def label(self, a: int, b: int) -> int:
        return self.x_labels.item(a) | self.z_labels.item(b) << self.alpha_bits

    @cached_property
    def x_labels(self) -> np.ndarray:
        """mat_b.a for every a in F2^n, by value."""
        return _label_table(self.mat_b, self.n)

    @cached_property
    def z_labels(self) -> np.ndarray:
        """mat_a.b for every b in F2^n, by value."""
        return _label_table(self.mat_a, self.n)


@lru_cache(maxsize=8)
def _label_table(rows: tuple[int, ...], n: int) -> np.ndarray:
    """The parities of rows against every n-bit vector, by value (bit i is
    the parity of rows[i] & v): one table per row set."""
    if n > f2.FULL_ENUM_DIM_LIMIT:
        raise CapacityError(f"label table over 2^{n} vectors is not supported")
    return f2.enumerate_span(f2.columns(rows, n), len(rows))


class SubsystemCode:
    """CSS code defined by (A, B); see the module docstring for conventions."""

    def __init__(self, a_space: Subspace, b_space: Subspace, coset_map: CosetMap):
        self.n = a_space.n
        self.a_space = a_space
        self.b_space = b_space
        self.coset_map = coset_map

    @property
    def is_regular(self) -> bool:
        """Whether B = dot(A), which holds iff A = dot(B), by counting.

        1-bar is odd and A is even, so dot(A) = (A + <1>)-perp has dimension
        n - 1 - dim A; make_code has placed B, even and orthogonal to A,
        inside it. So B = dot(A) iff dim A + dim B = n - 1, and by symmetry
        the same count says A = dot(B).
        """
        return self.a_space.dim + self.b_space.dim == self.n - 1


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
        if witness.order != 8 or not code.is_regular:
            return False
        return check_evenness(code.a_space, witness)
    if witness.order != 4 or not code.b_space.contains_subspace(code.a_space):
        return False
    return check_evenness(code.a_space, witness)


# ---------------------------------------------------------------------------
# Cleanability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CleanabilityTable:
    """Per-coset cleanability of A with a stored clean representative.

    The cleanable cosets are the keys, their X labels mat_b.e, ascending.
    Representatives are chosen of minimum weight with ties broken by the
    smallest packed bit pattern, so the table is deterministic.
    """

    code: SubsystemCode
    witness: EvennessWitness  # the T gate's sites: T on M+, T-dagger on M-
    representative: dict[int, int]

    @property
    def cleanable(self) -> KeysView[int]:
        return self.representative.keys()

    def is_cleanable(self, alpha: int) -> bool:
        return alpha in self.representative

    def rep(self, alpha: int) -> int:
        return self.representative[alpha]

    @cached_property
    def at_beta(self) -> np.ndarray:
        """A^T beta for every Z label beta: the elements of A + <1>, read-only."""
        return f2.enumerate_span(self.code.coset_map.mat_a, self.code.n)

    @cached_property
    def gamma_hat(self) -> np.ndarray:
        """The T gate's Gamma, (2^beta_bits, 2^alpha_bits), read-only; the
        columns of non-cleanable alpha are zero.

        Entry (beta, alpha) is (-1)^((|g & M+| - |g & M-|)/2), over the
        witness's sites, when g = A^T beta & e(alpha) lies in the radical of
        B_e = {b in B : b inside e}, and zero otherwise.
        That radical test is the test g in B: A^T beta lies in A + <1>, which
        is orthogonal to B (make_code checks A against B, and B is even), and
        g agrees with A^T beta on e, so g is orthogonal to all of B_e. A g in
        B is thus in B_e and in its radical, and the radical lies in B.
        """
        import numpy as np

        alphas = list(self.representative)
        reps = np.array(list(self.representative.values()), dtype=np.uint64)
        g = self.at_beta[:, np.newaxis] & reps
        in_b = np.ones(g.shape, dtype=bool)
        for check in self.code.b_space.parity_checks:
            in_b &= (np.bitwise_count(g & np.uint64(check)) & 1) == 0
        # The uint8 difference wraps modulo 256, which keeps its bit 1.
        plus, minus = np.uint64(self.witness.plus), np.uint64(self.witness.minus)
        imbalance = np.bitwise_count(g & plus) - np.bitwise_count(g & minus)
        sign = np.where(imbalance & 2, -1.0, 1.0)
        gamma = np.zeros((len(g), 1 << self.code.coset_map.alpha_bits), dtype=np.float64)
        gamma[:, alphas] = np.where(in_b, sign, 0.0)
        gamma.flags.writeable = False
        return gamma


def build_cleanability_table(code: SubsystemCode, witness: EvennessWitness) -> CleanabilityTable:
    """Scan all of F2^n, marking cosets of A that admit a clean representative.

    A vector e is clean when it contains no odd vector of A-perp: when no g
    inside e has |g| odd and g.a = 0 for every a in A. That system has no
    solution exactly when the ones on e are the restriction to e of some a
    in A, i.e. when e lies inside an element of A. So marking A's elements
    and closing the marks under subsets, one bit at a time (v without bit j
    inherits the mark of v with it), marks exactly the clean vectors. The
    vectors, in value order, are stably sorted by weight, so the first clean
    vector of each label (the code's X-label table) is its minimum-weight,
    smallest-pattern representative. P(f|e) models a gate on every site, so
    a witness whose M+ and M- leave a site out is refused, by its sites.
    """
    import numpy as np

    n = code.n
    if not code.is_regular:
        raise CodeConstructionError("cleanability table requires a regular code")
    if n > CLEANABILITY_QUBIT_LIMIT:
        raise CapacityError(f"cleanability scan over 2^{n} vectors is not supported")
    if uncovered := ((1 << n) - 1) & ~(witness.plus | witness.minus):
        raise CodeConstructionError(f"the T witness leaves sites {list(f2.support(uncovered))} ungated")
    clean = np.zeros(1 << n, dtype=bool)
    clean[code.a_space.element_array()] = True
    for j in range(n):
        halves = clean.reshape(-1, 2, 1 << j)
        halves[:, 0, :] |= halves[:, 1, :]
    weights = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    order = np.argsort(weights, kind="stable")
    order = order[clean[order]]
    alphas, first = np.unique(code.coset_map.x_labels[order], return_index=True)
    return CleanabilityTable(code, witness, dict(zip(alphas.tolist(), order[first].tolist())))
