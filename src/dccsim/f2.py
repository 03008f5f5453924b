"""Binary linear algebra on packed bit vectors.

Vectors over GF(2) are stored as Python ints (bit j = coordinate j) with an
explicit length. Subspaces keep their basis in reduced row echelon form with
the leftmost-pivot convention (pivot columns scanned from bit 0 upward), so
two subspaces are equal iff their canonical bases compare equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Full-space enumeration of S-perp is used below this dimension; above it a
# weight-limited search over odd-weight candidates is required.
FULL_ENUM_DIM_LIMIT = 25


class DimensionMismatchError(ValueError):
    """Operands live in binary spaces of different lengths."""


class NoOddVectorsError(ValueError):
    """S-perp contains no odd-weight vectors, so d(S) is undefined."""


def parity(x: int) -> int:
    return x.bit_count() & 1


def dot(x: int, y: int) -> int:
    """Inner product mod 2 of two packed vectors."""
    return (x & y).bit_count() & 1


def vector_from_support(support: Iterable[int]) -> int:
    bits = 0
    for j in support:
        bits |= 1 << j
    return bits


def support(x: int) -> tuple[int, ...]:
    out = []
    j = 0
    while x:
        if x & 1:
            out.append(j)
        x >>= 1
        j += 1
    return tuple(out)


def embed(bits: int, positions: Sequence[int]) -> int:
    """Insert the k-bit vector `bits` into the coordinates `positions`.

    positions[i] receives bit i; all other coordinates are zero.
    """
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= 1 << positions[i]
        bits >>= 1
        i += 1
    return out


def restrict(x: int, positions: Sequence[int]) -> int:
    """Extract the coordinates `positions` of x as a packed |positions|-bit vector."""
    out = 0
    for i, j in enumerate(positions):
        if (x >> j) & 1:
            out |= 1 << i
    return out


@dataclass(frozen=True)
class BitVector:
    """Immutable vector in F2^length, packed into an int."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError(f"bits do not fit in length {self.length}")

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_support(cls, n: int, sites: Iterable[int]) -> "BitVector":
        return cls(n, vector_from_support(sites))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise DimensionMismatchError("vector lengths differ")
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise DimensionMismatchError("vector lengths differ")
        return BitVector(self.length, self.bits & other.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return support(self.bits)

    def bit(self, j: int) -> int:
        return (self.bits >> j) & 1

    def dot(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise DimensionMismatchError("vector lengths differ")
        return dot(self.bits, other.bits)

    def __str__(self) -> str:
        return "".join(str(self.bit(j)) for j in range(self.length))


def rref(rows: Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of the row set.

    Returns (rows, pivot columns), rows sorted by ascending pivot column.
    """
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, b in zip(pivots, basis):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        # Keep earlier rows reduced against the new pivot.
        basis = [b ^ row if (b >> p) & 1 else b for b in basis]
        basis.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return tuple(basis[i] for i in order), tuple(pivots[i] for i in order)


def nullspace(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Basis (RREF) of the kernel of the map v -> (row.v for each row)."""
    basis, pivots = rref(rows, n)
    pivot_set = set(pivots)
    kernel = []
    for col in range(n):
        if col in pivot_set:
            continue
        v = 1 << col
        for p, b in zip(pivots, basis):
            if (b >> col) & 1:
                v |= 1 << p
        kernel.append(v)
    return rref(kernel, n)[0]


class SpanSolver:
    """Incremental row reducer that can express vectors as row combinations."""

    def __init__(self, rows: Sequence[int], n: int):
        self.n = n
        self._rows: list[int] = []      # echelon rows
        self._combos: list[int] = []    # combo masks over the original rows
        self._pivots: list[int] = []
        for i, row in enumerate(rows):
            self._feed(row, 1 << i)

    def _feed(self, row: int, combo: int) -> None:
        for p, b, c in zip(self._pivots, self._rows, self._combos):
            if (row >> p) & 1:
                row ^= b
                combo ^= c
        if row:
            self._pivots.append((row & -row).bit_length() - 1)
            self._rows.append(row)
            self._combos.append(combo)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def express(self, v: int) -> int | None:
        """Combo mask c with XOR(rows[i] for i in c) == v, or None."""
        combo = 0
        for p, b, c in zip(self._pivots, self._rows, self._combos):
            if (v >> p) & 1:
                v ^= b
                combo ^= c
        return combo if v == 0 else None


def solve_linear(rows: Sequence[int], rhs: Sequence[int], n: int) -> tuple[int | None, tuple[int, ...]]:
    """Solve row_i . x = rhs_i over F2.

    Returns (particular solution or None, kernel basis of the system).
    """
    # Augment each row with its rhs bit at position n.
    aug = [r | (b << n) for r, b in zip(rows, rhs)]
    basis, pivots = rref(aug, n + 1)
    if n in pivots:
        return None, nullspace(rows, n)
    x = 0
    for p, b in zip(pivots, basis):
        if (b >> n) & 1:
            x |= 1 << p
    return x, nullspace(rows, n)


def _popcounts(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values)


def enumerate_span(rows: Sequence[int], n: int) -> np.ndarray:
    """All 2^k elements of the span as a uint64 array (requires n <= 63).

    Bit i of an element's index selects rows[i].
    """
    arr = np.zeros(1, dtype=np.uint64)
    for r in rows:
        arr = np.concatenate([arr, arr ^ np.uint64(r)])
    return arr


class Subspace:
    """A linear subspace of F2^n in canonical (RREF) form."""

    __slots__ = ("n", "basis", "pivots", "__dict__")

    def __init__(self, n: int, rows: Iterable[int] = ()):
        self.n = n
        self.basis, self.pivots = rref(rows, n)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, [1 << j for j in range(n)])

    @classmethod
    def even(cls, n: int) -> "Subspace":
        return cls(n, [(1 << j) | 1 for j in range(1, n)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def parity_checks(self) -> tuple[int, ...]:
        """Rows whose common kernel is exactly this subspace."""
        return nullspace(self.basis, self.n)

    def contains(self, v: int) -> bool:
        for p, b in zip(self.pivots, self.basis):
            if (v >> p) & 1:
                v ^= b
        return v == 0

    def __contains__(self, v: int) -> bool:
        return self.contains(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.n, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, dim={self.dim})"

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.n != other.n:
            raise DimensionMismatchError("ambient lengths differ")
        return Subspace(self.n, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.n != other.n:
            raise DimensionMismatchError("ambient lengths differ")
        return Subspace(self.n, nullspace(self.parity_checks + other.parity_checks, self.n))

    def orthogonal_complement(self) -> "Subspace":
        return Subspace(self.n, nullspace(self.basis, self.n))

    def dot_space(self) -> "Subspace":
        """Even-weight vectors orthogonal to this subspace."""
        ones = (1 << self.n) - 1
        return Subspace(self.n, nullspace(self.basis + (ones,), self.n))

    def elements(self) -> Iterator[int]:
        """All 2^dim elements; guard the dimension before calling."""
        if self.dim > 26:
            raise ValueError(f"refusing to enumerate 2^{self.dim} elements")
        for combo in range(1 << self.dim):
            v = 0
            c = combo
            i = 0
            while c:
                if c & 1:
                    v ^= self.basis[i]
                c >>= 1
                i += 1
            yield v

    def element_array(self) -> np.ndarray:
        if self.n > 63:
            raise ValueError("element_array requires n <= 63")
        if self.dim > FULL_ENUM_DIM_LIMIT:
            raise ValueError(f"refusing to enumerate 2^{self.dim} elements")
        return enumerate_span(self.basis, self.n)


def span(vectors: Sequence[BitVector], n: int | None = None) -> Subspace:
    """Subspace spanned by the given vectors (must share one length).

    An empty sequence needs an explicit ambient length n.
    """
    if not vectors:
        if n is None:
            raise ValueError("span of an empty sequence needs an explicit length")
        return Subspace(n)
    length = vectors[0].length
    if n is not None and n != length:
        raise DimensionMismatchError("explicit length disagrees with vectors")
    for v in vectors:
        if v.length != length:
            raise DimensionMismatchError("vector lengths differ")
    return Subspace(length, [v.bits for v in vectors])


def min_odd_weight(s: Subspace, max_weight: int | None = None) -> int | None:
    """Minimum weight of odd-weight vectors in S-perp.

    For dim(S-perp) <= FULL_ENUM_DIM_LIMIT the perp space is enumerated in
    full; otherwise odd-weight candidates of weight <= max_weight are tested
    for membership in S-perp, and None is returned when none is found within
    the bound. Raises NoOddVectorsError when S-perp is purely even.
    """
    n = s.n
    perp_dim = n - s.dim
    ones = (1 << n) - 1
    if ones in s:
        # 1-bar in S forces S-perp inside the even subspace.
        raise NoOddVectorsError("S-perp contains no odd-weight vectors")
    if perp_dim <= FULL_ENUM_DIM_LIMIT and n <= 63:
        perp = s.orthogonal_complement()
        arr = enumerate_span(perp.basis, n)
        w = _popcounts(arr)
        odd = w[(w & 1) == 1]
        if odd.size == 0:
            raise NoOddVectorsError("S-perp contains no odd-weight vectors")
        best = int(odd.min())
        return best if max_weight is None or best <= max_weight else None
    if max_weight is None:
        raise ValueError("max_weight is required when dim(S-perp) exceeds the enumeration limit")
    checks = s.basis
    for w in range(1, max_weight + 1, 2):
        for sites in itertools.combinations(range(n), w):
            v = vector_from_support(sites)
            if all(not dot(v, row) for row in checks):
                return w
    return None


def fwht(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """In-place unnormalized fast Walsh-Hadamard transform along axis 0.

    output[f] = sum_g (-1)^(f.g) input[g]; applying twice multiplies by 2^c.
    The array must be C-contiguous so the butterfly stages are pure views.
    """
    if axis != 0:
        raise ValueError("fwht operates along axis 0")
    m = values.shape[0]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length {m} is not a power of two")
    tail = int(np.prod(values.shape[1:], dtype=np.int64)) if values.ndim > 1 else 1
    a = values.reshape(m, tail) if values.ndim > 1 else values.reshape(m, 1)
    if not a.flags.c_contiguous:
        raise ValueError("fwht requires a C-contiguous array")
    h = 1
    while h < m:
        b = a.reshape(m // (2 * h), 2, h, tail)
        diff = b[:, 0] - b[:, 1]
        b[:, 0] += b[:, 1]
        b[:, 1] = diff
        h *= 2
    return values


def fwht_direct(values: np.ndarray) -> np.ndarray:
    """O(4^c) reference transform, for cross-checking fwht."""
    m = len(values)
    out = np.zeros(m, dtype=np.float64)
    for f in range(m):
        acc = 0.0
        for g in range(m):
            acc += values[g] if (f & g).bit_count() % 2 == 0 else -values[g]
        out[f] = acc
    return out


def row_to_hex(bits: int, n: int) -> str:
    """Serialize an n-bit row as lowercase hex, most significant nibble first.

    Coordinate 0 maps to the most significant bit of the padded hex string.
    """
    digits = (n + 3) // 4
    rev = 0
    for j in range(n):
        if (bits >> j) & 1:
            rev |= 1 << (n - 1 - j)
    rev <<= 4 * digits - n
    return format(rev, f"0{digits}x")


def hex_to_row(text: str, n: int) -> int:
    digits = (n + 3) // 4
    if len(text) != digits:
        raise ValueError(f"expected {digits} hex digits for n={n}")
    rev = int(text, 16) >> (4 * digits - n)
    bits = 0
    for j in range(n):
        if (rev >> (n - 1 - j)) & 1:
            bits |= 1 << j
    return bits
