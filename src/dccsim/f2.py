"""Binary linear algebra on packed bit vectors.

Vectors over GF(2) are stored as Python ints (bit j = coordinate j) with an
explicit length. Subspaces keep their basis in reduced row echelon form with
the leftmost-pivot convention (pivot columns scanned from bit 0 upward), so
two subspaces are equal iff their canonical bases compare equal.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

# Largest dim(S-perp) for which min_odd_weight searches without a weight
# bound, and largest subspace elements and element_array enumerate.
FULL_ENUM_DIM_LIMIT = 25
# Largest number of column sums min_odd_weight keeps for a weight budget. The
# join at the largest odd weight w within the budget holds every
# floor(w/2)-subset sum in lists and a set, about 190 bytes a sum (C(279, 3)
# sums took 683 MB), so 2^22 sums stay under 1 GB.
JOIN_SUM_LIMIT = 1 << 22


class CapacityError(ValueError):
    """The requested table or enumeration exceeds the supported size."""


class DimensionMismatchError(ValueError):
    """Operands live in binary spaces of different lengths."""


class NoOddVectorsError(ValueError):
    """S-perp contains no odd-weight vectors, so d(S) is undefined."""


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


def solve_linear(rows: Sequence[int], rhs: Sequence[int], n: int) -> int | None:
    """A solution x of row_i . x = rhs_i over F2, or None when there is none;
    nullspace(rows, n) gives the others."""
    # Augment each row with its rhs bit at position n.
    aug = [r | (b << n) for r, b in zip(rows, rhs)]
    basis, pivots = rref(aug, n + 1)
    if n in pivots:
        return None
    x = 0
    for p, b in zip(pivots, basis):
        if (b >> n) & 1:
            x |= 1 << p
    return x


def columns(rows: Sequence[int], n: int) -> list[int]:
    """The n columns of the matrix with the given rows, as packed vectors:
    bit i of column j is coordinate j of rows[i]."""
    cols = [0] * n
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def express(rows: Sequence[int], v: int, n: int) -> int | None:
    """Combo mask c with XOR(rows[i] for i in c) == v, or None when v is
    outside the span; c is unique when the rows are independent."""
    return solve_linear(columns(rows, n), [(v >> j) & 1 for j in range(n)], len(rows))


def xor_at_sites(cols: Sequence[int], x: int) -> int:
    """XOR of cols[j] over the set bits j of x: the products of x with the
    rows whose columns these are, as a packed vector."""
    acc = 0
    while x:
        low = x & -x
        acc ^= cols[low.bit_length() - 1]
        x ^= low
    return acc


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
        if self.dim > FULL_ENUM_DIM_LIMIT:
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


def min_odd_weight(s: Subspace, max_weight: int | None = None) -> int | None:
    """Minimum weight of the odd-weight vectors of S-perp, or None when every
    one is heavier than max_weight.

    A vector of S-perp is a set of sites whose columns under S's basis XOR to
    zero. For odd w = 1, 3, ... the column sums of all floor(w/2)-subsets go
    into a set, and w is returned at the first ceil(w/2)-subset whose sum is
    in it. Two overlapping subsets never match first: their symmetric
    difference would be an odd vector lighter than w, found at a smaller w.
    Without max_weight the search runs up to n, which needs dim(S-perp) <=
    FULL_ENUM_DIM_LIMIT. Raises NoOddVectorsError when S-perp is purely even,
    and CapacityError before the search when max_weight needs a join of more
    than JOIN_SUM_LIMIT sums.
    """
    n = s.n
    if (1 << n) - 1 in s:
        # 1-bar in S forces S-perp inside the even subspace, and only then.
        raise NoOddVectorsError("S-perp contains no odd-weight vectors")
    if max_weight is None:
        if n - s.dim > FULL_ENUM_DIM_LIMIT:
            raise ValueError("max_weight is required when dim(S-perp) exceeds the enumeration limit")
        max_weight = n
    elif (sums := math.comb(n, max(min(max_weight, n) - 1, 0) // 2)) > JOIN_SUM_LIMIT:
        raise CapacityError(f"a distance budget of {max_weight} at n = {n} needs {sums} "
                            f"column sums, above the limit of {JOIN_SUM_LIMIT}")
    cols = columns(s.basis, n)
    half: set[int] = {0}
    level: Iterable[list[int]] = [[c] for c in cols]
    for w in range(1, max_weight + 1, 2):
        kept = []  # ceil(w/2)-subset sums by largest site, for the next w
        for group in level:
            if not half.isdisjoint(group):
                return w
            if w + 2 <= max_weight:
                kept.append(group)
        half = set(itertools.chain.from_iterable(kept))
        level = _grow(kept, cols)
    return None


def _grow(groups: list[list[int]], cols: list[int]) -> Iterator[list[int]]:
    """Column sums of the (k+1)-subsets, one list per largest site, from
    those of the k-subsets."""
    below: list[int] = []
    for c, group in zip(cols, groups):
        yield [x ^ c for x in below]
        below += group


def fwht(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """In-place unnormalized fast Walsh-Hadamard transform along axis 0.

    output[f] = sum_g (-1)^(f.g) input[g]; applying twice multiplies by 2^c.
    The array must be C-contiguous so the butterfly stages are pure views.

    Stage s = 0, 1, ..., c-1 maps each pair (x, y) of entries whose axis-0
    indices differ only in bit s, x having the bit clear, to (x + y, x - y).
    Each stage reads its pairs as the even and odd rows of one buffer and
    writes the sums to the first half and the differences to the second
    half of another (the two buffers then swap roles). That moves index
    bit s to the top and every other bit down by one, so the next stage's
    pairs are again the even and odd rows, and after c stages the rows are
    back in order. Every ufunc call thus runs over half the array, not over
    short runs of 2^s rows. Each entry is the same sum of the same operands,
    stage by stage, as in the in-place radix-2 loop, so the result is
    bit-identical to it.
    """
    if axis != 0:
        raise ValueError("fwht operates along axis 0")
    m = values.shape[0]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length {m} is not a power of two")
    if not values.flags.c_contiguous:
        raise ValueError("fwht requires a C-contiguous array")
    a = values.reshape(m, values.size // m)
    b = np.empty_like(a)
    half = m // 2
    stage_views = [(src[0::2], src[1::2], dst[:half], dst[half:]) for src, dst in ((a, b), (b, a))]
    c = m.bit_length() - 1
    for s in range(c):
        x, y, sums, diffs = stage_views[s & 1]
        np.add(x, y, out=sums)
        np.subtract(x, y, out=diffs)
    if c & 1:
        a[...] = b
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
