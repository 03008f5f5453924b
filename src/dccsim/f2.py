"""Binary linear algebra on packed bit vectors.

Vectors over GF(2) are stored as Python ints (bit j = coordinate j) with an
explicit length. Subspaces keep their basis in reduced row echelon form with
the leftmost-pivot convention (pivot columns scanned from bit 0 upward), so
two subspaces are equal iff their canonical bases compare equal. The kernels
loop over the set bits of a vector (x & -x) or over its pivot hits
(x & pivot mask), never over all n coordinates.

Only the array kernels use numpy, and each imports it in its own body:
enumerate_span (and Subspace.element_array through it) and fwht. The rest
runs on Python ints, so the offline commands load no numpy through f2.
enumerate_span tabulates a linear map from its unit images: every label
table in dccsim is built by it, once, and is read-only.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

# Largest subspace dimension whose 2^dim elements element_array lists.
FULL_ENUM_DIM_LIMIT = 25
# Largest number of column sums min_odd_weight keeps for its weight budget. The
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


def vector_from_support(support: Iterable[int]) -> int:
    bits = 0
    for j in support:
        bits |= 1 << j
    return bits


def support(x: int) -> tuple[int, ...]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return tuple(out)


def embed(bits: int, positions: Sequence[int]) -> int:
    """Insert the k-bit vector `bits` into the coordinates `positions`.

    positions[i] receives bit i; all other coordinates are zero.
    """
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << positions[low.bit_length() - 1]
        bits ^= low
    return out


def restrict(x: int, positions: Sequence[int]) -> int:
    """Extract the coordinates `positions` of x as a packed |positions|-bit vector."""
    out = 0
    for i, j in enumerate(positions):
        if (x >> j) & 1:
            out |= 1 << i
    return out


def _reduced(rows: Iterable[int], top: bool = False) -> dict[int, int]:
    """{pivot bit: row} for the reduced echelon form of the row set. A row's
    pivot is its lowest set bit, or its highest when top is set; "past" a
    bit means above it, or below it when top is set.

    An incoming row is reduced at its pivot hits (row & pivot mask), nearest
    first: the row of pivot h changes only bits past h, so the hits are met
    in order. Once every row is in, the rows are cleared at the other pivots
    they hold, all past their own, from the farthest pivot back: the rows
    used are then fully reduced and change no pivot bit but their own, so
    each row's hits are read once.
    """
    by_pivot: dict[int, int] = {}
    mask = 0
    for row in rows:
        hits = row & mask
        while hits:
            row ^= by_pivot[(1 << hits.bit_length() - 1) if top else hits & -hits]
            hits = row & mask
        if row:
            lead = (1 << row.bit_length() - 1) if top else row & -row
            by_pivot[lead] = row
            mask |= lead
    for lead in sorted(by_pivot, reverse=not top):
        row = by_pivot[lead]
        hits = (row & mask) ^ lead
        while hits:
            low = hits & -hits
            row ^= by_pivot[low]
            hits ^= low
        by_pivot[lead] = row
    return by_pivot


def rref(rows: Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of the row set.

    Returns (rows, pivot columns), rows sorted by ascending pivot column.
    """
    by_pivot = _reduced(rows)
    order = sorted(by_pivot)
    return tuple(by_pivot[low] for low in order), tuple(low.bit_length() - 1 for low in order)


def nullspace(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Basis (RREF) of the kernel of the map v -> (row.v for each row).

    The rows are reduced with each pivot at its row's highest bit. A free
    (non-pivot) column q then gives the kernel vector with bit q and the
    pivots of the rows that have bit q, all above q. Its lowest bit is q and
    it has no other free bit, so these vectors, by ascending q, are already
    the kernel's RREF; they are built from the free bits of each row.
    """
    by_pivot = _reduced(rows, top=True)
    free = ((1 << n) - 1) & ~sum(by_pivot)
    kernel: dict[int, int] = {}  # free bit -> kernel vector, by ascending bit
    rest = free
    while rest:
        low = rest & -rest
        kernel[low] = low
        rest ^= low
    for high, row in by_pivot.items():
        hits = row & free
        while hits:
            low = hits & -hits
            kernel[low] |= high
            hits ^= low
    return tuple(kernel.values())


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
    bit i of column j is coordinate j of rows[i]. Column j is thus the
    parities of the unit vector at j against the rows, and enumerate_span of
    the columns lists the parities of every n-bit vector, by value."""
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
    """All 2^k elements of the span of k rows of n bits, read-only, as
    uint32 when n <= 32, else uint64 (n <= 64). Bit i of an element's index
    selects rows[i]: the table of the linear map with these unit images.
    """
    import numpy as np

    dtype = np.uint32 if n <= 32 else np.uint64
    arr = np.zeros(1, dtype=dtype)
    for r in rows:
        arr = np.concatenate([arr, arr ^ dtype(r)])
    arr.flags.writeable = False
    return arr


class Subspace:
    """A linear subspace of F2^n in canonical (RREF) form."""

    __slots__ = ("n", "basis", "pivots", "__dict__")

    def __init__(self, n: int, rows: Iterable[int] = ()):
        self.n = n
        self.basis, self.pivots = rref(rows, n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def parity_checks(self) -> tuple[int, ...]:
        """Rows whose common kernel is exactly this subspace."""
        return nullspace(self.basis, self.n)

    @cached_property
    def _by_pivot(self) -> tuple[int, dict[int, int]]:
        """The pivot mask and the basis row of each pivot bit."""
        rows = {1 << p: b for p, b in zip(self.pivots, self.basis)}
        return sum(rows), rows

    def contains(self, v: int) -> bool:
        # The basis is fully reduced: a row clears its own pivot bit and
        # changes no other, so v's pivot hits are read once.
        mask, rows = self._by_pivot
        hits = v & mask
        while hits:
            low = hits & -hits
            v ^= rows[low]
            hits ^= low
        return v == 0

    def __contains__(self, v: int) -> bool:
        return self.contains(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

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

    def dot_space(self) -> "Subspace":
        """Even-weight vectors orthogonal to this subspace."""
        ones = (1 << self.n) - 1
        return Subspace(self.n, nullspace(self.basis + (ones,), self.n))

    def element_array(self) -> np.ndarray:
        """All 2^dim elements (enumerate_span of the basis)."""
        if self.dim > FULL_ENUM_DIM_LIMIT:
            raise ValueError(f"refusing to enumerate 2^{self.dim} elements")
        return enumerate_span(self.basis, self.n)


def min_odd_weight(s: Subspace, max_weight: int) -> int | None:
    """Minimum weight of the odd-weight vectors of S-perp, or None when every
    one is heavier than max_weight.

    A vector of S-perp is a set of sites whose columns under S's basis XOR to
    zero. For odd w = 1, 3, ... up to max_weight the column sums of all
    floor(w/2)-subsets go into a set, and w is returned at the first
    ceil(w/2)-subset whose sum is in it. Two overlapping subsets never match
    first: their symmetric difference would be an odd vector lighter than w,
    found at a smaller w. Raises NoOddVectorsError when S-perp is purely
    even, and CapacityError before the search when max_weight needs a join
    of more than JOIN_SUM_LIMIT sums.
    """
    n = s.n
    if (1 << n) - 1 in s:
        # 1-bar in S forces S-perp inside the even subspace, and only then.
        raise NoOddVectorsError("S-perp contains no odd-weight vectors")
    if (sums := math.comb(n, max(min(max_weight, n) - 1, 0) // 2)) > JOIN_SUM_LIMIT:
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
    Stage s = 0, 1, ..., c-1 maps each pair (x, y) of rows whose indices
    differ only in bit s, x having the bit clear, to (x + y, x - y): one
    matmul of [[1, 1], [1, -1]] with the (2^c >> (s+1), 2, 2^s k) view of the
    C-contiguous (2^c, k) array, in natural order. The products are by +-1,
    hence exact, and each output is one two-term sum, rounded once as in the
    in-place radix-2 loop, with or without FMA; only the sign of an exact zero
    may differ, and every caller clamps with np.maximum(., 0.0) or drops zeros
    before reading one. A 1-D vector runs stages 0 .. ceil(c/2)-1 on long
    runs: on a transposed copy of its (2^floor(c/2), 2^ceil(c/2)) view.
    """
    import numpy as np

    if axis != 0:
        raise ValueError("fwht operates along axis 0")
    m = values.shape[0]
    if m == 0 or m & (m - 1):
        raise ValueError(f"length {m} is not a power of two")
    if not values.flags.c_contiguous:
        raise ValueError("fwht requires a C-contiguous array")
    x = values.reshape(m, values.size // m)
    if values.ndim == 1:
        low = m.bit_length() // 2
        x = values.reshape(m >> low, 1 << low)
        x[...] = fwht(x.T.copy()).T
    h = np.array([[1, 1], [1, -1]], values.dtype)
    rows, k = x.shape
    a, b = x, np.empty_like(x)
    for s in range(rows.bit_length() - 1):
        shape = (rows >> (s + 1), 2, k << s)
        np.matmul(h, a.reshape(shape), out=b.reshape(shape))
        a, b = b, a
    if a is not x:
        x[...] = a
    return values


_HEX_DIGITS = "0123456789abcdef"


def row_to_hex(bits: int, n: int) -> str:
    """Serialize an n-bit row as lowercase hex, most significant nibble first.

    Coordinate 0 maps to the most significant bit of the padded hex string,
    and the padding bits below coordinate n - 1 are zero. Raises ValueError
    for a row with bits at or above n, or a negative one.
    """
    if bits >> n:
        raise ValueError(f"row {bits:#x} does not fit in n={n} bits")
    digits = (n + 3) // 4
    rev = int(format(bits, f"0{n}b")[::-1], 2) << (4 * digits - n)
    return format(rev, f"0{digits}x")


def hex_to_row(text: str, n: int) -> int:
    """Inverse of row_to_hex: accepts exactly ceil(n/4) lowercase hex digits
    with zero padding bits, and raises ValueError on anything else (a 0x
    prefix, a sign, an underscore, white space, upper case)."""
    if not isinstance(text, str):
        raise TypeError(f"a hex row is a string, got {type(text).__name__}")
    digits = (n + 3) // 4
    pad = 4 * digits - n
    # The strip is empty exactly when every character is a digit.
    well_formed = len(text) == digits and not text.strip(_HEX_DIGITS)
    value = int(text, 16) if well_formed else 0
    if not well_formed or value & ((1 << pad) - 1):
        raise ValueError(f"{text!r} is not {digits} lowercase hex digits of an n={n} row")
    return int(format(value >> pad, f"0{n}b")[::-1], 2)
