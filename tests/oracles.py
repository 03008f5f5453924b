"""Reference implementations that the tests compare the library kernels with.

Each one is the plain loop a kernel in `dccsim` replaced: it walks every bit
position or every pivot, which makes it slow but easy to check by eye.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from dccsim.csscode import EvennessWitness
from dccsim.f2 import Subspace


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
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= 1 << positions[i]
        bits >>= 1
        i += 1
    return out


def rref(rows: Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduce each row against every pivot so far, then clear its pivot
    from every earlier row."""
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, b in zip(pivots, basis):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        basis = [b ^ row if (b >> p) & 1 else b for b in basis]
        basis.append(row)
        pivots.append(p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return tuple(basis[i] for i in order), tuple(pivots[i] for i in order)


def nullspace(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """One kernel vector per non-pivot column, read off pivot by pivot."""
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


def contains(s: Subspace, v: int) -> bool:
    for p, b in zip(s.pivots, s.basis):
        if (v >> p) & 1:
            v ^= b
    return v == 0


def row_to_hex(bits: int, n: int) -> str:
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


def check_evenness(s: Subspace, witness: EvennessWitness) -> bool:
    """The basis, pair and triple conditions, one signed overlap at a time."""
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
