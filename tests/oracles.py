"""Reference implementations that the tests compare the library with.

The first group is the plain loops the kernels in `dccsim` replaced: each
walks every bit position or every pivot, which makes it slow but easy to
check by eye. The rest are second routes to results the package computes
once: subspace operations, coset labels by one parity per label row (the
route the label tables replaced), distances, the evenness conditions by
packed popcounts, cleanability by odd dual vectors, the T gate's radicals,
P(f|e) and Gamma by direct sums, the protocol's frame side at the qubit
level (ideal syndromes, the C,T pair test, the table-based Clifford draw and
the noise draws bit by bit), and the gadget extension's stages and
membership certificates.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from dccsim import f2
from dccsim.codefamily import StageCodes
from dccsim.csscode import CosetMap, EvennessWitness, SubsystemCode
from dccsim.decoder import SparseLikelihood, TGateUpdate, _t_transform
from dccsim.f2 import Subspace
from dccsim.lattice import ColorLattice
from dccsim.noise import CLIFFORD_CLASSES, CliffordAction, PauliFrame, TPropagator
from dccsim.protocol import Family15


def dot(x: int, y: int) -> int:
    """Inner product mod 2 of two packed vectors."""
    return (x & y).bit_count() & 1


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
    if any(signed_overlap(w, b) % w.order for b in basis):
        return False
    half = w.order // 2
    for i, j in itertools.combinations(range(len(basis)), 2):
        if signed_overlap(w, basis[i] & basis[j]) % half:
            return False
    if w.order == 8:
        for i, j, k in itertools.combinations(range(len(basis)), 3):
            if signed_overlap(w, basis[i] & basis[j] & basis[k]) % 2:
                return False
    return True


def check_evenness_packed(s: Subspace, witness: EvennessWitness) -> bool:
    """The basis and pair conditions as one integer matrix over 64-bit words,
    then the triple parities by columns: a numpy route to check_evenness.

    Entry (i, j) of the matrix is |x_i & x_j & M+| - |x_i & x_j & M-|, from
    popcounts of the packed words, so its diagonal holds the basis conditions
    and the rest the pairwise ones.
    """
    w, n, basis = witness, s.n, s.basis
    ones = (1 << n) - 1  # sites at or above n meet no basis vector
    rows = word_array(basis, n)
    plus, minus = word_array([w.plus & ones, w.minus & ones], n)
    both = rows[:, np.newaxis, :] & rows
    overlaps = (np.bitwise_count(both & plus).sum(axis=2, dtype=np.int64)
                - np.bitwise_count(both & minus).sum(axis=2, dtype=np.int64))
    if np.any(np.diagonal(overlaps) % w.order) or np.any(np.triu(overlaps, 1) % (w.order // 2)):
        return False
    if w.order == 8:
        cols = f2.columns(basis, n)
        sites = w.plus | w.minus
        for i, x in enumerate(basis):
            for j in range(i + 1, len(basis)):
                if f2.xor_at_sites(cols, x & basis[j] & sites) >> (j + 1):
                    return False
    return True


def word_array(rows: Sequence[int], n: int) -> np.ndarray:
    """The rows packed as a (len(rows), ceil(n/64)) uint64 array, coordinate
    j at bit j % 64 of word j // 64; every row must fit in n bits."""
    width = (n + 63) // 64
    packed = b"".join(row.to_bytes(8 * width, "little") for row in rows)
    return np.frombuffer(packed, dtype="<u8").astype(np.uint64).reshape(len(rows), width)


def signed_overlap(witness: EvennessWitness, v: int) -> int:
    """|v & M+| - |v & M-|."""
    return (v & witness.plus).bit_count() - (v & witness.minus).bit_count()


# ---------------------------------------------------------------------------
# Subspaces and distances
# ---------------------------------------------------------------------------

def elements(s: Subspace) -> Iterator[int]:
    """All 2^dim elements of s: element i is the XOR of the basis rows at
    the set bits of i."""
    for combo in range(1 << s.dim):
        v = 0
        c = combo
        i = 0
        while c:
            if c & 1:
                v ^= s.basis[i]
            c >>= 1
            i += 1
        yield v


def orthogonal_complement(s: Subspace) -> Subspace:
    return Subspace(s.n, nullspace(s.basis, s.n))


def intersect(s: Subspace, t: Subspace) -> Subspace:
    """The common kernel of the parity checks of s and of t."""
    return Subspace(s.n, nullspace(nullspace(s.basis, s.n) + nullspace(t.basis, t.n), s.n))


def label_x(coset_map: CosetMap, a: int) -> int:
    """The X label of a, one parity per row: bit i is mat_b[i] . a."""
    return sum(dot(row, a) << i for i, row in enumerate(coset_map.mat_b))


def label_z(coset_map: CosetMap, b: int) -> int:
    """The Z label of b, one parity per row: bit i is mat_a[i] . b."""
    return sum(dot(row, b) << i for i, row in enumerate(coset_map.mat_a))


def label(coset_map: CosetMap, a: int, b: int) -> int:
    """The packed label of X(a)Z(b): the X label low, the Z label above it."""
    return label_x(coset_map, a) | label_z(coset_map, b) << coset_map.alpha_bits


def distance(code: SubsystemCode, max_weight: int) -> int | None:
    """min(d(A), d(B)), or None when both exceed max_weight."""
    found = [f2.min_odd_weight(s, max_weight) for s in (code.a_space, code.b_space)]
    return min((d for d in found if d is not None), default=None)


# ---------------------------------------------------------------------------
# Cleanability and the T gate
# ---------------------------------------------------------------------------

def odd_dual_vectors(a_space: Subspace) -> list[int]:
    """All odd-weight vectors of A-perp (undetectable non-trivial Z errors)."""
    return [v for v in elements(orthogonal_complement(a_space)) if v.bit_count() & 1]


def is_clean_representative(a_space: Subspace, e: int, odd_duals: Sequence[int] | None = None) -> bool:
    """No odd-weight vector of A-perp has support inside e."""
    if odd_duals is None:
        odd_duals = odd_dual_vectors(a_space)
    return all(g & ~e for g in odd_duals)


def radical(prop: TPropagator, alpha: int) -> tuple[int, ...]:
    """A basis of the radical of {g in B : g inside e(alpha)}, read off the
    cleanability table: the A^T beta & e(alpha) at the nonzero entries of
    Gamma's column alpha. It is the basis the propagator's particular
    solution and kernel are built from."""
    table = prop.table
    members = table.at_beta[table.gamma_hat[:, alpha] != 0] & np.uint64(table.rep(alpha))
    return Subspace(table.code.n, members.tolist()).basis


def p_f_given_e(prop: TPropagator, alpha: int) -> dict[int, float]:
    """Exact distribution of f inside e(alpha), by the product formula."""
    cp = prop.coset(alpha)
    k = len(cp.positions)
    out: dict[int, float] = {}
    w = prop.table.witness
    r_loc = [(f2.restrict(g, cp.positions), (signed_overlap(w, g) // 2) & 1)
             for g in radical(prop, alpha)]
    for x in range(1 << k):
        p = 2.0 ** -k
        for g, half in r_loc:
            p *= 1.0 + (-1.0) ** ((dot(x, g) + half) % 2)
        if p:
            out[f2.embed(x, cp.positions)] = p
    return out


def p_f_given_e_charsum(prop: TPropagator, alpha: int) -> dict[int, float]:
    """Same distribution by the character sum over the full self-orthogonal
    subgroup inside e; independent route for cross-checking."""
    cp = prop.coset(alpha)
    k = len(cp.positions)
    sub = Subspace(prop.table.code.n, radical(prop, alpha))
    out: dict[int, float] = {}
    for x in range(1 << k):
        fvec = f2.embed(x, cp.positions)
        acc = 0.0
        for g in elements(sub):
            acc += (-1.0) ** ((dot(fvec, g) + signed_overlap(prop.table.witness, g) // 2) % 2)
        val = acc * 2.0 ** -k
        if abs(val) > 1e-15:
            out[fvec] = val
    return out


def gamma_hat_direct(code: SubsystemCode, prop: TPropagator, alpha: int, beta: int) -> float:
    """Gamma's entry (beta, alpha) as the direct sum over f inside e(alpha)."""
    v = 0
    for i, row in enumerate(code.coset_map.mat_a):
        if (beta >> i) & 1:
            v ^= row
    acc = 0.0
    for fvec, pf in p_f_given_e(prop, alpha).items():
        acc += pf * (-1.0) ** dot(v, fvec)
    return acc


# ---------------------------------------------------------------------------
# Protocol frame side
# ---------------------------------------------------------------------------

def measured_generators(fam: Family15, *kinds: str) -> list[int]:
    """The code family's generators of the given kinds, kind by kind."""
    return [g.bits for kind in kinds for g in fam.doubled.generators if g.kind == kind]


def ideal_c_syndromes(fam: Family15, frame: PauliFrame) -> int:
    """xi of each measured face (the Z part's parity on it), then zeta (the
    X part's), one face at a time."""
    faces = measured_generators(fam, "face_a", "face_b", "omega_link")
    bits = 0
    for i, g in enumerate(faces):
        bits |= dot(g, frame.b) << i
        bits |= dot(g, frame.a) << (i + len(faces))
    return bits


def ideal_t_syndromes(fam: Family15, frame: PauliFrame) -> int:
    """zeta of each double edge."""
    bits = 0
    for i, g in enumerate(measured_generators(fam, "edge_double")):
        bits |= dot(g, frame.a) << i
    return bits


def syndrome_test(fam: Family15, c_bits: int, t_bits: int, action: CliffordAction) -> bool:
    """The C,T pair test face by face: for each square face, the predicted
    post-gate Z syndromes p zeta + r xi of the face on both copies, and
    then each of its opposite-edge pairs against them."""
    lat = fam.doubled.lattices[1]
    n_faces = len(measured_generators(fam, "face_a", "face_b", "omega_link"))
    for i in range(len(lat.faces)):
        zu = []
        for block in (0, 1):   # face on copy A, face on copy B
            idx = i + block * len(lat.faces)
            xi = (c_bits >> idx) & 1
            zeta = (c_bits >> (idx + n_faces)) & 1
            zu.append((action.p * zeta) ^ (action.r * xi))
        for l, lp in lat.opposite_edge_pairs(i):
            if ((t_bits >> l) & 1) ^ ((t_bits >> lp) & 1) ^ zu[0] ^ zu[1]:
                return False
    return True


# All 24 single-qubit Cliffords modulo phases, a Pauli layer times a class,
# with the index of the class that acts.
CLIFFORD_GROUP: tuple[tuple[str, int], ...] = tuple(
    (f"{pauli}*{cls.name}", idx)
    for idx, cls in enumerate(CLIFFORD_CLASSES)
    for pauli in ("I", "X", "Y", "Z")
)


def sample_clifford(rng: np.random.Generator) -> CliffordAction:
    """Uniform draw of a group element from the table; its class acts."""
    _, idx = CLIFFORD_GROUP[int(rng.integers(0, len(CLIFFORD_GROUP)))]
    return CLIFFORD_CLASSES[idx]


def sample_memory_error(p: float, n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Depolarizing draw, bit by bit, from the same draws as the packed one."""
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
    """Bernoulli(q) flips, bit by bit."""
    if q == 0.0:
        return bits
    flips = rng.random(width) < q
    for i in np.flatnonzero(flips):
        bits ^= 1 << int(i)
    return bits


def random_element(space: Subspace, rng: np.random.Generator) -> int:
    """XOR of a uniform subset of the basis, row by row."""
    v = 0
    if space.dim:
        picks = rng.integers(0, 2, size=space.dim)
        for row, take in zip(space.basis, picks):
            if take:
                v ^= row
    return v


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

def fwht_direct(values: np.ndarray) -> np.ndarray:
    """O(4^c) Walsh-Hadamard transform, straight from its definition."""
    m = len(values)
    out = np.zeros(m, dtype=np.float64)
    for f in range(m):
        acc = 0.0
        for g in range(m):
            acc += values[g] if (f & g).bit_count() % 2 == 0 else -values[g]
        out[f] = acc
    return out


# T on all 15 sites, under which a radical vector's sign is (-1)^(|g|/2): a
# transversal T of the test modules' 15-qubit T code (their own coordinates).
T_ON_EVERY_SITE = EvennessWitness((1 << 15) - 1, 0, 8)


def dense_weights(rho: SparseLikelihood) -> np.ndarray:
    """The sparse support written out over all 2^c labels."""
    out = np.zeros(rho.layout.size, dtype=np.float64)
    out[rho.labels] = rho.weights
    return out


def split_weights(labels: np.ndarray, weights: np.ndarray,
                  patterns: int) -> tuple[np.ndarray, np.ndarray]:
    """The split's renormalization on the narrow support, as written: each
    weight divided by the number of patterns, the vanished ones dropped and
    the rest divided by their maximum."""
    scaled = weights / patterns
    keep = scaled > 0.0
    return labels[keep], scaled[keep] / scaled[keep].max()


def sparse_t_update_by_unique(labels: np.ndarray, weights: np.ndarray,
                              update: TGateUpdate) -> tuple[np.ndarray, np.ndarray]:
    """The sparse T update with its occupied cleanable columns found by
    np.unique(..., return_inverse=True), then the engine's transform."""
    lay = update.layout
    alpha = labels & np.uint32((1 << lay.alpha_bits) - 1)
    keep = update.cleanable_mask[alpha]
    alphas, column = np.unique(alpha[keep], return_inverse=True)
    block = np.zeros((1 << lay.beta_bits, len(alphas)), dtype=np.float64)
    block[labels[keep] >> np.uint32(lay.alpha_bits), column] = weights[keep]
    _t_transform(block, update.gamma_hat[:, alphas])
    beta, column = np.nonzero(block)
    out = block[beta, column]
    return alphas[column] | (beta.astype(np.uint32) << np.uint32(lay.alpha_bits)), out / out.max()


# ---------------------------------------------------------------------------
# Code family
# ---------------------------------------------------------------------------

def face_containing(lat: ColorLattice, a: int, b: int) -> int:
    """Index of the unique face whose sites include both a and b."""
    hits = [i for i, face in enumerate(lat.faces) if (face.bits >> a) & 1 and (face.bits >> b) & 1]
    if len(hits) != 1:
        raise ValueError(f"sites {a},{b} lie on {len(hits)} faces, expected 1")
    return hits[0]


def subdivide_link(dot_u: Subspace, i: int, j: int) -> Subspace:
    """Generic subdivision gadget: replace the weight-2 row e_i + e_j of a
    dot space by a chain through two fresh ancillas appended at the end."""
    n = dot_u.n
    if not dot_u.contains((1 << i) | (1 << j)):
        raise ValueError("dot space does not contain the requested weight-2 row")
    a, b = n, n + 1
    rows = list(dot_u.basis)
    rows += [(1 << i) | (1 << a), (1 << a) | (1 << b), (1 << b) | (1 << j)]
    return Subspace(n + 2, rows)


def _spoiled_faces(lat: ColorLattice, side: int, r: int, checks: list[tuple[str, bool]]) -> list[int]:
    """Local indices of the faces on the site pairs (2i-1, 2i), i = 1..r-1,
    of a boundary side of the lattice, each checked to touch the side at its
    pair only."""
    sites = lat.boundary(side)
    faces = []
    for i in range(1, r):
        idx = face_containing(lat, sites[2 * i - 1], sites[2 * i])
        touched = (lat.faces[idx].bits & lat.boundary_bits(side)).bit_count()
        checks.append((f"level {lat.t}, side {side}: spoiled face {idx} meets the side in 2 sites",
                       touched == 2))
        faces.append(idx)
    return faces


def stages_of(codes: StageCodes) -> set[str]:
    """The stages whose ancilla blocks the record's layout has: D_r of 2r
    sites at every level at the gadget stage, of 4r - 2 at the local stage
    and at the final stage above level 1, and none at the doubled stage.
    At t = 1 the final stage is the doubled one, and the gadget and local
    stages coincide."""
    spans = codes.layout.spans
    levels = range(1, len(codes.lattices) + 1)
    sizes = [len(spans.get(f"D{r}", ())) for r in levels]
    expected = {
        "doubled": [0] * len(levels),
        "gadget": [2 * r for r in levels],
        "local": [4 * r - 2 for r in levels],
        "final": [4 * r - 2 if r > 1 else 0 for r in levels],
    }
    return {stage for stage, want in expected.items() if sizes == want}


def membership_certificates(codes: StageCodes) -> list[str]:
    """The structural identities of the gadget extension that fail (none
    on a correct build), read off the layout and the lattices.

    Checks, per level r with an ancilla block D_r: the total ancilla row sum
    g_r lies in the extended triply-even space; each weight-2 generator
    combines with its adjacent spoiled face (below on level r, above on
    level r-1) to a member; and the generating set built from unspoiled
    double faces, block links, g_r, and the spoiled-face combinations spans
    the space exactly.
    """
    t_space = codes.t_space
    layout = codes.layout
    levels = range(1, len(codes.lattices) + 1)
    checks: list[tuple[str, bool]] = []
    rhs_rows: list[int] = []
    spoiled: dict[int, set[int]] = {r: set() for r in levels}

    for r in levels:
        if f"D{r}" not in layout.spans:
            continue
        d_pos = list(layout.spans[f"D{r}"])
        w, wbar = d_pos[:2 * r], d_pos[2 * r:]
        g = [(1 << w[2 * i - 1]) | (1 << w[2 * i]) for i in range(1, r)]
        # The long-range row, or the path through wbar that subdivides it.
        g_total = f2.vector_from_support(w[:1] + wbar + w[2 * r - 1:])
        for row in g:
            g_total ^= row
        checks.append((f"level {r}: ancilla row sum in code space", g_total in t_space))
        rhs_rows.append(g_total)
        lat = codes.lattices[r]
        a_off, b_off = layout.offset(f"A{r}"), layout.offset(f"B{r}")
        for i, face_idx in enumerate(_spoiled_faces(lat, 1, r, checks), start=1):
            face = lat.faces[face_idx].bits
            beta = g[i - 1] ^ (face << a_off) ^ (face << b_off)
            checks.append((f"level {r}: g[{i}] + double face below in code space", beta in t_space))
            rhs_rows.append(beta)
            spoiled[r].add(face_idx)
        if r >= 2:
            lat_below = codes.lattices[r - 1]
            a2_off = layout.offset(f"A{r-1}")
            b2_off = layout.offset(f"B{r-1}")
            for i, face_idx in enumerate(_spoiled_faces(lat_below, 2, r, checks), start=1):
                face = lat_below.faces[face_idx].bits
                gamma = g[i - 1] ^ (face << a2_off) ^ (face << b2_off)
                checks.append((f"level {r}: g[{i}] + double face above in code space", gamma in t_space))
                rhs_rows.append(gamma)
                spoiled[r - 1].add(face_idx)

    for r in levels:
        lat = codes.lattices[r]
        a_off, b_off = layout.offset(f"A{r}"), layout.offset(f"B{r}")
        for idx, face in enumerate(lat.faces):
            if idx in spoiled[r]:
                continue
            rhs_rows.append((face.bits << a_off) | (face.bits << b_off))
        ones = (1 << lat.m) - 1
        next_block = "A0" if r == 1 else f"A{r-1}"
        rhs_rows.append(
            (ones << b_off)
            | layout.embed((1 << len(layout.spans[next_block])) - 1, next_block)
        )

    rebuilt = Subspace(codes.n, rhs_rows)
    checks.append(("generating set reproduces the code space", rebuilt == t_space))
    return [name for name, passed in checks if not passed]
