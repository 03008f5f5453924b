"""Construction of the doubled color code family and its local extensions.

Stages, in construction order:

  doubled   n_t = 2t^3+6t^2+6t+1 qubits, blocks A_t B_t ... A_1 B_1 A_0.
            The triply-even space at level t is the doubling map
            double(S_t, T_{t-1}) of the level-t color-code face space and
            the level-(t-1) space, from the single qubit T_0; its order-8
            witness comes from double_witness the same way. The dot space
            is spanned by the per-level face, double-edge and boundary-link
            generators, and the doubly-even companion by the same set
            without the double edges.
  gadget    N_t = 2t^3+7t^2+7t+1 qubits: a block D_r of 2r ancilla qubits
            per level, with weight-2 generators g and weight-6 generators h
            that decompose each non-local boundary link into local pieces.
  local     K_t = 2t^3+8t^2+6t+1 qubits: the remaining long-range weight-2
            generator per level r >= 2 is subdivided through 2r-2 extra
            ancillas into a chain of weight-2 generators.
  final     K_t - 2 qubits: the level-1 link is already local, so its two
            ancillas are dropped and the link row kept directly.

For t = 1 the final stage is exactly the 15-qubit / 7-qubit code pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from . import f2
from .csscode import EvennessWitness
from .f2 import Subspace
from .lattice import ColorLattice, build_lattice, face_space


@dataclass(frozen=True)
class BlockLayout:
    """Ordered partition of the qubit line into named blocks."""

    blocks: tuple[tuple[str, int], ...]

    @property
    def n(self) -> int:
        return sum(size for _, size in self.blocks)

    def offset(self, name: str) -> int:
        pos = 0
        for block, size in self.blocks:
            if block == name:
                return pos
            pos += size
        raise KeyError(name)

    def size(self, name: str) -> int:
        for block, size in self.blocks:
            if block == name:
                return size
        raise KeyError(name)

    def positions(self, name: str) -> list[int]:
        off = self.offset(name)
        return list(range(off, off + self.size(name)))

    def embed(self, bits: int, name: str) -> int:
        return bits << self.offset(name)

    def has(self, name: str) -> bool:
        return any(block == name for block, _ in self.blocks)


@dataclass(frozen=True)
class Generator:
    kind: str   # face_a | face_b | edge_double | omega_link | gadget_g | gadget_h | subdivision
    level: int
    bits: int

    def support(self) -> tuple[int, ...]:
        return f2.support(self.bits)


def double(s: Subspace, t: Subspace) -> Subspace:
    """Doubling map: two copies of S on blocks A, B and T on block C,
    plus the all-ones row on B and C. dim grows by dim(S)+dim(T)+1."""
    m, n = s.n, t.n
    k = 2 * m + n
    rows = [b | (b << m) for b in s.basis]
    rows += [b << (2 * m) for b in t.basis]
    ones_bc = (((1 << m) - 1) << m) | (((1 << n) - 1) << (2 * m))
    rows.append(ones_bc)
    return Subspace(k, rows)


def double_witness(m: int, n: int, ws: EvennessWitness, wt: EvennessWitness) -> EvennessWitness:
    """Order-8 witness for the doubled space: M's on both copies, N's swapped.

    Requires ws of order 4, wt of order 8, and the balance condition
    ws.m - wt.m = 0 (mod 8).
    """
    if ws.order != 4 or wt.order != 8:
        raise ValueError("need an order-4 S witness and an order-8 T witness")
    if (ws.m - wt.m) % 8:
        raise ValueError("witness balance condition fails")
    plus = ws.plus | (ws.plus << m) | (wt.minus << (2 * m))
    minus = ws.minus | (ws.minus << m) | (wt.plus << (2 * m))
    return EvennessWitness(plus, minus, 8)


@dataclass(frozen=True)
class DoubledCodes:
    """The doubled stage: triply-even space, its dot space, and the
    doubly-even companion, with evenness witnesses and typed generators."""

    t: int
    layout: BlockLayout
    lattices: dict[int, ColorLattice]
    t_space: Subspace
    dot_t_space: Subspace
    c_space: Subspace
    witness_t: EvennessWitness
    witness_c: EvennessWitness
    generators: tuple[Generator, ...]

    @property
    def n(self) -> int:
        return self.layout.n


def link_row(layout: BlockLayout, lattices: dict[int, ColorLattice], r: int) -> int:
    """Boundary link omega_{r,r-1}: side 1 of level r on B_r joined to side 2
    of level r-1 on A_{r-1} (the level-0 block is the single final qubit)."""
    row = layout.embed(lattices[r].boundary_bits(1), f"B{r}")
    if r == 1:
        row |= layout.embed(1, "A0")
    else:
        row |= layout.embed(lattices[r - 1].boundary_bits(2), f"A{r-1}")
    return row


def build_doubled(t: int) -> DoubledCodes:
    if t < 1:
        raise ValueError("t must be at least 1")
    lattices = {r: build_lattice(r) for r in range(1, t + 1)}
    blocks: list[tuple[str, int]] = []
    for r in range(t, 0, -1):
        m = lattices[r].m
        blocks += [(f"A{r}", m), (f"B{r}", m)]
    blocks.append(("A0", 1))
    layout = BlockLayout(tuple(blocks))

    gens: list[Generator] = []
    t_space, witness_t = Subspace(1), EvennessWitness(1, 0, 8)
    for r in range(1, t + 1):
        lat = lattices[r]
        a_off, b_off = layout.offset(f"A{r}"), layout.offset(f"B{r}")
        for face in lat.faces:
            gens.append(Generator("face_a", r, face.bits << a_off))
            gens.append(Generator("face_b", r, face.bits << b_off))
        for edge in lat.edges:
            e = lat.edge_bits(edge)
            gens.append(Generator("edge_double", r, (e << a_off) | (e << b_off)))
        gens.append(Generator("omega_link", r, link_row(layout, lattices, r)))
        witness_s = EvennessWitness(lat.delta0, lat.delta2, 4)
        witness_t = double_witness(lat.m, t_space.n, witness_s, witness_t)
        t_space = double(face_space(lat), t_space)

    dot_t_space = Subspace(layout.n, [g.bits for g in gens])
    c_space = Subspace(layout.n, [g.bits for g in gens if g.kind != "edge_double"])
    lat_t = lattices[t]
    witness_c = EvennessWitness(
        layout.embed(lat_t.delta0, f"A{t}"), layout.embed(lat_t.delta2, f"A{t}"), 4
    )

    return DoubledCodes(
        t=t,
        layout=layout,
        lattices=lattices,
        t_space=t_space,
        dot_t_space=dot_t_space,
        c_space=c_space,
        witness_t=witness_t,
        witness_c=witness_c,
        generators=tuple(gens),
    )


# ---------------------------------------------------------------------------
# Gadget extension and subdivision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetLevel:
    """Boundary data of the level-r gadget.

    u: global positions of the side of the level-r lattice facing level r-1
       (on the B_r block), u[0] .. u[2r]; the twisted corner is u[2r].
    v: global positions of the facing side of level r-1 (on A_{r-1}), length
       2r-1; for r = 1 the single final-block qubit.
    w: global positions of the 2r ancillas; wbar: subdivision ancillas
       (empty unless the stage is subdivided and r >= 2).
    g, h: the added generators, g[i] weight two, h[i] weight at most six.
       In subdivided stages the last g row (the long link) is kept here for
       reference but replaced by the chain rows in the generator list.
    b_faces / c_faces: spoiled faces of the level-r / level-(r-1) lattice
       (local face indices), i = 1..r-1.
    """

    r: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    w: tuple[int, ...]
    wbar: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]
    chain: tuple[int, ...]
    b_faces: tuple[int, ...]
    c_faces: tuple[int, ...]


@dataclass(frozen=True)
class GadgetCodes:
    """One gadget-extended stage (gadget, local, or final)."""

    t: int
    stage: str
    layout: BlockLayout
    lattices: dict[int, ColorLattice]
    t_space: Subspace      # triply-even side (extends the doubled t_space)
    c_space: Subspace      # doubly-even side
    dot_t_space: Subspace
    dot_c_space: Subspace
    witness_t: EvennessWitness
    witness_c: EvennessWitness
    generators: tuple[Generator, ...]
    levels: dict[int, GadgetLevel]

    @property
    def n(self) -> int:
        return self.layout.n


def _stage_layout(t: int, lattices: dict[int, ColorLattice], include_d1: bool, subdivide: bool) -> BlockLayout:
    blocks: list[tuple[str, int]] = []
    for r in range(t, 0, -1):
        m = lattices[r].m
        blocks += [(f"A{r}", m), (f"B{r}", m)]
        if r == 1 and not include_d1:
            continue
        d_size = 2 * r
        if subdivide and r >= 2:
            d_size += 2 * r - 2
        blocks.append((f"D{r}", d_size))
    blocks.append(("A0", 1))
    return BlockLayout(tuple(blocks))


def _doubled_to_stage_positions(doubled: DoubledCodes, layout: BlockLayout) -> list[int]:
    positions: list[int] = []
    for name, _ in doubled.layout.blocks:
        positions.extend(layout.positions(name))
    return positions


def build_gadget_codes(t: int, stage: str = "gadget") -> GadgetCodes:
    """Extend the doubled codes with ancilla gadgets.

    stage: 'gadget' keeps one long-range weight-2 generator per level;
    'local' subdivides each of them (levels >= 2) through extra ancillas;
    'final' additionally drops the level-1 ancilla pair, keeping the level-1
    link row directly (it is already local). For t = 1, 'final' returns the
    plain doubled codes on 15 qubits.
    """
    if stage not in ("gadget", "local", "final"):
        raise ValueError(f"unknown stage {stage!r}")
    doubled = build_doubled(t)
    lattices = doubled.lattices
    include_d1 = stage != "final"
    subdivide = stage in ("local", "final")
    layout = _stage_layout(t, lattices, include_d1, subdivide)
    emb = _doubled_to_stage_positions(doubled, layout)

    gens: list[Generator] = [
        Generator(g.kind, g.level, f2.embed(g.bits, emb))
        for g in doubled.generators
        if g.kind != "omega_link"
    ]
    levels: dict[int, GadgetLevel] = {}
    gadget_rs = [r for r in range(1, t + 1) if layout.has(f"D{r}")]
    for r in gadget_rs:
        lat = lattices[r]
        b_off = layout.offset(f"B{r}")
        u = tuple(b_off + s for s in lat.boundary(1))
        if r == 1:
            v = (layout.offset("A0"),)
        else:
            a_off = layout.offset(f"A{r-1}")
            v = tuple(a_off + s for s in lattices[r - 1].boundary(2))
        d_pos = layout.positions(f"D{r}")
        w = tuple(d_pos[:2 * r])
        wbar = tuple(d_pos[2 * r:])

        g_rows = []
        for i in range(1, r):
            g_rows.append((1 << w[2 * i - 1]) | (1 << w[2 * i]))
        g_rows.append((1 << w[0]) | (1 << w[2 * r - 1]))   # the long-range one
        h_rows = []
        for i in range(1, r):
            h_rows.append(
                (1 << w[2 * i - 2]) | (1 << w[2 * i - 1])
                | (1 << u[2 * i - 2]) | (1 << u[2 * i - 1])
                | (1 << v[2 * i - 2]) | (1 << v[2 * i - 1])
            )
        h_rows.append(
            (1 << w[2 * r - 2]) | (1 << w[2 * r - 1])
            | (1 << u[2 * r - 2]) | (1 << u[2 * r - 1]) | (1 << u[2 * r])
            | (1 << v[2 * r - 2])
        )

        # The boundary link must decompose exactly into the added generators.
        link = f2.embed(link_row(doubled.layout, lattices, r), emb)
        acc = 0
        for row in g_rows + h_rows:
            acc ^= row
        if acc != link:
            raise AssertionError(f"gadget level {r}: generators do not sum to the link")

        b_faces, c_faces = [], []
        side_u = lat.boundary(1)
        for i in range(1, r):
            idx = lat.face_containing(side_u[2 * i - 1], side_u[2 * i])
            if (lat.faces[idx].bits & lat.boundary_bits(1)).bit_count() != 2:
                raise AssertionError("spoiled face touches the boundary beyond its pair")
            b_faces.append(idx)
        if r >= 2:
            side_v = lattices[r - 1].boundary(2)
            for i in range(1, r):
                idx = lattices[r - 1].face_containing(side_v[2 * i - 1], side_v[2 * i])
                bits = lattices[r - 1].faces[idx].bits & lattices[r - 1].boundary_bits(2)
                if bits.bit_count() != 2:
                    raise AssertionError("spoiled face touches the boundary beyond its pair")
                c_faces.append(idx)

        chain_rows: list[int] = []
        if subdivide and r >= 2:
            path = [w[0], *wbar, w[2 * r - 1]]
            chain_rows = [
                (1 << path[k]) | (1 << path[k + 1]) for k in range(len(path) - 1)
            ]
            g_keep = g_rows[:-1]
        else:
            g_keep = g_rows

        for row in g_keep:
            gens.append(Generator("gadget_g", r, row))
        for row in h_rows:
            gens.append(Generator("gadget_h", r, row))
        for row in chain_rows:
            gens.append(Generator("subdivision", r, row))
        levels[r] = GadgetLevel(
            r=r, u=u, v=v, w=w, wbar=wbar,
            g=tuple(g_rows), h=tuple(h_rows), chain=tuple(chain_rows),
            b_faces=tuple(b_faces), c_faces=tuple(c_faces),
        )

    for r in range(1, t + 1):
        if r not in levels:
            gens.append(Generator("omega_link", r, f2.embed(link_row(doubled.layout, lattices, r), emb)))

    n = layout.n
    dot_t_space = Subspace(n, [g.bits for g in gens])
    dot_c_space = Subspace(n, [g.bits for g in gens if g.kind != "edge_double"])
    t_space = dot_t_space.dot_space()
    c_space = dot_c_space.dot_space()

    return GadgetCodes(
        t=t,
        stage=stage,
        layout=layout,
        lattices=lattices,
        t_space=t_space,
        c_space=c_space,
        dot_t_space=dot_t_space,
        dot_c_space=dot_c_space,
        witness_t=doubled.witness_t.embed(emb),
        witness_c=doubled.witness_c.embed(emb),
        generators=tuple(gens),
        levels=levels,
    )


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


# ---------------------------------------------------------------------------
# Membership certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failures(self) -> list[str]:
        return [name for name, passed in self.checks if not passed]


def membership_certificates(codes: GadgetCodes) -> CertificateReport:
    """Verify the structural identities of the gadget extension.

    Checks, per level r: the total ancilla row sum g_r lies in the extended
    triply-even space; each weight-2 generator combines with its adjacent
    spoiled face (below on level r, above on level r-1) to a member; and the
    generating set built from unspoiled double faces, block links, g_r, and
    the spoiled-face combinations spans the space exactly.
    """
    t_space = codes.t_space
    layout = codes.layout
    checks: list[tuple[str, bool]] = []
    rhs_rows: list[int] = []
    spoiled: dict[int, set[int]] = {r: set() for r in range(1, codes.t + 1)}

    for r, lev in sorted(codes.levels.items()):
        g_total = 0
        for row in lev.g[:-1]:
            g_total ^= row
        if lev.chain:
            # Subdivided long link: the member vector runs through the path.
            g_total ^= (1 << lev.w[0]) | (1 << lev.w[2 * r - 1])
            g_total |= f2.vector_from_support(lev.wbar)
        else:
            g_total ^= lev.g[-1]
        checks.append((f"level {r}: ancilla row sum in code space", g_total in t_space))
        rhs_rows.append(g_total)
        lat = codes.lattices[r]
        a_off, b_off = layout.offset(f"A{r}"), layout.offset(f"B{r}")
        for i, face_idx in enumerate(lev.b_faces, start=1):
            face = lat.faces[face_idx].bits
            beta = lev.g[i - 1] ^ (face << a_off) ^ (face << b_off)
            checks.append((f"level {r}: g[{i}] + double face below in code space", beta in t_space))
            rhs_rows.append(beta)
            spoiled[r].add(face_idx)
        if r >= 2:
            lat_below = codes.lattices[r - 1]
            a2_off = layout.offset(f"A{r-1}")
            b2_off = layout.offset(f"B{r-1}")
            for i, face_idx in enumerate(lev.c_faces, start=1):
                face = lat_below.faces[face_idx].bits
                gamma = lev.g[i - 1] ^ (face << a2_off) ^ (face << b2_off)
                checks.append((f"level {r}: g[{i}] + double face above in code space", gamma in t_space))
                rhs_rows.append(gamma)
                spoiled[r - 1].add(face_idx)

    for r in range(1, codes.t + 1):
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
            | layout.embed((1 << layout.size(next_block)) - 1, next_block)
        )

    rebuilt = Subspace(codes.n, rhs_rows)
    checks.append(("generating set reproduces the code space", rebuilt == t_space))
    return CertificateReport(tuple(checks))


@lru_cache(maxsize=None)
def cached_doubled(t: int) -> DoubledCodes:
    return build_doubled(t)


@lru_cache(maxsize=None)
def cached_gadget(t: int, stage: str) -> GadgetCodes:
    return build_gadget_codes(t, stage)


def qubit_counts(t: int) -> dict[str, int]:
    return {
        "doubled": 2 * t**3 + 6 * t**2 + 6 * t + 1,
        "gadget": 2 * t**3 + 7 * t**2 + 7 * t + 1,
        "local": 2 * t**3 + 8 * t**2 + 6 * t + 1,
        "final": 2 * t**3 + 8 * t**2 + 6 * t - 1,
    }
