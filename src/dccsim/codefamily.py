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
Every stage is one StageCodes record on the qubit line _stage_layout lays
out; the gadget stages extend the cached doubled record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import xor

from . import f2
from .csscode import EvennessWitness
from .f2 import Subspace
from .lattice import ColorLattice, build_lattice, face_space


@dataclass(frozen=True)
class BlockLayout:
    """Ordered partition of the qubit line into named blocks."""

    blocks: tuple[tuple[str, int], ...]

    @cached_property
    def spans(self) -> dict[str, range]:
        """The positions of each block on the line, by block name."""
        spans, start = {}, 0
        for name, size in self.blocks:
            spans[name] = range(start, start + size)
            start += size
        return spans

    @property
    def n(self) -> int:
        return sum(size for _, size in self.blocks)

    def offset(self, name: str) -> int:
        return self.spans[name].start

    def embed(self, bits: int, name: str) -> int:
        return bits << self.offset(name)


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


def double_witness(m: int, ws: EvennessWitness, wt: EvennessWitness) -> EvennessWitness:
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
class StageCodes:
    """One stage of the family: the triply-even space and its dot space, the
    doubly-even companion, their evenness witnesses and the typed generators
    that span the dot space (all but the double edges span the companion's)."""

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


def _stage_layout(t: int, lattices: dict[int, ColorLattice], stage: str) -> BlockLayout:
    """Blocks A_r B_r D_r for r = t, ..., 1, then A_0. D_r holds the level's
    ancillas: none at the doubled stage, the 2r gadget ancillas at the
    gadget stage, and those plus the 2r - 2 that subdivide the long-range
    row at the local and final stages. The final stage has no D_1, because
    the level-1 link is already local."""
    blocks: list[tuple[str, int]] = []
    for r in range(t, 0, -1):
        m = lattices[r].m
        blocks += [(f"A{r}", m), (f"B{r}", m)]
        if stage == "gadget":
            blocks.append((f"D{r}", 2 * r))
        elif stage == "local" or stage == "final" and r > 1:
            blocks.append((f"D{r}", 4 * r - 2))
    blocks.append(("A0", 1))
    return BlockLayout(tuple(blocks))


def link_sites(
    layout: BlockLayout, lattices: dict[int, ColorLattice], r: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The sites the boundary link omega_{r,r-1} joins, each side in its
    boundary order: side 1 of level r on B_r, and side 2 of level r-1 on
    A_{r-1} (the level-0 block is the single final qubit)."""
    b_span = layout.spans[f"B{r}"]
    u = tuple(b_span[s] for s in lattices[r].boundary(1))
    if r == 1:
        return u, tuple(layout.spans["A0"])
    a_span = layout.spans[f"A{r-1}"]
    return u, tuple(a_span[s] for s in lattices[r - 1].boundary(2))


def link_row(layout: BlockLayout, lattices: dict[int, ColorLattice], r: int) -> int:
    """The boundary link omega_{r,r-1} as a row of the layout."""
    u, v = link_sites(layout, lattices, r)
    return f2.vector_from_support(u + v)


def build_doubled(t: int) -> StageCodes:
    if t < 1:
        raise ValueError("t must be at least 1")
    lattices = {r: build_lattice(r) for r in range(1, t + 1)}
    layout = _stage_layout(t, lattices, "doubled")

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
        witness_t = double_witness(lat.m, witness_s, witness_t)
        t_space = double(face_space(lat), t_space)

    dot_t_space = Subspace(layout.n, [g.bits for g in gens])
    c_space = Subspace(layout.n, [g.bits for g in gens if g.kind != "edge_double"])
    lat_t = lattices[t]
    witness_c = EvennessWitness(
        layout.embed(lat_t.delta0, f"A{t}"), layout.embed(lat_t.delta2, f"A{t}"), 4
    )

    return StageCodes(
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

def build_gadget_codes(t: int, stage: str = "gadget") -> StageCodes:
    """Extend the doubled codes with ancilla gadgets.

    stage: 'gadget' keeps one long-range weight-2 generator per level;
    'local' subdivides each of them (levels >= 2) through extra ancillas;
    'final' additionally drops the level-1 ancilla pair, keeping the level-1
    link row directly (it is already local). For t = 1, 'final' returns the
    plain doubled codes on 15 qubits.
    """
    if stage not in ("gadget", "local", "final"):
        raise ValueError(f"unknown stage {stage!r}")
    doubled = cached_doubled(t)
    lattices = doubled.lattices
    layout = _stage_layout(t, lattices, stage)
    # Each doubled block keeps its name and order in the stage layout.
    emb = [i for name, _ in doubled.layout.blocks for i in layout.spans[name]]

    gens: list[Generator] = [
        Generator(g.kind, g.level, f2.embed(g.bits, emb))
        for g in doubled.generators
        if g.kind != "omega_link"
    ]
    gadget_rs = [r for r in range(1, t + 1) if f"D{r}" in layout.spans]
    for r in gadget_rs:
        u, v = link_sites(layout, lattices, r)
        d_span = layout.spans[f"D{r}"]
        w, wbar = d_span[:2 * r], d_span[2 * r:]

        g_rows = [(1 << w[2 * i - 1]) | (1 << w[2 * i]) for i in range(1, r)]
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
        if reduce(xor, g_rows + h_rows) != f2.embed(link_row(doubled.layout, lattices, r), emb):
            raise AssertionError(f"gadget level {r}: generators do not sum to the link")

        chain_rows: list[int] = []
        if wbar:  # subdivided: the long-range row becomes a chain through wbar
            path = [w[0], *wbar, w[2 * r - 1]]
            chain_rows = [(1 << a) | (1 << b) for a, b in zip(path, path[1:])]
            g_rows.pop()
        for kind, rows in (("gadget_g", g_rows), ("gadget_h", h_rows), ("subdivision", chain_rows)):
            gens += [Generator(kind, r, row) for row in rows]

    # A level without a D block keeps its link row, which is already local.
    gens += [Generator("omega_link", r, link_row(layout, lattices, r))
             for r in range(1, t + 1) if r not in gadget_rs]

    n = layout.n
    dot_t_space = Subspace(n, [g.bits for g in gens])
    return StageCodes(
        layout=layout,
        lattices=lattices,
        t_space=dot_t_space.dot_space(),
        dot_t_space=dot_t_space,
        c_space=Subspace(n, [g.bits for g in gens if g.kind != "edge_double"]).dot_space(),
        witness_t=doubled.witness_t.embed(emb),
        witness_c=doubled.witness_c.embed(emb),
        generators=tuple(gens),
    )


@lru_cache(maxsize=None)
def cached_doubled(t: int) -> StageCodes:
    return build_doubled(t)


@lru_cache(maxsize=None)
def cached_gadget(t: int, stage: str) -> StageCodes:
    return build_gadget_codes(t, stage)


def qubit_counts(t: int) -> dict[str, int]:
    return {
        "doubled": 2 * t**3 + 6 * t**2 + 6 * t + 1,
        "gadget": 2 * t**3 + 7 * t**2 + 7 * t + 1,
        "local": 2 * t**3 + 8 * t**2 + 6 * t + 1,
        "final": 2 * t**3 + 8 * t**2 + 6 * t - 1,
    }
