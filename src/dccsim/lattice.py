"""Triangular color-code lattices and their faces, edges, and boundaries.

Sites are triples (j1, j2, j3) of non-negative integers with j1+j2+j3 = 3t
and j2-j1 != 1 (mod 3). The excluded residue class provides the face centers:
the face around a center is the set of its nearest neighbors in the ambient
triangular lattice, listed in cyclic (hexagonal) order. Boundary faces have
four sites, interior faces six. Edges are the consecutive site pairs around
each face cycle, which on the boundary includes pairs at triangular distance
two (the drawn lattice subdivides the triangle sides).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import f2
from .f2 import Subspace

Site = tuple[int, int, int]

# Unit steps of the triangular lattice in counterclockwise cyclic order.
HEX_DIRECTIONS: tuple[Site, ...] = (
    (1, -1, 0),
    (1, 0, -1),
    (0, 1, -1),
    (-1, 1, 0),
    (-1, 0, 1),
    (0, -1, 1),
)


def _site_class(site: Site) -> int:
    return (site[1] - site[0]) % 3


@dataclass(frozen=True)
class Face:
    cycle: tuple[int, ...]   # site indices in cyclic order around the face's center
    bits: int


@dataclass(frozen=True)
class ColorLattice:
    t: int
    sites: tuple[Site, ...]
    faces: tuple[Face, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.sites)

    @cached_property
    def site_index(self) -> dict[Site, int]:
        return {s: i for i, s in enumerate(self.sites)}

    def _class_bits(self, cls: int) -> int:
        return f2.vector_from_support(i for i, s in enumerate(self.sites) if _site_class(s) == cls)

    @cached_property
    def delta0(self) -> int:
        return self._class_bits(0)

    @cached_property
    def delta2(self) -> int:
        return self._class_bits(2)

    def edge_bits(self, edge: tuple[int, int]) -> int:
        return (1 << edge[0]) | (1 << edge[1])

    def opposite_edge_pairs(self, face_idx: int) -> tuple[tuple[int, int], ...]:
        """Pairs of opposite edges (l, l') with l + l' equal to the face, as
        indices into `edges` (sorted site pairs), around the face's cycle.

        Only four-site faces decompose this way.
        """
        cyc = self.faces[face_idx].cycle
        if len(cyc) != 4:
            raise ValueError("opposite edge pairs exist only for four-site faces")
        idx = [self.edges.index(tuple(sorted((cyc[i], cyc[(i + 1) % 4])))) for i in range(4)]
        return ((idx[0], idx[2]), (idx[1], idx[3]))

    def boundary(self, i: int) -> tuple[int, ...]:
        """Site indices on the side j_i = 0, ordered along the side.

        Ordering convention: side 1 by ascending j2, side 2 by ascending j3,
        side 3 by ascending j1.
        """
        key = {1: lambda s: s[1], 2: lambda s: s[2], 3: lambda s: s[0]}[i]
        ordered = sorted(
            (s for s in self.sites if s[i - 1] == 0),
            key=key,
        )
        return tuple(self.site_index[s] for s in ordered)

    def boundary_bits(self, i: int) -> int:
        return f2.vector_from_support(self.boundary(i))


def build_lattice(t: int) -> ColorLattice:
    if t < 1:
        raise ValueError("t must be at least 1")
    total = 3 * t
    triples = [
        (j1, j2, total - j1 - j2)
        for j1 in range(total + 1)
        for j2 in range(total - j1 + 1)
    ]
    sites = tuple(sorted(s for s in triples if _site_class(s) != 1))
    index = {s: i for i, s in enumerate(sites)}
    centers = sorted(s for s in triples if _site_class(s) == 1)
    faces = []
    for c in centers:
        cycle = []
        for d in HEX_DIRECTIONS:
            nb = (c[0] + d[0], c[1] + d[1], c[2] + d[2])
            if min(nb) >= 0 and nb in index:
                cycle.append(index[nb])
        bits = f2.vector_from_support(cycle)
        faces.append(Face(cycle=tuple(cycle), bits=bits))
    edge_set = set()
    for face in faces:
        cyc = face.cycle
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            edge_set.add((min(a, b), max(a, b)))
    lattice = ColorLattice(t=t, sites=sites, faces=tuple(faces), edges=tuple(sorted(edge_set)))
    _validate(lattice)
    return lattice


def _validate(lat: ColorLattice) -> None:
    t = lat.t
    m = 3 * t * t + 3 * t + 1
    if lat.m != m:
        raise AssertionError(f"expected {m} sites, found {lat.m}")
    if len(lat.faces) != (m - 1) // 2:
        raise AssertionError("face count mismatch")
    for face in lat.faces:
        if len(face.cycle) not in (4, 6):
            raise AssertionError("face is not a square or hexagon")
    if lat.delta0.bit_count() - lat.delta2.bit_count() != 1:
        raise AssertionError("site class imbalance is not 1")
    for a, b in lat.edges:
        ca, cb = _site_class(lat.sites[a]), _site_class(lat.sites[b])
        if {ca, cb} != {0, 2}:
            raise AssertionError("edge does not join the two site classes")
    for i in (1, 2, 3):
        if len(lat.boundary(i)) != 2 * t + 1:
            raise AssertionError("boundary side has wrong length")


def face_space(lat: ColorLattice) -> Subspace:
    """Span of all faces: the color-code stabilizer subspace on this lattice."""
    return Subspace(lat.m, [f.bits for f in lat.faces])
