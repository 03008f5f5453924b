import pytest

import oracles
from dccsim import f2
from dccsim.f2 import Subspace, min_odd_weight
from dccsim.csscode import EvennessWitness, check_evenness
from dccsim.lattice import build_lattice, face_space


@pytest.mark.parametrize("t", [1, 2, 3])
def test_counting(t):
    lat = build_lattice(t)
    m = 3 * t * t + 3 * t + 1
    assert lat.m == m
    assert len(lat.faces) == (m - 1) // 2
    # Euler formula for the drawn planar graph: E = V + F_inner - 1.
    assert len(lat.edges) == (3 * m - 3) // 2


def test_t1_shape():
    lat = build_lattice(1)
    assert lat.m == 7
    assert len(lat.faces) == 3
    assert all(len(f.cycle) == 4 for f in lat.faces)
    assert len(lat.edges) == 9


def test_rejects_t0():
    with pytest.raises(ValueError):
        build_lattice(0)


@pytest.mark.parametrize("t", [1, 2])
def test_face_space_properties(t):
    lat = build_lattice(t)
    s = face_space(lat)
    assert s.dim == (lat.m - 1) // 2
    assert Subspace(lat.m, f2.nullspace(s.basis, lat.m)).contains_subspace(s)  # self-orthogonal
    assert s.dot_space() == s
    assert min_odd_weight(s, 2 * t + 1) == 2 * t + 1


@pytest.mark.parametrize("t", [1, 2])
def test_face_space_doubly_even(t):
    lat = build_lattice(t)
    s = face_space(lat)
    w = EvennessWitness(lat.delta0, lat.delta2, 4)
    assert w.m == 1
    assert check_evenness(s, w)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_boundaries_are_minimum_weight_logicals(t):
    lat = build_lattice(t)
    s = face_space(lat)
    checks = s.basis
    for i in (1, 2, 3):
        side = lat.boundary_bits(i)
        assert side.bit_count() == 2 * t + 1
        assert side.bit_count() % 2 == 1
        assert all(not oracles.dot(side, row) for row in checks)


def test_t1_matches_standard_steane_table():
    # Map each site to the label determined by which faces contain it; the
    # face space must then equal the span of the standard parity-check rows.
    lat = build_lattice(1)
    perm = {}
    for idx in range(7):
        label = sum(1 << i for i, f in enumerate(lat.faces) if (f.bits >> idx) & 1)
        perm[idx] = label - 1  # standard numbering is 1-based
    assert sorted(perm.values()) == list(range(7))
    mapped_faces = [
        f2.vector_from_support(perm[j] for j in f2.support(face.bits))
        for face in lat.faces
    ]
    standard = Subspace(7, [0b1010101, 0b1100110, 0b1111000])
    assert Subspace(7, mapped_faces) == standard


def test_edges_span_even_subspace():
    for t in (1, 2):
        lat = build_lattice(t)
        edge_space = Subspace(lat.m, [lat.edge_bits(e) for e in lat.edges])
        assert edge_space == Subspace(lat.m, [(1 << j) | 1 for j in range(1, lat.m)])


def test_opposite_edge_pairs_sum_to_face():
    lat = build_lattice(1)
    for i, face in enumerate(lat.faces):
        for l, lp in lat.opposite_edge_pairs(i):
            assert lat.edge_bits(lat.edges[l]) ^ lat.edge_bits(lat.edges[lp]) == face.bits


def test_face_containing_boundary_pairs():
    lat = build_lattice(2)
    side = lat.boundary(1)
    for k in range(len(side) - 1):
        idx = oracles.face_containing(lat, side[k], side[k + 1])
        face = lat.faces[idx]
        on_side = face.bits & lat.boundary_bits(1)
        assert on_side == (1 << side[k]) | (1 << side[k + 1])
