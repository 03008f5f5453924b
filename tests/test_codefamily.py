import random

import pytest

import oracles
from dccsim import f2
from dccsim.csscode import EvennessWitness, check_evenness
from dccsim.f2 import Subspace, min_odd_weight
from dccsim.codefamily import (
    build_doubled,
    build_gadget_codes,
    double,
    double_witness,
    qubit_counts,
)
from dccsim.lattice import build_lattice, face_space


def brute_distance(s: Subspace) -> int:
    """Independent oracle: full enumeration of S-perp."""
    perp = oracles.orthogonal_complement(s)
    best = None
    for v in perp.element_array():
        v = int(v)
        w = v.bit_count()
        if w % 2 and (best is None or w < best):
            best = w
    return best


def random_even_space(rng: random.Random, n: int, gens: int) -> Subspace:
    rows = []
    for _ in range(gens):
        v = rng.getrandbits(n)
        if v.bit_count() % 2:
            v ^= 1 << rng.randrange(n)
        rows.append(v)
    return Subspace(n, rows)


class TestDoublingMap:
    def test_dimension(self):
        rng = random.Random(0)
        for _ in range(20):
            m, n = rng.choice([3, 5, 7]), rng.choice([1, 3, 5])
            s = random_even_space(rng, m, rng.randrange(0, m))
            t = random_even_space(rng, n, rng.randrange(0, n))
            u = double(s, t)
            assert u.n == 2 * m + n
            assert u.dim == s.dim + t.dim + 1

    def test_t1_is_fifteen_qubit_space(self):
        s1 = face_space(build_lattice(1))
        u = double(s1, Subspace(1))
        # Must match the explicit four-row table span after the site map that
        # sends each site to its face-membership label.
        lat = build_lattice(1)
        perm = {}
        for idx in range(7):
            label = sum(1 << i for i, f in enumerate(lat.faces) if (f.bits >> idx) & 1)
            perm[idx] = label - 1
        positions = [perm[j] for j in range(7)] + [7 + perm[j] for j in range(7)] + [14]
        mapped = Subspace(15, [f2.embed(b, positions) for b in u.basis])
        faces = [0b1010101, 0b1100110, 0b1111000]
        table = Subspace(15, [f | (f << 7) for f in faces] + [((1 << 8) - 1) << 7])
        assert mapped == table

    def test_distance_law_on_random_instances(self):
        # d(2S+T) = min(d(S), d(T)+2) against the brute-force oracle.
        rng = random.Random(1)
        done = 0
        while done < 100:
            m = rng.choice([5, 7, 9])
            n = rng.choice([3, 5, 9])
            s = random_even_space(rng, m, rng.randrange(1, m))
            t = random_even_space(rng, n, rng.randrange(1, n))
            u = double(s, t)
            if u.n - u.dim > 20:
                continue  # keep the oracle enumeration small
            ds, dt, du = brute_distance(s), brute_distance(t), brute_distance(u)
            assert du == min(ds, dt + 2)
            done += 1

    def test_dot_of_double_matches_four_term_expression(self):
        rng = random.Random(2)
        for _ in range(25):
            m, n = rng.choice([3, 5]), rng.choice([3, 5])
            s = random_even_space(rng, m, rng.randrange(0, m))
            t = random_even_space(rng, n, rng.randrange(0, n))
            u = double(s, t)
            # Independent construction: even double rows, dot(S) on B,
            # dot(T) on C, and the all-ones row on B and C.
            rows = [b | (b << m) for b in Subspace(m, [(1 << j) | 1 for j in range(1, m)]).basis]
            rows += [b << m for b in s.dot_space().basis]
            rows += [b << (2 * m) for b in t.dot_space().basis]
            rows.append((((1 << m) - 1) << m) | (((1 << n) - 1) << (2 * m)))
            assert u.dot_space() == Subspace(u.n, rows)

    def test_double_witness_carries_triple_evenness(self):
        s1 = face_space(build_lattice(1))
        lat = build_lattice(1)
        ws = EvennessWitness(lat.delta0, lat.delta2, 4)
        wt = EvennessWitness(1, 0, 8)  # the single level-0 qubit
        u = double(s1, Subspace(1))
        w = double_witness(7, ws, wt)
        assert w.m == 1
        assert check_evenness(u, w)


class TestDoubledCodes:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_counts_and_dims(self, t):
        d = build_doubled(t)
        assert d.n == qubit_counts(t)["doubled"]
        assert d.t_space.dim == sum((3 * r * r + 3 * r + 1 - 1) // 2 + 1 for r in range(1, t + 1))
        assert d.dot_t_space == d.t_space.dot_space()
        assert d.c_space == d.c_space.dot_space()

    def test_t1_values(self):
        d = build_doubled(1)
        assert d.n == 15
        assert d.t_space.dim == 4
        assert d.c_space.dim == 7
        assert all(v.bit_count() % 8 == 0 for v in d.t_space.element_array().tolist())
        assert min_odd_weight(d.t_space, 3) == 3
        assert min_odd_weight(d.dot_t_space, 7) == 7
        assert min_odd_weight(d.c_space, 3) == 3

    @pytest.mark.parametrize("t", [1, 2])
    def test_inclusion_chain(self, t):
        d = build_doubled(t)
        assert d.c_space.contains_subspace(d.t_space)
        assert d.c_space.dot_space() == d.c_space
        assert d.dot_t_space.contains_subspace(d.c_space)

    @pytest.mark.parametrize("t", [1, 2])
    def test_witnesses(self, t):
        d = build_doubled(t)
        assert d.witness_t.m == 1
        assert d.witness_t.plus.bit_count() + d.witness_t.minus.bit_count() == d.n
        assert check_evenness(d.t_space, d.witness_t)
        assert d.witness_c.m == 1
        assert check_evenness(d.c_space, d.witness_c)

    def test_t2_sizes(self):
        d = build_doubled(2)
        assert d.n == 53
        assert d.t_space.dim == 14  # 9 + 4 + 1
        assert d.witness_t.plus.bit_count() == 27
        assert d.witness_t.minus.bit_count() == 26

    def test_t2_distance_five(self):
        d = build_doubled(2)
        # No odd vector of weight <= 3 in the dual.
        assert min_odd_weight(d.t_space, max_weight=3) is None
        # Explicit weight-5 logical: both copies of the first level-2 site
        # plus a weight-3 odd dual vector of the 15-qubit tail.
        tail = build_doubled(1)
        omega_a = tail.lattices[1].boundary_bits(2)  # weight-3 side of the 7-qubit code
        g_star = omega_a  # on the A1 block of the tail, position 0 in tail layout
        assert g_star.bit_count() == 3
        assert all(not oracles.dot(g_star, row) for row in tail.t_space.basis)
        witness = (1 << d.layout.offset("A2")) | (1 << d.layout.offset("B2"))
        witness |= g_star << d.layout.offset("A1")
        assert witness.bit_count() == 5
        assert all(not oracles.dot(witness, row) for row in d.t_space.basis)

    def test_1bc_identity(self):
        # The all-ones row on B and the tail decomposes as a face on B plus
        # the extra face joining the boundary to the final qubit.
        d = build_doubled(1)
        lat = d.lattices[1]
        omega = lat.boundary_bits(1)
        face = omega ^ ((1 << 7) - 1)
        assert face in face_space(lat)
        bc = d.layout.embed((1 << 7) - 1, "B1") | d.layout.embed(1, "A0")
        extra_face = d.layout.embed(omega, "B1") | d.layout.embed(1, "A0")
        assert bc == d.layout.embed(face, "B1") ^ extra_face
        assert extra_face in d.c_space


def dot_c_space(codes) -> Subspace:
    """The doubly-even side's dot space, spanned by every generator but the
    double edges."""
    return Subspace(codes.n, [g.bits for g in codes.generators if g.kind != "edge_double"])


class TestGadgetCodes:
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("stage", ["doubled", "gadget", "local", "final"])
    def test_qubit_counts(self, t, stage):
        codes = build_doubled(t) if stage == "doubled" else build_gadget_codes(t, stage)
        assert codes.stage == stage
        assert codes.n == qubit_counts(t)[stage]

    def test_t1_final_is_fifteen_qubit(self):
        codes = build_gadget_codes(1, "final")
        d = build_doubled(1)
        assert codes.n == 15
        assert codes.t_space == d.t_space
        assert codes.c_space == d.c_space

    def test_t2_final_is_59(self):
        assert build_gadget_codes(2, "final").n == 59
        assert qubit_counts(2)["local"] == 61

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("stage", ["gadget", "local", "final"])
    def test_inclusion_chain(self, t, stage):
        codes = build_gadget_codes(t, stage)
        dot_c = dot_c_space(codes)
        assert codes.c_space.contains_subspace(codes.t_space)
        assert dot_c.contains_subspace(codes.c_space)
        assert codes.dot_t_space.contains_subspace(dot_c)
        assert codes.t_space == codes.dot_t_space.dot_space()
        assert codes.c_space == dot_c.dot_space()

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("stage", ["gadget", "local", "final"])
    def test_evenness_carries_over(self, t, stage):
        codes = build_gadget_codes(t, stage)
        assert check_evenness(codes.t_space, codes.witness_t)
        assert check_evenness(codes.c_space, codes.witness_c)
        assert codes.witness_t.m == 1
        assert codes.witness_c.m == 1

    @pytest.mark.parametrize("t", [1, 2])
    def test_membership_certificates(self, t):
        failures = oracles.membership_certificates(build_gadget_codes(t, "gadget"))
        assert not failures, failures

    @pytest.mark.parametrize("stage", ["local", "final"])
    def test_membership_certificates_subdivided(self, stage):
        failures = oracles.membership_certificates(build_gadget_codes(2, stage))
        assert not failures, failures

    def test_t2_distances(self):
        for stage in ("gadget", "local", "final"):
            codes = build_gadget_codes(2, stage)
            assert min_odd_weight(codes.t_space, max_weight=3) is None
        # Explicit weight-5 logical survives in the final stage.
        codes = build_gadget_codes(2, "final")
        d = build_doubled(2)
        tail_omega = codes.lattices[1].boundary_bits(2)
        witness = (1 << codes.layout.offset("A2")) | (1 << codes.layout.offset("B2"))
        witness |= tail_omega << codes.layout.offset("A1")
        assert witness.bit_count() == 5
        assert all(not oracles.dot(witness, row) for row in codes.t_space.basis)

    def test_generator_locality(self):
        codes = build_gadget_codes(2, "final")
        for g in codes.generators:
            assert g.bits.bit_count() <= 6, (g.kind, g.level)
        spans = Subspace(codes.n, [g.bits for g in codes.generators])
        assert spans == codes.dot_t_space
        assert dot_c_space(codes) == codes.c_space.dot_space()

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_counting_formulas(self, t):
        from dccsim.codefamily import _stage_layout, cached_doubled
        from dccsim.lattice import build_lattice

        lattices = {r: build_lattice(r) for r in range(1, t + 1)}
        counts = qubit_counts(t)
        assert counts["doubled"] == 2 * t**3 + 6 * t**2 + 6 * t + 1
        assert counts["gadget"] == 2 * t**3 + 7 * t**2 + 7 * t + 1
        assert counts["local"] == 2 * t**3 + 8 * t**2 + 6 * t + 1
        assert counts["final"] == 2 * t**3 + 8 * t**2 + 6 * t - 1
        assert _stage_layout(t, lattices, "doubled") == cached_doubled(t).layout
        for stage in ("doubled", "gadget", "local", "final"):
            assert _stage_layout(t, lattices, stage).n == counts[stage]

    @pytest.mark.parametrize("stage", ["gadget", "local", "final"])
    def test_link_sites_in_every_layout(self, stage):
        from dccsim.codefamily import cached_doubled, link_row, link_sites

        codes, doubled = build_gadget_codes(3, stage), cached_doubled(3)
        spans = codes.layout.spans
        emb = [i for name, _ in doubled.layout.blocks for i in spans[name]]
        for r in range(1, 4):
            u, v = link_sites(codes.layout, codes.lattices, r)
            assert len(u) == 2 * r + 1 and set(u) <= set(spans[f"B{r}"])
            assert len(v) == 2 * r - 1 and set(v) <= set(spans[f"A{r-1}" if r > 1 else "A0"])
            row = link_row(doubled.layout, doubled.lattices, r)
            assert link_row(codes.layout, codes.lattices, r) == f2.embed(row, emb)

    @pytest.mark.slow
    def test_t3_chain_and_evenness(self):
        codes = build_gadget_codes(3, "final")
        assert codes.n == qubit_counts(3)["final"]
        dot_c = dot_c_space(codes)
        assert codes.c_space.contains_subspace(codes.t_space)
        assert dot_c.contains_subspace(codes.c_space)
        assert codes.dot_t_space.contains_subspace(dot_c)
        from dccsim.csscode import check_evenness

        assert check_evenness(codes.t_space, codes.witness_t)
        assert check_evenness(codes.c_space, codes.witness_c)
        assert all(g.bits.bit_count() <= 6 for g in codes.generators)
        failures = oracles.membership_certificates(build_gadget_codes(3, "gadget"))
        assert not failures, failures

    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            build_gadget_codes(1, "bogus")
        with pytest.raises(ValueError):
            build_gadget_codes(0, "gadget")


class TestSubdivisionGadget:
    def _random_instance(self, rng):
        # Random self-orthogonal even space whose dot space contains e0+e1,
        # i.e. all members have equal bits at 0 and 1.
        n = rng.choice([9, 11, 13])
        rows = []
        tries = 0
        while len(rows) < (n - 3) // 2 and tries < 200:
            tries += 1
            v = rng.getrandbits(n)
            if (v ^ (v >> 1)) & 1:
                v ^= 0b11 if rng.random() < 0.5 else (v & 0b11)
                v &= (1 << n) - 1
            if ((v & 1) != ((v >> 1) & 1)):
                continue
            if v.bit_count() % 2:
                v ^= 1 << rng.randrange(2, n)
            if v.bit_count() % 2:
                continue
            if any(oracles.dot(v, r) for r in rows):
                continue
            rows.append(v)
        u = Subspace(n, rows)
        if not u.dot_space().contains((1 << 0) | (1 << 1)):
            return None
        if not u.dot_space().contains_subspace(u):
            return None
        return u

    def test_preserves_distance_and_evenness(self):
        rng = random.Random(3)
        done = 0
        while done < 50:
            u = self._random_instance(rng)
            if u is None or u.dim == 0:
                continue
            du = brute_distance(u)
            if du is None or du < 3:
                continue
            dot_v = oracles.subdivide_link(u.dot_space(), 0, 1)
            v = dot_v.dot_space()
            assert brute_distance(v) == du
            # Evenness with respect to the original qubits carries over when
            # the instance happens to be doubly even there.
            w = EvennessWitness.from_sites(range(u.n), [], 4)
            if check_evenness(u, w):
                assert check_evenness(v, w)
            done += 1

    def test_triply_even_instance(self):
        # The 15-qubit space has weight-2 dot rows (double edges share no
        # support): use a doubled toy instead, then subdivide a chain link.
        codes = build_gadget_codes(1, "gadget")
        # g_1^1 is a weight-2 dot row on the two ancillas.
        i, j = codes.layout.spans["D1"]
        dot_v = oracles.subdivide_link(codes.dot_t_space, i, j)
        v = dot_v.dot_space()
        assert v.dim == codes.t_space.dim
        w = codes.witness_t
        assert check_evenness(codes.t_space, w)
        assert check_evenness(v, w)
        assert brute_distance_small(v) == 3

    def test_requires_weight_two_member(self):
        u = Subspace(5, [0b00111 ^ 0b00001])  # even row
        with pytest.raises(ValueError):
            oracles.subdivide_link(u, 0, 4)


def brute_distance_small(s: Subspace) -> int:
    w = 1
    n = s.n
    import itertools

    while w <= n:
        for sites in itertools.combinations(range(n), w):
            v = f2.vector_from_support(sites)
            if all(not oracles.dot(v, row) for row in s.basis):
                return w
        w += 2
    raise AssertionError("no odd dual vector found")
