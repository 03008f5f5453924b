import functools
import operator
import random

import numpy as np
import pytest

import oracles
from dccsim.csscode import (
    CodeConstructionError,
    EvennessWitness,
    build_cleanability_table,
    check_evenness,
    make_code,
    verify_transversality,
)
from dccsim.f2 import Subspace

STEANE_FACES = [0b1010101, 0b1100110, 0b1111000]
OMEGA = 0b1111111 ^ STEANE_FACES[1]  # weight-3 logical of the 7-qubit code


def steane_space():
    return Subspace(7, STEANE_FACES)


def fifteen_qubit_spaces():
    """T, C, and edge spaces of the 15-qubit family, straight from the tables."""
    double_faces = [f | (f << 7) for f in STEANE_FACES]
    bc = 0b111111110000000 | (1 << 14)
    t_space = Subspace(15, double_faces + [bc])
    c_space = Subspace(
        15,
        STEANE_FACES
        + [f << 7 for f in STEANE_FACES]
        + [(OMEGA << 7) | (1 << 14)],
    )
    # Drawn edges of the 7-qubit lattice in the standard numbering.
    edges = [
        (0, 2), (2, 6), (6, 4), (4, 0),
        (1, 2), (2, 6), (6, 5), (5, 1),
        (3, 4), (4, 6), (6, 5), (5, 3),
    ]
    edge_vecs = sorted({(1 << a) | (1 << b) for a, b in edges})
    g_space = Subspace(15, [e | (e << 7) for e in edge_vecs])
    return t_space, c_space, g_space


class TestMakeCode:
    def test_steane(self):
        s = steane_space()
        code = make_code(s, s)
        assert code.is_regular
        assert oracles.distance(code, 3) == 3
        assert code.coset_map.alpha_bits + code.coset_map.beta_bits == 8  # n + 1

    def test_fifteen_qubit_t_code(self):
        t_space, c_space, g_space = fifteen_qubit_spaces()
        code = make_code(t_space, t_space.dot_space())
        assert code.is_regular
        assert oracles.distance(code, 3) == 3
        assert code.coset_map.alpha_bits + code.coset_map.beta_bits == 16

    def test_base_code_is_subsystem(self):
        t_space, c_space, _ = fifteen_qubit_spaces()
        code = make_code(t_space, c_space)
        assert not code.is_regular
        assert code.b_space.dot_space().contains_subspace(code.a_space)
        assert oracles.distance(code, 3) == 3
        assert code.coset_map.alpha_bits + code.coset_map.beta_bits == 2 + t_space.dim + c_space.dim

    def test_rejects_even_n(self):
        s = Subspace(4, [0b0011])
        with pytest.raises(CodeConstructionError, match="odd"):
            make_code(s, s)

    def test_rejects_odd_weight_generators(self):
        s = Subspace(5, [0b00111])
        bad = Subspace(5, [0b00001])
        with pytest.raises(CodeConstructionError, match="even"):
            make_code(s, bad)

    def test_rejects_odd_row_in_b_only(self):
        a = Subspace(5, [0b00011])
        bad = Subspace(5, [0b01100, 0b10000])
        with pytest.raises(CodeConstructionError, match="B is not contained in the even subspace"):
            make_code(a, bad)

    def test_rejects_non_orthogonal(self):
        a = Subspace(5, [0b00011])
        b = Subspace(5, [0b00110])
        with pytest.raises(CodeConstructionError, match="orthogonal"):
            make_code(a, b)

    def test_rejects_label_rows_without_all_ones(self):
        s = steane_space()
        with pytest.raises(CodeConstructionError, match="mat_a rows"):
            make_code(s, s, mat_a=s.basis)

    def test_regular_is_a_dimension_count(self):
        # Even A and B inside dot(A) on odd n: B = dot(A) iff A = dot(B) iff
        # dim A + dim B = n - 1. B is drawn from dim dot(A) - 1 or dim dot(A)
        # random combinations of dot(A)'s basis, so both outcomes occur.
        rng = random.Random(23)
        outcomes = set()
        for _ in range(300):
            n = rng.choice([1, 3, 5, 7, 9, 11])
            rows = [v ^ (v.bit_count() & 1) for v in (rng.getrandbits(n) for _ in range(rng.randrange(n)))]
            a_space = Subspace(n, rows)
            dot_a = a_space.dot_space()
            picks = dot_a.dim - rng.randrange(2)
            combos = ([r for r in dot_a.basis if rng.getrandbits(1)] for _ in range(picks))
            b_space = Subspace(n, [functools.reduce(operator.xor, combo, 0) for combo in combos])
            code = make_code(a_space, b_space)
            assert code.is_regular == (b_space == dot_a) == (a_space == b_space.dot_space())
            outcomes.add(code.is_regular)
        assert outcomes == {False, True}

    def test_regular_gauge_spaces(self):
        t_space, c_space, _ = fifteen_qubit_spaces()
        for a in (steane_space(), t_space, c_space):
            code = make_code(a, a.dot_space())
            assert code.b_space.dot_space() == code.a_space
            assert code.a_space.dot_space() == code.b_space


class TestDotDecomposition:
    def test_dot_of_t_is_c_plus_edges(self):
        t_space, c_space, g_space = fifteen_qubit_spaces()
        assert t_space.dot_space() == c_space + g_space
        assert oracles.intersect(c_space, t_space.dot_space()) == c_space
        assert oracles.intersect(t_space, c_space) == t_space


class TestCosetLabels:
    def test_zero_label(self):
        code = make_code(steane_space(), steane_space())
        assert code.coset_map.label(0, 0) == 0

    def test_gauge_elements_map_to_zero(self):
        t_space, c_space, _ = fifteen_qubit_spaces()
        code = make_code(t_space, c_space)
        rng = random.Random(0)
        gauge_x = code.b_space.dot_space().element_array().tolist()
        gauge_z = code.a_space.dot_space().element_array().tolist()
        for _ in range(50):
            a = rng.choice(gauge_x)
            b = rng.choice(gauge_z)
            assert code.coset_map.label(a, b) == 0

    def test_logical_x_label_nonzero(self):
        t_space, c_space, _ = fifteen_qubit_spaces()
        code = make_code(t_space, t_space.dot_space())
        ones = (1 << 15) - 1
        assert code.coset_map.label(ones, 0) != 0

    def test_single_qubit_label_matches_columns(self):
        code = make_code(steane_space(), steane_space())
        cm = code.coset_map
        label = code.coset_map.label(1, 0)
        expect = 0
        for i, row in enumerate(cm.mat_b):
            expect |= (row & 1) << i
        assert label == expect

    def test_coset_soundness(self):
        # Equal labels iff the difference is a gauge-group element.
        t_space, c_space, _ = fifteen_qubit_spaces()
        code = make_code(t_space, c_space)
        rng = random.Random(1)
        gauge_x, gauge_z = code.b_space.dot_space(), code.a_space.dot_space()
        for _ in range(200):
            a1, b1 = rng.getrandbits(15), rng.getrandbits(15)
            a2, b2 = rng.getrandbits(15), rng.getrandbits(15)
            same = code.coset_map.label(a1, b1) == code.coset_map.label(a2, b2)
            in_gauge = (a1 ^ a2) in gauge_x and (b1 ^ b2) in gauge_z
            assert same == in_gauge


class TestEvenness:
    def test_steane_doubly_even_plain(self):
        w = EvennessWitness.from_sites(range(7), [], 4)
        assert check_evenness(steane_space(), w)

    def test_fifteen_qubit_triply_even_plain(self):
        t_space, _, _ = fifteen_qubit_spaces()
        w = EvennessWitness.from_sites(range(15), [], 8)
        assert check_evenness(t_space, w)
        assert all(v.bit_count() % 8 == 0 for v in t_space.element_array().tolist())

    def test_zero_subspace(self):
        w = EvennessWitness.from_sites([0, 1], [2], 8)
        assert check_evenness(Subspace(5), w)

    def test_steane_not_triply_even_plain(self):
        w = EvennessWitness.from_sites(range(7), [], 8)
        assert not check_evenness(steane_space(), w)

    def test_witness_validation(self):
        with pytest.raises(ValueError):
            EvennessWitness.from_sites([0], [0], 4)
        with pytest.raises(ValueError):
            EvennessWitness.from_sites([], [], 4)
        with pytest.raises(ValueError):
            EvennessWitness.from_sites([0], [], 5)

    def test_large_dim_path_matches_exhaustive(self):
        # On random even self-orthogonal spaces the criterion computed on
        # basis vectors and intersections must agree with full enumeration
        # whether or not the space qualifies.
        rng = random.Random(2)
        n = 13
        for _ in range(40):
            rows = []
            for _ in range(6):
                v = rng.getrandbits(n)
                if v.bit_count() % 2:
                    v ^= 1 << rng.randrange(n)
                if not any(oracles.dot(v, r) for r in rows):
                    rows.append(v)
            s = Subspace(n, rows)
            for order in (4, 8):
                w = EvennessWitness.from_sites(range(n), [], order)
                exhaustive = all(oracles.signed_overlap(w, v) % order == 0
                                 for v in s.element_array().tolist())
                assert check_evenness(s, w) == exhaustive

    def test_large_dim_path_on_triply_even_space(self):
        # The t=2 code space (dim 14, 53 qubits) is triply even with respect
        # to its recursion witness; the basis/pair/triple criterion must
        # agree with full enumeration, and must reject a spoiled witness the
        # same way the enumeration does.
        from dccsim.codefamily import build_doubled

        d = build_doubled(2)
        w = d.witness_t
        assert check_evenness(d.t_space, w)
        first_plus = w.plus & -w.plus
        spoiled = EvennessWitness(w.plus ^ first_plus, w.minus, 8)
        exhaustive = all(
            oracles.signed_overlap(spoiled, v) % 8 == 0 for v in d.t_space.element_array().tolist()
        )
        assert not exhaustive
        assert check_evenness(d.t_space, spoiled) == exhaustive


class TestTransversality:
    def test_fifteen_qubit_t_gate(self):
        t_space, _, _ = fifteen_qubit_spaces()
        code = make_code(t_space, t_space.dot_space())
        w = EvennessWitness.from_sites(range(15), [], 8)
        assert verify_transversality(code, "T", w)

    def test_steane_h_and_s(self):
        code = make_code(steane_space(), steane_space())
        assert verify_transversality(code, "H")
        w = EvennessWitness.from_sites(range(7), [], 4)
        assert verify_transversality(code, "S", w)

    def test_steane_no_t_gate(self):
        code = make_code(steane_space(), steane_space())
        w = EvennessWitness.from_sites(range(7), [], 8)
        assert not verify_transversality(code, "T", w)

    def test_missing_witness(self):
        code = make_code(steane_space(), steane_space())
        with pytest.raises(ValueError, match="witness"):
            verify_transversality(code, "T")

    def test_t_implies_mod8_phase_exponents(self):
        # Executable content of the transversality condition: every X
        # stabilizer picks up a trivial phase under the signed T product.
        t_space, _, _ = fifteen_qubit_spaces()
        code = make_code(t_space, t_space.dot_space())
        w = EvennessWitness.from_sites(range(15), [], 8)
        assert verify_transversality(code, "T", w)
        for v in code.a_space.element_array().tolist():
            assert oracles.signed_overlap(w, v) % 8 == 0


@pytest.fixture(scope="module")
def t_code():
    t_space, _, _ = fifteen_qubit_spaces()
    return make_code(t_space, t_space.dot_space())


@pytest.fixture(scope="module")
def table(t_code):
    return build_cleanability_table(t_code, oracles.T_ON_EVERY_SITE)


def superset_closure_table(code):
    """Cleanable labels and representatives by the dual scan: mark the odd
    vectors of A-perp, close the marks under supersets, and take the first
    unmarked vector of each label in (weight, value) order."""
    n = code.n
    unclean = np.zeros(1 << n, dtype=bool)
    unclean[oracles.odd_dual_vectors(code.a_space)] = True
    for j in range(n):
        halves = unclean.reshape(-1, 2, 1 << j)
        halves[:, 1, :] |= halves[:, 0, :]
    reps = {}
    for e in sorted(range(1 << n), key=lambda v: (v.bit_count(), v)):
        if not unclean[e]:
            reps.setdefault(code.coset_map.label_x(e), e)
    return reps


@pytest.fixture(scope="module")
def c_code():
    _, c_space, _ = fifteen_qubit_spaces()
    return make_code(c_space, c_space)


class TestCleanability:

    @pytest.mark.parametrize("name, count", [("t_code", 996), ("c_code", 240)])
    def test_subset_closure_of_a_matches_odd_dual_scan(self, request, name, count):
        # e lies inside an element of A exactly when it contains no odd
        # vector of A-perp, so both scans give the same table.
        code = request.getfixturevalue(name)
        assert code.is_regular
        table = build_cleanability_table(code, oracles.T_ON_EVERY_SITE)
        assert len(table.cleanable) == count
        assert table.representative == superset_closure_table(code)

    def test_count_is_996(self, table):
        assert len(table.cleanable) == 996

    def test_zero_coset(self, table):
        assert table.is_cleanable(0)
        assert table.rep(0) == 0

    def test_reps_pass_support_test(self, t_code, table):
        odd = oracles.odd_dual_vectors(t_code.a_space)
        for alpha in table.cleanable:
            e = table.rep(alpha)
            assert t_code.coset_map.label_x(e) == alpha
            assert oracles.is_clean_representative(t_code.a_space, e, odd)

    def test_non_cleanable_cosets_have_no_clean_rep(self, t_code, table):
        # Converse check on a sample: every representative of an unmarked
        # coset fails the support test (the builder scanned all of F2^15, so
        # this re-derives what it already established).
        odd = oracles.odd_dual_vectors(t_code.a_space)
        rng = random.Random(3)
        bad = [a for a in range(1 << 11) if not table.is_cleanable(a)]
        assert len(bad) == (1 << 11) - 996
        for alpha in rng.sample(bad, 10):
            base = next(e for e in range(1 << 15) if t_code.coset_map.label_x(e) == alpha)
            for v in t_code.a_space.element_array().tolist():
                assert not oracles.is_clean_representative(t_code.a_space, base ^ v, odd)

    def test_omega_support_coset_not_cleanable(self, t_code, table):
        # The weight-3 logical support itself contains an odd dual (the
        # logical), and every other representative of its coset has A-part
        # omega+f with f a face combination, again an odd dual. So the whole
        # coset fails, despite its representative weight equalling the
        # distance.
        e = OMEGA
        alpha = t_code.coset_map.label_x(e)
        assert not oracles.is_clean_representative(t_code.a_space, e)
        assert not table.is_cleanable(alpha)

    def test_low_weight_cosets_cleanable(self, t_code, table):
        # Any coset with a representative lighter than the distance is
        # cleanable; weight-2 vectors give such representatives.
        for e in (0b11, 0b101, (1 << 14) | 1):
            alpha = t_code.coset_map.label_x(e)
            assert table.is_cleanable(alpha)
            assert table.rep(alpha) <= e or table.rep(alpha).bit_count() <= e.bit_count()

    def test_requires_regular_code(self):
        t_space, c_space, _ = fifteen_qubit_spaces()
        base = make_code(t_space, c_space)
        with pytest.raises(CodeConstructionError):
            build_cleanability_table(base, oracles.T_ON_EVERY_SITE)

