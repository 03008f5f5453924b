import math

import numpy as np
import pytest

from dccsim import f2, noise
from dccsim.csscode import build_cleanability_table, make_code
from dccsim.f2 import Subspace
from dccsim.protocol import family15
from dccsim.noise import (
    CLIFFORD_CLASSES,
    CLIFFORD_GROUP,
    PauliFrame,
    TPropagator,
    flip_syndrome,
    p_f_given_e,
    p_f_given_e_charsum,
    propagate_through_t,
    sample_clifford,
    sample_memory_error,
)

STEANE_FACES = [0b1010101, 0b1100110, 0b1111000]


@pytest.fixture(scope="module")
def t_code():
    faces = [f | (f << 7) for f in STEANE_FACES]
    bc = (((1 << 7) - 1) << 7) | (1 << 14)
    t_space = Subspace(15, faces + [bc])
    return make_code(t_space, t_space.dot_space())


@pytest.fixture(scope="module")
def propagator(t_code):
    return TPropagator(t_code, build_cleanability_table(t_code))


class TestErrorModel:
    def test_p_zero_gives_identity(self):
        rng = np.random.default_rng(0)
        assert sample_memory_error(0.0, 15, rng) == (0, 0)
        assert flip_syndrome(0.0, 0b1011, 4, rng) == 0b1011

    def test_p_one_hits_every_qubit(self):
        rng = np.random.default_rng(1)
        a, b = sample_memory_error(1.0, 9, rng)
        assert (a | b).bit_count() == 9
        assert flip_syndrome(1.0, 0, 6, rng) == 0b111111

    def test_depolarizing_marginals(self):
        rng = np.random.default_rng(2)
        counts = {"X": 0, "Y": 0, "Z": 0}
        samples = 100_000
        for _ in range(samples):
            a, b = sample_memory_error(0.3, 1, rng)
            if a and b:
                counts["Y"] += 1
            elif a:
                counts["X"] += 1
            elif b:
                counts["Z"] += 1
        for k in counts:
            assert abs(counts[k] / samples - 0.1) <= 0.005

    def test_flip_rate(self):
        rng = np.random.default_rng(3)
        flips = 0
        rounds = 10_000
        width = 10
        for _ in range(rounds):
            flips += flip_syndrome(0.01, 0, width, rng).bit_count()
        rate = flips / (rounds * width)
        assert abs(rate - 0.01) <= 0.002


class TestCliffordActions:
    def test_h_swaps(self):
        frame = PauliFrame(5, a=0b00110, b=0b10001)
        CLIFFORD_CLASSES[1].apply_frame(frame)
        assert (frame.a, frame.b) == (0b10001, 0b00110)

    def test_s_adds(self):
        frame = PauliFrame(5, a=0b00110, b=0b10001)
        CLIFFORD_CLASSES[2].apply_frame(frame)
        assert (frame.a, frame.b) == (0b00110, 0b10111)

    def test_identity(self):
        frame = PauliFrame(5, a=0b1, b=0b10)
        CLIFFORD_CLASSES[0].apply_frame(frame)
        assert (frame.a, frame.b) == (0b1, 0b10)

    def test_actions_form_gl2(self):
        mats = set()
        for cls in CLIFFORD_CLASSES:
            mats.add((cls.p, cls.r, cls.q, cls.s))
            det = (cls.p * cls.s + cls.q * cls.r) % 2
            assert det == 1
        assert len(mats) == 6

    def test_group_table_is_uniform_over_classes(self):
        assert len(CLIFFORD_GROUP) == 24
        from collections import Counter

        counts = Counter(idx for _, idx in CLIFFORD_GROUP)
        assert all(v == 4 for v in counts.values())

    def test_sample_covers_all_classes(self):
        rng = np.random.default_rng(4)
        seen = {sample_clifford(rng).name for _ in range(500)}
        assert seen == {c.name for c in CLIFFORD_CLASSES}

    def test_conjugation_consistency(self):
        # Applying the action twice for order-2 elements restores the frame.
        rng = np.random.default_rng(5)
        for cls in CLIFFORD_CLASSES:
            frame = PauliFrame(8, a=int(rng.integers(0, 256)), b=int(rng.integers(0, 256)))
            orig = (frame.a, frame.b)
            order = {"I": 1, "H": 2, "S": 2, "HSH": 2, "HS": 3, "SH": 3}[cls.name]
            for _ in range(order):
                cls.apply_frame(frame)
            assert (frame.a, frame.b) == orig


class TestPropagation:
    def test_radical_is_self_orthogonal_with_even_weights(self, propagator):
        for alpha in propagator.table.cleanable:
            cp = propagator.coset(alpha)
            for g in cp.radical:
                assert g.bit_count() % 2 == 0
                assert not (g & ~propagator.table.rep(alpha))
            for g in cp.radical:
                for h in cp.radical:
                    assert f2.dot(g, h) == 0

    @pytest.mark.parametrize("which", ["doubled_steane", "c_code"])
    def test_radical_is_radical_of_b_inside_e(self, which, t_code):
        # Oracle independent of Gamma: B_e from B's elements inside e, and
        # its radical as the elements of B_e orthogonal to all of B_e.
        code = t_code if which == "doubled_steane" else family15().c_stage.code
        propagator = TPropagator(code, build_cleanability_table(code))
        b_elements = code.b_space.element_array()
        for alpha in sorted(propagator.table.cleanable):
            e = propagator.table.rep(alpha)
            inside = b_elements[(b_elements & np.uint64(~e & ((1 << code.n) - 1))) == 0].tolist()
            b_e = Subspace(code.n, inside)
            radical = [g for g in inside if not any(f2.dot(g, h) for h in b_e.basis)]
            assert Subspace(code.n, propagator.coset(alpha).radical) == Subspace(code.n, radical)

    def test_distribution_normalized_nonnegative(self, propagator):
        for alpha in propagator.table.cleanable:
            dist = p_f_given_e(propagator, alpha)
            total = sum(dist.values())
            assert abs(total - 1.0) <= 1e-12
            assert all(v >= 0 for v in dist.values())

    def test_product_equals_character_sum(self, propagator):
        for alpha in propagator.table.cleanable:
            prod = p_f_given_e(propagator, alpha)
            char = p_f_given_e_charsum(propagator, alpha)
            keys = set(prod) | set(char)
            for k in keys:
                assert abs(prod.get(k, 0.0) - char.get(k, 0.0)) <= 1e-12

    def test_cosets_are_built_on_first_use(self, t_code):
        prop = TPropagator(t_code, build_cleanability_table(t_code))
        assert prop._cosets == {}
        first = prop.coset(0)
        assert list(prop._cosets) == [0]
        assert prop.coset(0) is first
        assert len(prop._cosets) == 1

    def test_zero_coset_is_deterministic(self, propagator):
        dist = p_f_given_e(propagator, 0)
        assert dist == {0: 1.0}
        rng = np.random.default_rng(6)
        frame = PauliFrame(15)
        propagate_through_t(frame, propagator, rng)
        assert (frame.a, frame.b) == (0, 0)

    def test_trivial_radical_gives_uniform(self, propagator):
        # A coset whose representative supports no Z stabilizer spreads
        # uniformly over all subsets.
        for alpha in propagator.table.cleanable:
            cp = propagator.coset(alpha)
            if cp.radical or not cp.positions:
                continue
            dist = p_f_given_e(propagator, alpha)
            k = len(cp.positions)
            assert len(dist) == 1 << k
            assert all(abs(v - 2.0**-k) <= 1e-12 for v in dist.values())
            break
        else:
            pytest.skip("no radical-free coset at this size")

    def test_stabilizer_coset_keeps_z_label(self, propagator, t_code):
        # X part equal to a stabilizer: the propagated Z error never moves
        # the Z coset label.
        rng = np.random.default_rng(7)
        for v in t_code.a_space.elements():
            frame = PauliFrame(15, a=v, b=0)
            propagate_through_t(frame, propagator, rng)
            assert t_code.coset_map.label_x(frame.a) == 0
            assert t_code.coset_map.label_z(frame.b) == 0

    def test_sampling_matches_distribution(self, propagator):
        # Pick a coset with a spread-out distribution and compare empirical
        # frequencies within 3 sigma multinomial bounds.
        rng = np.random.default_rng(8)
        alpha = next(
            a for a in sorted(propagator.table.cleanable)
            if propagator.table.rep(a).bit_count() == 3
        )
        dist = p_f_given_e(propagator, alpha)
        draws = 100_000
        counts: dict[int, int] = {}
        for _ in range(draws):
            fvec = propagator.sample_f(alpha, rng)
            counts[fvec] = counts.get(fvec, 0) + 1
        assert set(counts) <= set(dist)
        for fvec, p in dist.items():
            got = counts.get(fvec, 0)
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(got - draws * p) <= 3 * sigma + 1

    def test_propagation_adds_z_inside_support_only(self, propagator):
        rng = np.random.default_rng(9)
        for alpha in list(sorted(propagator.table.cleanable))[:50]:
            frame = PauliFrame(15, a=propagator.table.rep(alpha), b=0)
            label_before = propagator.code.coset_map.label_x(frame.a)
            propagate_through_t(frame, propagator, rng)
            assert propagator.code.coset_map.label_x(frame.a) == label_before
            assert not (frame.b & ~propagator.table.rep(alpha))

    def test_non_cleanable_raises(self, propagator, t_code):
        bad = next(a for a in range(1 << 11) if not propagator.table.is_cleanable(a))
        e = next(
            e for e in range(1 << 15) if t_code.coset_map.label_x(e) == bad
        )
        frame = PauliFrame(15, a=e, b=0)
        with pytest.raises(ValueError, match="cleanable"):
            propagate_through_t(frame, propagator, np.random.default_rng(10))


class TestTwirls:
    def test_gauge_elements_never_change_labels(self, t_code):
        rng = np.random.default_rng(11)
        cm = t_code.coset_map
        for _ in range(10_000):
            a = int(rng.integers(0, 1 << 15))
            b = int(rng.integers(0, 1 << 15))
            label = cm.label(a, b)
            ga = noise.random_element(t_code.dot_b, rng)
            gb = noise.random_element(t_code.dot_a, rng)
            assert cm.label(a ^ ga, b ^ gb) == label
