import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dccsim import f2
from dccsim.decoder import (
    DeformationMap,
    DegeneratePosteriorError,
    DenseLikelihood,
    LabelLayout,
    NumericError,
    SparseLikelihood,
    SyndromeMap,
    TGateUpdate,
    _mismatch_factors,
    _split_syndrome_tables,
    init_likelihood,
)
from dccsim.noise import CLIFFORD_CLASSES, PauliFrame
from dccsim.protocol import family15, run_trial
from dccsim.settings import ProtocolConfig


def direct_memory_convolution(rho: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Oracle: rho'(f) = sum_g dist(f + g) rho(g), O(4^c)."""
    c = len(rho)
    out = np.zeros(c)
    for fl in range(c):
        out[fl] = sum(dist[fl ^ g] * rho[g] for g in range(c))
    return out


def transformed(dist: np.ndarray) -> np.ndarray:
    out = dist.copy()
    f2.fwht(out)
    return out


@pytest.fixture(scope="module")
def fam():
    return family15()


class TestInit:
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_unit_mass_at_zero(self, engine):
        rho = init_likelihood(LabelLayout(1, 0), engine)
        assert rho.final_coset() == 0
        rho16 = init_likelihood(LabelLayout(8, 8), engine)
        assert rho16.final_coset() == 0
        assert rho16.entropy() == 0.0


class TestMemory:
    def test_delta_distribution_is_identity(self):
        rng = np.random.default_rng(0)
        layout = LabelLayout(3, 3)
        rho = DenseLikelihood(layout, rng.random(64) + 0.1)
        before = rho.normalized()
        delta = np.zeros(64)
        delta[0] = 1.0
        rho.apply_memory(transformed(delta))
        assert np.allclose(rho.normalized(), before, atol=1e-12)

    def test_uniform_distribution_flattens(self):
        layout = LabelLayout(2, 2)
        rho = DenseLikelihood(layout)
        rho.apply_memory(transformed(np.full(16, 1 / 16)))
        assert np.allclose(rho.normalized(), np.full(16, 1 / 16), atol=1e-12)

    @pytest.mark.parametrize("c", range(2, 11))
    def test_matches_direct_convolution(self, c):
        rng = np.random.default_rng(c)
        layout = LabelLayout(c, 0)
        start = rng.random(1 << c)
        dist = rng.random(1 << c)
        dist /= dist.sum()
        rho = DenseLikelihood(layout, start.copy())
        rho.apply_memory(transformed(dist))
        expect = direct_memory_convolution(start, dist)
        got = rho.normalized()
        assert np.max(np.abs(got - expect / expect.sum())) <= 1e-10

    def test_mass_conserved_by_convolution(self):
        rng = np.random.default_rng(99)
        start = rng.random(256)
        dist = rng.random(256)
        dist /= dist.sum()
        out = direct_memory_convolution(start, dist)
        assert abs(out.sum() - start.sum()) <= 1e-9

    def test_sparse_matches_dense(self, fam):
        rng = np.random.default_rng(1)
        shifts, weights = SparseLikelihood.memory_input(fam.t_stage.code.coset_map, 0.01)
        dense_input = np.zeros(fam.t_stage.layout.size)
        w = weights / weights.sum()
        for lab, wt in zip(shifts, w):
            dense_input[lab] += wt
        dense = DenseLikelihood(fam.t_stage.layout)
        sparse = SparseLikelihood(fam.t_stage.layout)
        dense.apply_memory(transformed(dense_input))
        sparse.apply_memory(shifts, weights)
        assert np.max(np.abs(dense.normalized() - _as_dense_normalized(sparse))) <= 1e-12


def _as_dense_normalized(sparse: SparseLikelihood) -> np.ndarray:
    arr = oracles.dense_weights(sparse)
    return arr / arr.sum()


class TestSyndrome:
    def _toy_map(self):
        layout = LabelLayout(2, 2)
        return SyndromeMap(rows=(0b0001, 0b0110), layout=layout), layout

    def test_flat_at_half(self):
        smap, layout = self._toy_map()
        rng = np.random.default_rng(2)
        start = rng.random(16)
        rho = DenseLikelihood(layout, start.copy())
        rho.apply_syndrome(smap, 0b11, 0.5)
        assert np.allclose(rho.normalized(), start / start.sum(), atol=1e-12)

    def test_exact_syndrome_restricts_support(self, fam):
        rho = DenseLikelihood(fam.t_stage.layout, np.ones(fam.t_stage.layout.size))
        rho.apply_syndrome(fam.m_t, 0, 0.0)
        table = fam.m_t.table
        assert rho.support_size() == int((table == 0).sum())

    def test_posterior_odds(self):
        # One syndrome bit at q = 0.01 gives 99:1 odds between the matching
        # and non-matching label on a two-label toy.
        layout = LabelLayout(1, 0)
        smap = SyndromeMap(rows=(0b1,), layout=layout)
        rho = DenseLikelihood(layout, np.array([1.0, 1.0]))
        rho.apply_syndrome(smap, 0b1, 0.01)
        post = rho.normalized()
        assert abs(post[1] / post[0] - 99.0) <= 1e-9

    @pytest.mark.parametrize("name", ["m_c", "m_t"])
    def test_read_bits_equal_full_table(self, fam, name):
        smap = getattr(fam, name)
        shape, syndromes = smap.read_table
        assert syndromes.size == 1 << {"m_c": 14, "m_t": 6}[name]
        assert np.array_equal(np.broadcast_to(syndromes, shape).reshape(-1), smap.table)
        rng = np.random.default_rng(44)
        for _ in range(5):
            observed, q = int(rng.integers(0, 1 << smap.width)), float(rng.uniform(0.001, 0.4))
            start = spread(rng, smap.layout.size)
            rho = DenseLikelihood(smap.layout, start.copy())
            rho.apply_syndrome(smap, observed, q)
            hit, miss = _mismatch_factors(smap.width, q)
            expect = start * (hit * miss)[np.bitwise_count(smap.table ^ np.uint32(observed))]
            assert np.array_equal(rho.weights, expect / expect.max())

    def test_read_bits_of_random_rows(self):
        layout = LabelLayout(3, 3)
        rng = np.random.default_rng(45)
        for _ in range(30):
            rows = tuple(int(r) for r in rng.integers(0, 1 << layout.c, int(rng.integers(0, 4))))
            smap = SyndromeMap(rows, layout)
            shape, syndromes = smap.read_table
            assert np.prod(shape) == layout.size
            assert np.array_equal(np.broadcast_to(syndromes, shape).reshape(-1), smap.table)

    def test_degenerate_posterior_raises(self):
        layout = LabelLayout(1, 0)
        smap = SyndromeMap(rows=(0b1,), layout=layout)
        rho = DenseLikelihood(layout, np.array([1.0, 0.0]))
        with pytest.raises(DegeneratePosteriorError):
            rho.apply_syndrome(smap, 0b1, 0.0)

    def test_sparse_matches_dense(self, fam):
        rng = np.random.default_rng(3)
        layout = fam.t_stage.layout
        labels = np.array(sorted(rng.choice(layout.size, 40, replace=False)), dtype=np.uint32)
        weights = rng.random(40)
        dense_arr = np.zeros(layout.size)
        dense_arr[labels] = weights
        dense = DenseLikelihood(layout, dense_arr)
        sparse = SparseLikelihood(layout, labels.copy(), weights.copy())
        observed = int(rng.integers(0, 1 << fam.m_t.width))
        dense.apply_syndrome(fam.m_t, observed, 0.02)
        sparse.apply_syndrome(fam.m_t, observed, 0.02)
        assert np.max(np.abs(dense.normalized() - _as_dense_normalized(sparse))) <= 1e-12


class TestDepolarizingTransform:
    def test_matches_full_error_enumeration(self):
        # Oracle: accumulate the coset distribution over all 4^7 Pauli
        # errors of the 7-qubit code with explicit per-qubit probabilities,
        # transform it, and compare with the analytic product form used by
        # the production engine.
        from dccsim.csscode import make_code
        from dccsim.decoder import transformed_depolarizing
        from dccsim.f2 import Subspace

        s = Subspace(7, [0b1010101, 0b1100110, 0b1111000])
        code = make_code(s, s)
        cm = code.coset_map
        p = 0.07
        dist = np.zeros(1 << (cm.alpha_bits + cm.beta_bits))
        for a in range(1 << 7):
            for b in range(1 << 7):
                prob = 1.0
                for j in range(7):
                    hit = ((a >> j) & 1) or ((b >> j) & 1)
                    prob *= p / 3.0 if hit else 1.0 - p
                dist[cm.label(a, b)] += prob
        assert abs(dist.sum() - 1.0) <= 1e-12
        f2.fwht(dist)
        analytic = transformed_depolarizing(cm, p)
        assert np.max(np.abs(dist - analytic)) <= 1e-12


class TestDecoderFramePropagationConsistency:
    def test_t_update_equals_propagation_distribution(self, fam):
        # The decoder's T-gate column update and the frame-side sampling
        # distribution describe the same physics: a delta at (alpha, beta0)
        # must spread over beta0 + (Z-label of f) with probabilities P(f|e).
        layout = fam.t_stage.layout
        cm = fam.t_stage.code.coset_map
        rng = np.random.default_rng(30)
        cleanables = sorted(fam.table.cleanable)
        for alpha in rng.choice(cleanables, 12, replace=False):
            alpha = int(alpha)
            beta0 = int(rng.integers(0, 32))
            arr = np.zeros(layout.size)
            arr[alpha | (beta0 << layout.alpha_bits)] = 1.0
            rho = DenseLikelihood(layout, arr)
            rho.apply_t_gate(fam.t_update)
            expect = np.zeros(layout.size)
            for fvec, pf in oracles.p_f_given_e(fam.prop, alpha).items():
                expect[alpha | ((beta0 ^ cm.label_z(fvec)) << layout.alpha_bits)] += pf
            assert np.max(np.abs(rho.normalized() - expect)) <= 1e-12


class TestCompleteSyndrome:
    def test_noiseless_complete_syndrome_leaves_four_cosets(self, fam):
        # A complete generating set (all X and Z stabilizers of the T-code)
        # measured exactly pins everything except the logical classes.
        code = fam.t_stage.code
        cm = code.coset_map
        rows = []
        for g in code.a_space.basis:
            combo = f2.express(cm.mat_a, g, 15)
            rows.append(combo << cm.alpha_bits)
        for g in code.b_space.basis:
            rows.append(f2.express(cm.mat_b, g, 15))
        smap = SyndromeMap(tuple(rows), fam.t_stage.layout)
        rho = DenseLikelihood(fam.t_stage.layout, np.ones(fam.t_stage.layout.size))
        rho.apply_syndrome(smap, 0, 0.0)
        assert rho.support_size() == 4
        stage = fam.t_stage
        survivors = set(np.flatnonzero(rho.weights).tolist())
        assert survivors == {0, stage.logical_x, stage.logical_z,
                             stage.logical_x ^ stage.logical_z}


def spread(rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive weights spread over about 10^+-20 in magnitude."""
    return rng.random(size) * 10.0 ** rng.integers(-20, 21, size=size)


class TestDeform:
    def test_identity_merge(self):
        layout = LabelLayout(2, 1)
        dmap = DeformationMap("merge", 0b111, layout, layout)
        rng = np.random.default_rng(4)
        start = rng.random(8)
        rho = DenseLikelihood(layout, start.copy())
        rho.deform(dmap)
        assert np.allclose(rho.normalized(), start / start.sum())

    @pytest.mark.parametrize("direction", ["merge", "split"])
    def test_identity_map_is_exact(self, direction):
        layout = LabelLayout(2, 1)
        dmap = DeformationMap(direction, 0b111, layout, layout)
        assert dmap.run_shape == (1, 1, 8)
        rng = np.random.default_rng(4)
        start = rng.random(8)
        rho = DenseLikelihood(layout, start.copy())
        rho.deform(dmap)
        assert np.array_equal(rho.weights, start / start.max())

    def test_dropped_bits_must_be_one_run(self):
        with pytest.raises(ValueError, match="one run"):
            DeformationMap("merge", 0b1010, LabelLayout(2, 2), LabelLayout(1, 1))
        with pytest.raises(ValueError, match="one run"):
            DeformationMap("split", 0b0110, LabelLayout(1, 1), LabelLayout(2, 2))

    @pytest.mark.parametrize("name", ["t_to_base", "c_to_base"])
    def test_dense_merge_equals_bincount(self, fam, name):
        # Bit for bit: the reshape sum adds each narrow label's entries in
        # the order the bincount over dense_index does.
        dmap = getattr(fam, name)
        rng = np.random.default_rng(40)
        for _ in range(10):
            start = spread(rng, dmap.wide.size)
            rho = DenseLikelihood(dmap.old_layout, start.copy())
            rho.deform(dmap)
            expect = np.bincount(dmap.dense_index, weights=start, minlength=dmap.narrow.size)
            assert np.array_equal(rho.weights, expect / expect.max())

    @pytest.mark.parametrize("name", ["base_to_t", "base_to_c"])
    def test_dense_split_equals_gather(self, fam, name):
        dmap = getattr(fam, name)
        rng = np.random.default_rng(41)
        for _ in range(10):
            start = spread(rng, dmap.narrow.size)
            rho = DenseLikelihood(dmap.old_layout, start.copy())
            rho.deform(dmap)
            expect = start[dmap.dense_index] * 2.0 ** (dmap.narrow.c - dmap.wide.c)
            assert np.array_equal(rho.weights, expect / expect.max())

    @pytest.mark.parametrize("name", ["base_to_t", "base_to_c"])
    def test_sparse_split_is_sorted_and_matches_dense(self, fam, name):
        dmap = getattr(fam, name)
        rng = np.random.default_rng(42)
        labels = np.sort(rng.choice(dmap.narrow.size, 300, replace=False)).astype(np.uint32)
        sparse = SparseLikelihood(dmap.old_layout, labels, spread(rng, len(labels)))
        dense = DenseLikelihood(dmap.old_layout, oracles.dense_weights(sparse))
        sparse.deform(dmap)
        dense.deform(dmap)
        assert np.all(np.diff(sparse.labels.astype(np.int64)) > 0)
        assert np.array_equal(oracles.dense_weights(sparse), dense.weights)

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_split_then_merge_roundtrip(self, fam, engine):
        rng = np.random.default_rng(5)
        rho = init_likelihood(fam.base_stage.layout, engine)
        start = rng.random(fam.base_stage.layout.size)
        if engine == "exact":
            rho.weights = start.copy()
        else:
            rho.labels = np.arange(fam.base_stage.layout.size, dtype=np.uint32)
            rho.weights = start.copy()
        rho.deform(fam.base_to_t)
        assert rho.layout == fam.t_stage.layout
        rho.deform(fam.t_to_base)
        got = rho.normalized() if engine == "exact" else _as_dense_normalized(rho)
        assert np.max(np.abs(got - start / start.sum())) <= 1e-12

    def test_c_widths_along_cycle(self, fam):
        assert fam.t_stage.layout.c == 16
        assert fam.base_stage.layout.c == 13
        assert fam.c_stage.layout.c == 16
        assert fam.base_to_t.new_layout.c - fam.base_to_t.old_layout.c == 3

    def test_merge_is_marginalization(self, fam):
        rng = np.random.default_rng(6)
        start = rng.random(fam.t_stage.layout.size)
        rho = DenseLikelihood(fam.t_stage.layout, start.copy())
        rho.deform(fam.t_to_base)
        # Oracle: accumulate by explicitly computed merged labels.
        expect = np.zeros(fam.base_stage.layout.size)
        for lab in range(fam.t_stage.layout.size):
            new = 0
            kept = [k for k in range(16) if (fam.t_to_base.kept >> k) & 1]
            for i, k in enumerate(kept):
                new |= ((lab >> k) & 1) << i
            expect[new] += start[lab]
        assert np.max(np.abs(rho.normalized() - expect / expect.sum())) <= 1e-12

    def test_masks_nest_the_label_bases(self, fam):
        # Each kept mask must pick out the base label from the T and C labels
        # of the same frame.
        rng = np.random.default_rng(24)
        base = fam.base_stage
        for _ in range(200):
            frame = PauliFrame(int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15)))
            base_label = base.frame_label(frame)
            assert fam.t_to_base.dense_index[fam.t_stage.frame_label(frame)] == base_label
            assert fam.c_to_base.dense_index[fam.c_stage.frame_label(frame)] == base_label

    def test_tables_pack_the_kept_bits(self):
        # Every mask whose dropped bits form one run, on 5-bit wide labels,
        # against explicit bit extraction and insertion.
        wide = LabelLayout(3, 2)
        for low in range(6):
            for k in range(6 - low):
                kept = 31 & ~(((1 << k) - 1) << low)
                positions = [j for j in range(5) if (kept >> j) & 1]
                narrow = LabelLayout(len(positions), 0)
                merge = DeformationMap("merge", kept, wide, narrow)
                assert merge.dense_index.tolist() == [f2.restrict(w, positions) for w in range(32)]
                base, patterns = DeformationMap("split", kept, narrow, wide).split_tables
                assert base.tolist() == [f2.embed(l, positions) for l in range(narrow.size)]
                assert sorted(patterns.tolist()) == [w for w in range(32) if not w & kept]

    def test_kept_mask_must_match_the_narrow_width(self, fam):
        with pytest.raises(ValueError, match="kept mask"):
            DeformationMap("merge", 0b111, LabelLayout(2, 2), LabelLayout(2, 0))
        with pytest.raises(ValueError, match="kept mask"):
            DeformationMap("split", (1 << 12) - 1, fam.base_stage.layout, fam.c_stage.layout)

    def test_sparse_split_uniform(self, fam):
        sparse = SparseLikelihood(fam.base_stage.layout)
        sparse.deform(fam.base_to_t)
        assert sparse.support_size() == 8
        assert np.allclose(sparse.weights, sparse.weights[0])


class TestClifford:
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_h_twice_is_identity(self, fam, engine):
        rng = np.random.default_rng(7)
        layout = fam.c_stage.layout
        start = rng.random(layout.size)
        rho = DenseLikelihood(layout, start.copy())
        h = CLIFFORD_CLASSES[1]
        rho.apply_clifford(h)
        rho.apply_clifford(h)
        assert np.allclose(rho.weights, start)

    def test_s_squared_is_identity_on_labels(self, fam):
        rng = np.random.default_rng(8)
        layout = fam.c_stage.layout
        start = rng.random(layout.size)
        rho = DenseLikelihood(layout, start.copy())
        s = CLIFFORD_CLASSES[2]
        rho.apply_clifford(s)
        rho.apply_clifford(s)
        assert np.allclose(rho.weights, start)

    def test_argmax_commutes(self, fam):
        rng = np.random.default_rng(9)
        layout = fam.c_stage.layout
        start = rng.random(layout.size)
        for action in CLIFFORD_CLASSES:
            rho = DenseLikelihood(layout, start.copy())
            before = rho.final_coset()
            rho.apply_clifford(action)
            alpha, beta = before & ((1 << layout.alpha_bits) - 1), before >> layout.alpha_bits
            expect = ((alpha * action.p) ^ (beta * action.r)) | (
                ((alpha * action.q) ^ (beta * action.s)) << layout.alpha_bits
            )
            assert rho.final_coset() == expect

    def test_sparse_matches_dense(self, fam):
        rng = np.random.default_rng(10)
        layout = fam.c_stage.layout
        labels = np.array(sorted(rng.choice(layout.size, 30, replace=False)), dtype=np.uint32)
        weights = rng.random(30)
        arr = np.zeros(layout.size)
        arr[labels] = weights
        for action in CLIFFORD_CLASSES:
            dense = DenseLikelihood(layout, arr.copy())
            sparse = SparseLikelihood(layout, labels.copy(), weights.copy())
            dense.apply_clifford(action)
            sparse.apply_clifford(action)
            assert np.max(np.abs(dense.normalized() - _as_dense_normalized(sparse))) <= 1e-12

    def test_gather_equals_scatter(self, fam):
        # Both engines move each weight to its image, bit for bit, as a
        # scatter through the image of every label does.
        rng = np.random.default_rng(11)
        layout = fam.c_stage.layout
        labels = np.arange(layout.size, dtype=np.uint32)
        alpha, beta = labels & np.uint32((1 << layout.alpha_bits) - 1), labels >> np.uint32(layout.alpha_bits)
        start = rng.random(layout.size)
        support = np.array(sorted(rng.choice(layout.size, 40, replace=False)), dtype=np.uint32)
        for action in CLIFFORD_CLASSES:
            image = ((alpha * action.p) ^ (beta * action.r)) | (
                ((alpha * action.q) ^ (beta * action.s)) << np.uint32(layout.alpha_bits)
            )
            scattered = np.empty_like(start)
            scattered[image] = start
            dense = DenseLikelihood(layout, start.copy())
            dense.apply_clifford(action)
            assert np.array_equal(dense.weights, scattered)
            sparse = SparseLikelihood(layout, support.copy(), start[support])
            sparse.apply_clifford(action)
            order = np.argsort(image[support])
            assert np.array_equal(sparse.labels, image[support][order])
            assert np.array_equal(sparse.weights, start[support][order])


class TestRecovery:
    def test_delta_shifts_to_zero(self, fam):
        layout = fam.t_stage.layout
        alpha0, beta0 = 0b101, 0b11
        arr = np.zeros(layout.size)
        arr[alpha0 | (beta0 << layout.alpha_bits)] = 1.0
        rho = DenseLikelihood(layout, arr)
        assert rho.choose_recovery() == alpha0
        assert rho.final_coset() == beta0 << layout.alpha_bits

    def test_uniform_returns_zero(self, fam):
        layout = fam.t_stage.layout
        rho = DenseLikelihood(layout, np.ones(layout.size))
        assert rho.choose_recovery() == 0

    def test_heavier_coset_wins(self, fam):
        layout = fam.t_stage.layout
        arr = np.zeros(layout.size)
        arr[3] = 0.7
        arr[5 | (1 << layout.alpha_bits)] = 0.3
        rho = DenseLikelihood(layout, arr)
        assert rho.choose_recovery() == 3


class TestFinalCoset:
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_tie_break_smallest(self, engine):
        layout = LabelLayout(2, 1)
        if engine == "exact":
            arr = np.zeros(8)
            arr[3] = arr[7] = 0.5
            rho = DenseLikelihood(layout, arr)
        else:
            rho = SparseLikelihood(
                layout, np.array([7, 3], dtype=np.uint32), np.array([0.5, 0.5])
            )
        assert rho.final_coset() == 3


def truncated_by_rule(rho: SparseLikelihood, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference truncation of an engine state (labels sorted and unique,
    weights positive with maximum 1): keep w / T >= eps with T summed in label
    order, and the first maximum."""
    labels, weights = rho.labels, rho.weights
    assert np.all(labels[1:] > labels[:-1]) and weights.min() > 0.0 and weights.max() == 1.0
    keep = weights / weights.sum() >= eps
    keep[np.argmax(weights)] = True
    return labels[keep], weights[keep]


class TestTruncate:
    def test_keeps_entries_above_cutoff(self):
        layout = LabelLayout(3, 0)
        rho = SparseLikelihood(
            layout, np.arange(4, dtype=np.uint32), np.array([1.0, 0.75, 0.5, 0.25])
        )
        rho.truncate(1e-6)
        assert rho.support_size() == 4

    def test_drops_tiny_entries_never_max(self):
        layout = LabelLayout(3, 0)
        rho = SparseLikelihood(
            layout, np.arange(3, dtype=np.uint32), np.array([1.0, 1e-9, 5e-10])
        )
        rho.truncate(1e-6)
        assert rho.support_size() == 1
        assert rho.final_coset() == 0

    def test_mass_loss_bound(self):
        rng = np.random.default_rng(11)
        layout = LabelLayout(8, 0)
        weights = rng.random(200)
        weights /= weights.max()
        rho = SparseLikelihood(layout, np.arange(200, dtype=np.uint32), weights.copy())
        eps = 1e-3
        total = weights.sum()
        rho.truncate(eps)
        kept = weights[weights / total >= eps].sum()
        assert total - kept <= eps * total * 200

    @pytest.mark.parametrize("labels, weights, eps, kept", [
        pytest.param([2, 6], [1.0, 1.0], 0.5, [2, 6], id="tie-at-the-cut"),
        pytest.param([2, 4, 6], [1.0, 1.0, 0.5], 0.9, [2], id="eps-above-every-probability"),
        pytest.param([2, 4, 6], [1.0, 0.25, 0.5], 5e-324, [2, 4, 6], id="subnormal-eps"),
        pytest.param([2, 4, 6], [1.0, 0.25, 0.5], 0.0, [2, 4, 6], id="eps-zero"),
    ])
    def test_unsorted_entries_follow_the_rule(self, labels, weights, eps, kept):
        """truncate on engine states: labels sorted and unique, weights
        positive with maximum 1."""
        rho = SparseLikelihood(LabelLayout(3, 0), np.array(labels, dtype=np.uint32),
                               np.array(weights))
        expected_labels, expected_weights = truncated_by_rule(rho, eps)
        rho.truncate(eps)
        assert rho.labels.tolist() == kept
        assert np.array_equal(rho.labels, expected_labels)
        assert np.array_equal(rho.weights, expected_weights)


def full_block_t_update(weights: np.ndarray, update) -> np.ndarray:
    """Reference T update: project and transform the whole block, then
    renormalize to max 1."""
    lay = update.layout
    block = weights.copy().reshape(1 << lay.beta_bits, 1 << lay.alpha_bits)
    block *= update.cleanable_mask[np.newaxis, :]
    f2.fwht(block)
    block *= update.gamma_hat
    f2.fwht(block)
    block /= 1 << lay.beta_bits
    np.maximum(block, 0.0, out=block)
    return block.reshape(-1) / block.max()


class TestTGate:
    def test_cleanable_columns_equal_full_block(self, fam):
        rng = np.random.default_rng(43)
        for _ in range(5):
            start = spread(rng, fam.t_stage.layout.size)
            rho = DenseLikelihood(fam.t_stage.layout, start.copy())
            rho.apply_t_gate(fam.t_update)
            assert np.array_equal(rho.weights, full_block_t_update(start, fam.t_update))

    def test_gamma_hat_matches_direct_sum(self, fam):
        # Transformed-basis diagonal against the explicit sum over subsets,
        # for every cleanable coset and every Z-label block entry.
        code = fam.t_stage.code
        gh = fam.t_update.gamma_hat
        for alpha in sorted(fam.table.cleanable):
            for beta in range(32):
                direct = oracles.gamma_hat_direct(code, fam.prop, alpha, beta)
                assert abs(gh[beta, alpha] - direct) <= 1e-10

    def test_radical_membership_is_membership_in_b(self, fam):
        # g = A^T beta & e(alpha) is in the radical of the B vectors inside
        # e(alpha) exactly when it is in B, the rule build_t_gate_update uses.
        code = fam.t_stage.code
        at_beta = f2.enumerate_span(code.coset_map.mat_a, code.n).tolist()
        for alpha in sorted(fam.table.cleanable):
            e = fam.table.rep(alpha)
            radical = f2.Subspace(code.n, fam.prop.coset(alpha).radical)
            for v in at_beta:
                g = v & e
                assert code.b_space.contains(g) == radical.contains(g)

    def test_zero_coset_block_is_identity(self, fam):
        rng = np.random.default_rng(12)
        layout = fam.t_stage.layout
        arr = np.zeros(layout.size)
        betas = rng.random(32)
        for beta in range(32):
            arr[beta << layout.alpha_bits] = betas[beta]
        rho = DenseLikelihood(layout, arr.copy())
        rho.apply_t_gate(fam.t_update)
        got = rho.normalized()
        expect = arr / arr.sum()
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_columns_are_stochastic(self, fam):
        rng = np.random.default_rng(13)
        layout = fam.t_stage.layout
        for alpha in list(sorted(fam.table.cleanable))[::97]:
            vec = rng.random(32)
            arr = np.zeros(layout.size)
            for beta in range(32):
                arr[alpha | (beta << layout.alpha_bits)] = vec[beta]
            rho = DenseLikelihood(layout, arr.copy())
            rho.apply_t_gate(fam.t_update)
            out = rho.weights * (vec.sum() / rho.weights.sum())
            assert abs(out.sum() - vec.sum()) <= 1e-10 * vec.sum()

    def test_projection_drops_noncleanable(self, fam):
        layout = fam.t_stage.layout
        bad = next(a for a in range(1 << 11) if not fam.table.is_cleanable(a))
        arr = np.zeros(layout.size)
        arr[bad | (1 << layout.alpha_bits)] = 0.3
        arr[0] = 0.7
        rho = DenseLikelihood(layout, arr)
        rho.apply_t_gate(fam.t_update)
        assert rho.final_coset() == 0
        back = rho.normalized().reshape(32, 2048)
        assert back[:, bad].sum() == 0.0

    def test_all_mass_noncleanable_raises(self, fam):
        layout = fam.t_stage.layout
        bad = next(a for a in range(1 << 11) if not fam.table.is_cleanable(a))
        arr = np.zeros(layout.size)
        arr[bad] = 1.0
        rho = DenseLikelihood(layout, arr)
        with pytest.raises(DegeneratePosteriorError):
            rho.apply_t_gate(fam.t_update)

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_negative_weight_raises(self, engine):
        # Gamma column [1, 1, 1, -1] maps the unit vector to
        # [0.5, 0.5, 0.5, -0.5]: no stochastic update gives that, so both
        # engines reject it rather than clamp the -0.5 away.
        layout = LabelLayout(1, 2)
        gamma_hat = np.zeros((4, 2))
        gamma_hat[:, 0] = [1.0, 1.0, 1.0, -1.0]
        update = TGateUpdate(layout, np.array([True, False]), gamma_hat)
        rho = init_likelihood(layout, engine)
        with pytest.raises(NumericError, match="negative weight -0.5 after T update"):
            rho.apply_t_gate(update)

    def test_sparse_matches_dense(self, fam):
        rng = np.random.default_rng(14)
        layout = fam.t_stage.layout
        cleanables = sorted(fam.table.cleanable)
        labels = []
        for a in rng.choice(cleanables, 5, replace=False):
            for beta in rng.choice(32, 3, replace=False):
                labels.append(int(a) | (int(beta) << layout.alpha_bits))
        labels = np.array(sorted(set(labels)), dtype=np.uint32)
        weights = rng.random(len(labels))
        arr = np.zeros(layout.size)
        arr[labels] = weights
        dense = DenseLikelihood(layout, arr.copy())
        sparse = SparseLikelihood(layout, labels.copy(), weights.copy())
        dense.apply_t_gate(fam.t_update)
        sparse.apply_t_gate(fam.t_update)
        assert np.max(np.abs(dense.normalized() - _as_dense_normalized(sparse))) <= 1e-12


class TestMassConservation:
    def test_deform_merge_preserves_total(self, fam):
        rng = np.random.default_rng(20)
        start = rng.random(fam.t_stage.layout.size)
        rho = DenseLikelihood(fam.t_stage.layout, start.copy())
        before = start.sum()
        # Inspect pre-normalization mass via the reshape sum the merge uses.
        merged = start.reshape(fam.t_to_base.run_shape).sum(axis=1)
        assert abs(merged.sum() - before) <= 1e-10 * before
        rho.deform(fam.t_to_base)

    def test_deform_split_preserves_total(self, fam):
        rng = np.random.default_rng(21)
        start = rng.random(fam.base_stage.layout.size)
        scale = 2.0 ** (fam.base_stage.layout.c - fam.t_stage.layout.c)
        high, expansion, low = fam.base_to_t.run_shape
        expanded = np.broadcast_to((start * scale).reshape(high, 1, low), (high, expansion, low))
        assert abs(expanded.sum() - start.sum()) <= 1e-10 * start.sum()

    def test_clifford_preserves_total(self, fam):
        rng = np.random.default_rng(22)
        start = rng.random(fam.c_stage.layout.size)
        rho = DenseLikelihood(fam.c_stage.layout, start.copy())
        for action in CLIFFORD_CLASSES:
            rho.apply_clifford(action)
        assert abs(rho.weights.sum() - start.sum()) <= 1e-10 * start.sum()

    def test_syndrome_only_downweights(self, fam):
        rng = np.random.default_rng(23)
        layout = fam.t_stage.layout
        start = rng.random(layout.size)
        mismatch = np.bitwise_count(fam.m_t.table ^ np.uint32(5))
        q = 0.03
        factors = np.power(q, mismatch) * np.power(1.0 - q, fam.m_t.width - mismatch)
        assert factors.max() <= 1.0
        after = start * factors
        assert after.sum() <= start.sum()


class TestBayesOracle:
    def test_dense_posterior_equals_history_enumeration(self, fam):
        # Memory-only chain on the T-code: two rounds of weight <= 1 errors
        # and one noisy syndrome per round, versus explicit enumeration over
        # all error histories.
        rng = np.random.default_rng(15)
        layout = fam.t_stage.layout
        shifts, raw_w = SparseLikelihood.memory_input(fam.t_stage.code.coset_map, 0.01)
        probs = raw_w / raw_w.sum()
        q = 0.02
        smap = fam.m_t

        for trial in range(3):
            s1 = int(rng.integers(0, 1 << smap.width))
            s2 = int(rng.integers(0, 1 << smap.width))
            posterior = np.zeros(layout.size)
            for e1, w1 in zip(shifts, probs):
                syn1 = smap.table[e1]
                m1 = int(syn1 ^ s1).bit_count()
                like1 = q**m1 * (1 - q) ** (smap.width - m1)
                for e2, w2 in zip(shifts, probs):
                    f_final = int(e1 ^ e2)
                    syn2 = smap.table[f_final]
                    m2 = int(syn2 ^ s2).bit_count()
                    like2 = q**m2 * (1 - q) ** (smap.width - m2)
                    posterior[f_final] += w1 * like1 * w2 * like2
            posterior /= posterior.sum()

            dense_input = np.zeros(layout.size)
            for lab, w in zip(shifts, probs):
                dense_input[lab] += w
            p_hat = dense_input.copy()
            f2.fwht(p_hat)
            rho = DenseLikelihood(layout)
            rho.apply_memory(p_hat)
            rho.apply_syndrome(smap, s1, q)
            rho.apply_memory(p_hat)
            rho.apply_syndrome(smap, s2, q)
            assert np.max(np.abs(rho.normalized() - posterior)) <= 1e-9


class TestEnginesAgree:
    def test_hundred_step_scripted_run(self, fam):
        # Same weight <= 1 memory model in both engines, no truncation:
        # normalized weights must agree at every step.
        rng = np.random.default_rng(16)
        dense = DenseLikelihood(fam.t_stage.layout)
        sparse = SparseLikelihood(fam.t_stage.layout)
        stage = "t"
        for step in range(100):
            choice = rng.integers(0, 4)
            if choice == 0:
                ctx = fam.t_stage if stage == "t" else fam.c_stage
                shifts, w = SparseLikelihood.memory_input(ctx.code.coset_map, 0.01)
                dense_input = np.zeros(dense.layout.size)
                np.add.at(dense_input, shifts, w / w.sum())
                p_hat = dense_input
                f2.fwht(p_hat)
                dense.apply_memory(p_hat)
                sparse.apply_memory(shifts, w)
            elif choice == 1:
                smap = fam.m_t if stage == "t" else fam.m_c
                observed = int(rng.integers(0, 1 << smap.width))
                dense.apply_syndrome(smap, observed, 0.05)
                sparse.apply_syndrome(smap, observed, 0.05)
            elif choice == 2:  # the round into the other measured stage
                rnd = next(r for r in fam.rounds if r.stage.name != stage)
                maps, stage = (rnd.merge, rnd.split), rnd.stage.name
                for m in maps:
                    dense.deform(m)
                    sparse.deform(m)
            else:
                if stage == "c":
                    action = CLIFFORD_CLASSES[int(rng.integers(0, 6))]
                    dense.apply_clifford(action)
                    sparse.apply_clifford(action)
                else:
                    alpha_d = dense.choose_recovery()
                    alpha_s = sparse.choose_recovery()
                    assert alpha_d == alpha_s
                    dense.apply_t_gate(fam.t_update)
                    sparse.apply_t_gate(fam.t_update)
            diff = np.max(np.abs(dense.normalized() - _as_dense_normalized(sparse)))
            assert diff <= 1e-9, f"step {step} ({choice}): {diff}"
            assert dense.final_coset() == sparse.final_coset()


class TestSparseAgainstDenseStreams:
    """Random update streams through both engines. Memory is left out: its
    kernels differ between the engines (weight <= 1 shifts against the full
    depolarizing transform), so every other update must agree closely."""

    CYCLE = ("t", "base", "c", "base")

    @settings(max_examples=40)
    @given(data=st.data())
    def test_random_streams(self, fam, data):
        maps = tuple(m for rnd in fam.rounds for m in (rnd.merge, rnd.split))
        layout = fam.t_stage.layout
        support = data.draw(
            st.lists(st.integers(0, layout.size - 1), min_size=1, max_size=40, unique=True),
            label="support",
        )
        labels = np.array(sorted(support), dtype=np.uint32)
        weights = np.array(
            data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(labels), max_size=len(labels)),
                      label="weights")
        )
        weights /= weights.max()
        arr = np.zeros(layout.size)
        arr[labels] = weights
        dense = DenseLikelihood(layout, arr)
        sparse = SparseLikelihood(layout, labels, weights.copy())
        pos = 0
        for _ in range(data.draw(st.integers(1, 24), label="steps")):
            stage = self.CYCLE[pos]
            kinds = ["deform", "truncate"]
            kinds += {"t": ["syndrome", "recovery", "T"], "c": ["syndrome", "clifford"]}.get(stage, [])
            kind = data.draw(st.sampled_from(kinds), label="kind")
            if kind == "deform":
                dense.deform(maps[pos])
                sparse.deform(maps[pos])
                pos = (pos + 1) % len(self.CYCLE)
            elif kind == "syndrome":
                smap = fam.m_t if stage == "t" else fam.m_c
                bits = data.draw(st.integers(0, (1 << smap.width) - 1), label="bits")
                q = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)), label="q")
                try:
                    dense.apply_syndrome(smap, bits, q)
                except DegeneratePosteriorError:
                    with pytest.raises(DegeneratePosteriorError):
                        sparse.apply_syndrome(smap, bits, q)
                    return
                sparse.apply_syndrome(smap, bits, q)
            elif kind == "clifford":
                action = CLIFFORD_CLASSES[data.draw(st.integers(0, 5), label="action")]
                dense.apply_clifford(action)
                sparse.apply_clifford(action)
            elif kind == "recovery":
                assert dense.choose_recovery() == sparse.choose_recovery()
            elif kind == "T":
                try:
                    dense.apply_t_gate(fam.t_update)
                except DegeneratePosteriorError:
                    with pytest.raises(DegeneratePosteriorError):
                        sparse.apply_t_gate(fam.t_update)
                    return
                sparse.apply_t_gate(fam.t_update)
            else:
                sparse.truncate(0.0)
            # Every sparse update leaves its labels sorted and unique.
            assert np.all(sparse.labels[1:] > sparse.labels[:-1]), kind
            assert sparse.layout == dense.layout
            np.testing.assert_allclose(oracles.dense_weights(sparse), dense.weights, rtol=1e-12, atol=0)


class TestMemoryCommutesWithSplit:
    """Memory at the base code then a split equals the split then memory at
    the wide code: the protocol applies memory between merge and split."""

    @settings(max_examples=30)
    @given(data=st.data())
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    @pytest.mark.parametrize("direction", ["t-base-c", "c-base-t"])
    def test_random_supports(self, fam, engine, direction, data):
        if direction == "t-base-c":
            src, merge, split, dst = fam.t_stage, fam.t_to_base, fam.base_to_c, fam.c_stage
        else:
            src, merge, split, dst = fam.c_stage, fam.c_to_base, fam.base_to_t, fam.t_stage
        support = data.draw(
            st.lists(st.integers(0, src.layout.size - 1), min_size=1, max_size=40, unique=True),
            label="support",
        )
        labels = np.array(sorted(support), dtype=np.uint32)
        weights = np.array(
            data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(labels), max_size=len(labels)),
                      label="weights")
        )
        weights /= weights.max()
        p = data.draw(st.sampled_from([0.005, 0.02, 0.1]), label="p")
        states = []
        for memory_first in (True, False):
            if engine == "exact":
                arr = np.zeros(src.layout.size)
                arr[labels] = weights
                rho = DenseLikelihood(src.layout, arr)
            else:
                rho = SparseLikelihood(src.layout, labels.copy(), weights.copy())
            rho.deform(merge)
            if memory_first:
                rho.apply_memory(*rho.memory_input(fam.base_stage.code.coset_map, p))
            rho.deform(split)
            if not memory_first:
                rho.apply_memory(*rho.memory_input(dst.code.coset_map, p))
            assert rho.layout == dst.layout
            states.append(rho.weights if engine == "exact" else oracles.dense_weights(rho))
        np.testing.assert_allclose(states[0], states[1], rtol=1e-12, atol=0)


class TestSplitSyndromeTables:
    @pytest.mark.parametrize("q", [0.0, 1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_tables_equal_a_loop_over_patterns(self, fam, split, q):
        """The mismatch counts, the sum and the maximum of hit * miss over
        the patterns, per syndrome. The sum may add in another order: it
        lies within 2^k units of 2^-53 of the loop's."""
        dmap = getattr(fam, split)
        smap = fam.m_c if split == "base_to_c" else fam.m_t
        tables = _split_syndrome_tables(dmap, smap, q)
        base, patterns = dmap.split_tables
        hit, miss = _mismatch_factors(smap.width, q)
        s_patterns = [int(smap.table[p]) for p in patterns]
        assert np.array_equal(tables.s_base, smap.table[base])
        for y in range(1 << smap.width):
            counts = [(y ^ s).bit_count() for s in s_patterns]
            factors = [hit[m] * miss[m] for m in counts]
            total = 0.0
            for f in factors:
                total += f
            assert tables.mismatch[:, y].tolist() == counts
            assert tables.tops[y] == max(factors)
            assert abs(tables.totals[y] - total) <= len(patterns) * 2.0 ** -53 * total


class TestMeasureEqualsThreeSteps:
    """measure(split, smap, observed, q, eps) against deform(split),
    apply_syndrome(smap, observed, q) and truncate(eps), bit for bit."""

    WEIGHTS = st.one_of(
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1e-300),                      # subnormal or zero
        st.sampled_from([0.0, 5e-324, 1e-322]),      # w / 2^k underflows
    )

    @staticmethod
    def state(engine, layout, labels, weights):
        if engine == "exact":
            arr = np.zeros(layout.size)
            arr[labels] = weights
            return DenseLikelihood(layout, arr)
        return SparseLikelihood(layout, labels.copy(), weights.copy())

    @settings(max_examples=60)
    @given(data=st.data())
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_random_supports(self, fam, engine, split, data):
        dmap = getattr(fam, split)
        smap = fam.m_c if split == "base_to_c" else fam.m_t
        layout = dmap.old_layout
        support = data.draw(
            st.lists(st.integers(0, layout.size - 1), min_size=1, max_size=300, unique=True),
            label="support",
        )
        labels = np.array(sorted(support), dtype=np.uint32)
        weights = np.array(
            data.draw(st.lists(self.WEIGHTS, min_size=len(labels), max_size=len(labels)),
                      label="weights")
        )
        observed = data.draw(st.integers(0, (1 << smap.width) - 1), label="observed")
        q = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-4, 0.5)), label="q")

        steps = self.state(engine, layout, labels, weights)
        try:
            steps.deform(dmap)
            steps.apply_syndrome(smap, observed, q)
        except DegeneratePosteriorError:
            steps = None
        eps = st.sampled_from([0.0, 1e-6, 1.0])
        if steps is not None and engine == "sparse":
            # The probability of one entry, or the next float either side: an
            # entry right at the cut.
            probs = steps.weights / steps.weights.sum()
            eps = st.one_of(eps, st.sampled_from(probs.tolist()).flatmap(
                lambda x: st.sampled_from([x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)])))
        eps = data.draw(eps, label="eps")
        if steps is not None:
            expected = truncated_by_rule(steps, eps) if engine == "sparse" else None
            steps.truncate(eps)
            if expected is not None:
                assert np.array_equal(steps.labels, expected[0])
                assert np.array_equal(steps.weights, expected[1])
        fused = self.state(engine, layout, labels, weights)
        try:
            fused.measure(dmap, smap, observed, q, eps)
        except DegeneratePosteriorError:
            fused = None
        assert (steps is None) == (fused is None)
        if steps is None:
            return
        assert fused.layout == steps.layout
        if engine == "sparse":
            assert fused.labels.tobytes() == steps.labels.tobytes()
        assert fused.weights.tobytes() == steps.weights.tobytes()

    @pytest.mark.parametrize("eps, falls_back", [
        pytest.param(0.125, True, id="at-the-cut"),
        pytest.param(np.nextafter(0.125, 1.0), True, id="one-step-above"),
        pytest.param(0.5, False, id="above-every-probability"),
    ])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_equal_entries(self, fam, truncation_fallbacks, split, eps, falls_back):
        """At q = 1/2 every syndrome is equally likely, so one label splits
        into 8 entries of probability exactly 1/8."""
        dmap = getattr(fam, split)
        smap = fam.m_c if split == "base_to_c" else fam.m_t
        steps, fused = (SparseLikelihood(dmap.old_layout, np.array([5], dtype=np.uint32), np.ones(1))
                        for _ in range(2))
        steps.deform(dmap)
        wide = steps.labels.copy()
        steps.apply_syndrome(smap, 0, 0.5)
        steps.truncate(eps)
        fused.measure(dmap, smap, 0, 0.5, eps)
        assert truncation_fallbacks == [falls_back]
        assert np.array_equal(fused.labels, steps.labels)
        assert fused.weights.tobytes() == steps.weights.tobytes()
        assert len(wide) == 8
        if eps > 0.125:
            assert fused.labels.tolist() == [wide.min()]
        else:
            assert np.array_equal(fused.labels, wide)

    @staticmethod
    def three_steps_and_measure(dmap, smap, labels, weights, observed, q, eps):
        """The sparse three-step route and measure from one narrow state."""
        steps, fused = (SparseLikelihood(dmap.old_layout, np.array(labels, dtype=np.uint32),
                                         np.array(weights, dtype=np.float64))
                        for _ in range(2))
        steps.deform(dmap)
        steps.apply_syndrome(smap, observed, q)
        steps.truncate(eps)
        fused.measure(dmap, smap, observed, q, eps)
        return steps, fused

    @pytest.mark.parametrize("weights, q, eps, falls_back", [
        # Two labels split into 16 entries of probability exactly 1/16.
        pytest.param([1.0, 1.0, 0.0], 0.5, 1 / 16, True, id="tie-at-the-cut"),
        pytest.param([0.5, 1.0, 0.25], 0.01, 1e-310, True, id="subnormal-cut"),
        pytest.param([0.5, 1.0, 0.25], 0.01, 5e-324, True, id="subnormal-eps"),
        pytest.param([0.5, 0.0, 0.25], 0.0, 0.0, True, id="eps-zero-drops-zeros"),
        # The split's renormalization drops the negative weight first.
        pytest.param([1.0, -0.5, 0.5], 0.01, 0.01, False, id="negative-weight"),
    ])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_measure_falls_back_to_the_rule(self, fam, truncation_fallbacks, split, weights, q,
                                            eps, falls_back):
        dmap = getattr(fam, split)
        smap = fam.m_c if split == "base_to_c" else fam.m_t
        # The syndrome of narrow label 6's first wide label: at q = 0 that
        # entry keeps its weight and most others vanish.
        observed = int(smap.table[dmap.split_tables[0][6]])
        steps, fused = self.three_steps_and_measure(dmap, smap, [6, 2, 4], weights, observed, q,
                                                    eps)
        assert truncation_fallbacks == [falls_back]
        assert fused.layout == steps.layout
        assert fused.labels.tobytes() == steps.labels.tobytes()
        assert fused.weights.tobytes() == steps.weights.tobytes()

    @pytest.mark.parametrize("at", ["cut", "band"])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_candidate_bound_at_the_cut(self, fam, split, at):
        """eps chosen so that one narrow label's bound w[l] * tops[y_l]
        equals the cut eps * S, or the band's lower edge, bit for bit; the
        three-step route's bytes come out either way."""
        dmap = getattr(fam, split)
        smap = fam.m_c if split == "base_to_c" else fam.m_t
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(40):
            labels = np.sort(rng.choice(dmap.old_layout.size, size=20, replace=False))
            weights = rng.random(20)
            observed, q = int(rng.integers(1 << smap.width)), 0.05
            rho = SparseLikelihood(dmap.old_layout, labels.astype(np.uint32), weights.copy())
            tables = _split_syndrome_tables(dmap, smap, q)
            rho._split_weights(dmap)
            y = tables.s_base.take(rho.labels) ^ np.uint32(observed)
            total = (rho.weights * tables.totals.take(y)).sum()
            band = (2 * len(tables.patterns) * len(rho.weights) + 14) * 2.0 ** -53
            bound = rho.weights[0] * tables.tops[y[0]]
            scale = 1.0 if at == "cut" else 1.0 - band
            eps = bound / total / scale
            for _ in range(64):
                edge = eps * total * scale
                if edge == bound:
                    break
                eps = np.nextafter(eps, 1.0 if edge < bound else 0.0)
            else:
                continue
            hits += 1
            steps, fused = self.three_steps_and_measure(dmap, smap, labels, weights, observed,
                                                        q, eps)
            assert fused.labels.tobytes() == steps.labels.tobytes()
            assert fused.weights.tobytes() == steps.weights.tobytes()
        assert hits >= 10

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_underflow_vanishes_in_both(self, fam, engine):
        layout = fam.base_stage.layout
        labels = np.array([3, 700], dtype=np.uint32)
        weights = np.array([5e-324, 5e-324])
        for split, smap in ((fam.base_to_c, fam.m_c), (fam.base_to_t, fam.m_t)):
            with pytest.raises(DegeneratePosteriorError):
                self.state(engine, layout, labels, weights).deform(split)
            with pytest.raises(DegeneratePosteriorError):
                self.state(engine, layout, labels, weights).measure(split, smap, 0, 0.01, 1e-6)

    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_rejects_a_merge(self, fam, engine):
        rho = init_likelihood(fam.c_stage.layout, engine)
        with pytest.raises(ValueError, match="split"):
            rho.measure(fam.c_to_base, fam.m_c, 0, 0.01, 1e-6)


class TestCollisionRule:
    """Memory and merge map labels onto one another. Their weights must sum,
    bit for bit, as np.add.at sums the expanded entries (in input order),
    divided by the maximum sum."""

    WEIGHT = st.floats(2.0 ** -40, 1.0)

    @staticmethod
    def added(size, labels, weights):
        out = np.zeros(size)
        np.add.at(out, labels, weights)
        return out / out.max()

    @staticmethod
    def draw_state(data, layout, patterns=None):
        """A sorted, unique support; with `patterns`, a pool of labels each
        XORed with some of them, so that a merge collides."""
        pool = data.draw(st.lists(st.integers(0, layout.size - 1), min_size=1, max_size=40),
                         label="pool")
        labels = np.array(pool, dtype=np.uint32)
        if patterns is not None:
            chosen = data.draw(st.lists(st.sampled_from(list(patterns)), min_size=1, max_size=8),
                               label="patterns")
            labels = (labels[:, None] ^ np.array(chosen, dtype=np.uint32)).reshape(-1)
        labels = np.unique(labels)
        weights = np.array(data.draw(st.lists(TestCollisionRule.WEIGHT, min_size=len(labels),
                                              max_size=len(labels)), label="weights"))
        return SparseLikelihood(layout, labels, weights / weights.max())

    def check_memory(self, rho, shifts, shift_weights):
        expanded = (rho.labels[:, None] ^ shifts).reshape(-1)
        expanded_weights = (rho.weights[:, None] * shift_weights).reshape(-1)
        rho.apply_memory(shifts, shift_weights)
        assert np.array_equal(oracles.dense_weights(rho),
                              self.added(rho.layout.size, expanded, expanded_weights))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_memory_on_small_layouts(self, data):
        c = data.draw(st.integers(1, 8), label="c")
        layout = LabelLayout(c - c // 2, c // 2)
        rho = self.draw_state(data, layout)
        shifts = np.array(data.draw(st.lists(st.integers(0, layout.size - 1), min_size=1,
                                             max_size=12), label="shifts"), dtype=np.uint32)
        shift_weights = np.array(data.draw(st.lists(self.WEIGHT, min_size=len(shifts),
                                                    max_size=len(shifts)), label="shift weights"))
        self.check_memory(rho, shifts, shift_weights)

    @settings(max_examples=30)
    @given(data=st.data())
    @pytest.mark.parametrize("p", [0.005, 0.3])
    def test_memory_at_base(self, fam, p, data):
        layout = fam.base_stage.layout
        shifts, shift_weights = SparseLikelihood.memory_input(fam.base_stage.code.coset_map, p)
        # Labels a few shifts apart collide under the 46 shifts.
        rho = self.draw_state(data, layout, patterns=shifts)
        self.check_memory(rho, shifts, shift_weights)

    @settings(max_examples=30)
    @given(data=st.data())
    @pytest.mark.parametrize("merge", ["t_to_base", "c_to_base"])
    def test_merge(self, fam, merge, data):
        dmap = getattr(fam, merge)
        rho = self.draw_state(data, dmap.old_layout, patterns=dmap.split_tables[1])
        expected = self.added(dmap.new_layout.size, dmap.dense_index[rho.labels], rho.weights)
        rho.deform(dmap)
        assert np.array_equal(oracles.dense_weights(rho), expected)


def assert_invariant(rho: SparseLikelihood, update: str) -> None:
    """What every sparse update leaves: strictly increasing uint32 labels
    inside the layout, finite positive weights, and a maximum of exactly 1."""
    labels, weights = rho.labels, rho.weights
    assert labels.dtype == np.uint32, update
    assert (labels[1:] > labels[:-1]).all() and labels[-1] < rho.layout.size, update
    assert np.isfinite(weights).all() and (weights > 0.0).all(), update
    assert weights.max() == 1.0, update


class TestSparseInvariant:
    """Each cut in the sparse engine rests on the invariant: labels sorted
    and unique, weights positive, maximum exactly 1. Every update is run on
    random states and on the states a run's observer sees, and checked."""

    @staticmethod
    def random_states(fam, rng):
        for stage in (fam.c_stage, fam.t_stage):
            for size in (1, 25, 300):
                labels = np.unique(rng.integers(0, stage.layout.size, size)).astype(np.uint32)
                # Weights down to subnormals, so that the split divides.
                weights = 10.0 ** rng.uniform(-320, 0, len(labels))
                weights[rng.integers(len(labels))] = 1.0
                yield stage.name, SparseLikelihood(stage.layout, labels, weights)

    @staticmethod
    def observed_states(p):
        states = []

        def observer(kind, stage, rho, frame):
            states.append((stage.name, SparseLikelihood(rho.layout, rho.labels.copy(),
                                                        rho.weights.copy())))

        config = ProtocolConfig(p=p, trials=3, decoder="sparse", seed=0, max_gates=6)
        for i in range(config.trials):
            run_trial(config, i, observer)
        return states

    def check_updates(self, fam, name, rho, rng, p):
        def run(update, step, state):
            state = SparseLikelihood(state.layout, state.labels.copy(), state.weights.copy())
            step(state)
            assert_invariant(state, f"{update} after {name}")
            return state

        assert_invariant(rho, name)
        rnd = next(r for r in fam.rounds if r.stage.name == name)
        observed = int(rng.integers(1 << rnd.syndrome.width))
        run("syndrome", lambda s: s.apply_syndrome(rnd.syndrome, observed, max(p, 0.01)), rho)
        run("truncate", lambda s: s.truncate(1e-6), rho)
        run("recovery", lambda s: s.choose_recovery(), rho)
        if rho.layout.alpha_bits == rho.layout.beta_bits:
            for action in CLIFFORD_CLASSES:
                run(f"clifford {action.name}", lambda s: s.apply_clifford(action), rho)
        if name == "t":
            try:
                run("T", lambda s: s.apply_t_gate(fam.t_update), rho)
            except DegeneratePosteriorError:
                pass
        base = run("merge", lambda s: s.deform(rnd.merge), rho)
        mem = SparseLikelihood.memory_input(fam.base_stage.code.coset_map, p)
        base = run("memory", lambda s: s.apply_memory(*mem), base)
        run("split", lambda s: s.deform(rnd.split), base)
        for eps in (1e-6, 0.0):
            run(f"measure eps={eps}",
                lambda s: s.measure(rnd.split, rnd.syndrome, observed, max(p, 0.01), eps), base)

    def test_random_states(self, fam, truncation_fallbacks):
        rng = np.random.default_rng(26)
        for name, rho in self.random_states(fam, rng):
            self.check_updates(fam, name, rho, rng, 0.02)
        # eps = 0 always runs the three steps; the other measures select.
        assert truncation_fallbacks[1::2] == [True] * (len(truncation_fallbacks) // 2)
        assert not all(truncation_fallbacks[0::2])

    @pytest.mark.parametrize("p", [0.005, 0.02, 0.1])
    def test_observer_points(self, fam, truncation_fallbacks, p):
        states = self.observed_states(p)
        truncation_fallbacks.clear()
        rng = np.random.default_rng(int(p * 1000))
        assert {name for name, _ in states} == {"c", "t"}
        for name, rho in states:
            self.check_updates(fam, name, rho, rng, p)
        assert truncation_fallbacks[1::2] == [True] * len(states)
        assert not all(truncation_fallbacks[0::2])


class TestSplitWeights:
    """The split returns the narrow weights unchanged where max(w) = 1 and
    every w / 2^k is normal; otherwise it divides as written."""

    @pytest.mark.parametrize("weights, divides", [
        pytest.param([0.25, 1.0, 0.5], False, id="normal"),
        pytest.param([1.0, 2.0 ** -1020], True, id="subnormal-quotient"),
        pytest.param([1.0, np.nextafter(2.0 ** -1020, 1.0)], True, id="quotient-rounds"),
        pytest.param([1.0, 5e-324], True, id="quotient-vanishes"),
        pytest.param([0.5, 0.25, 0.125], True, id="max-below-one"),
    ])
    @pytest.mark.parametrize("split", ["base_to_c", "base_to_t"])
    def test_matches_the_formula(self, fam, split, weights, divides):
        dmap = getattr(fam, split)
        labels, weights = np.array([2, 4, 6][:len(weights)], dtype=np.uint32), np.array(weights)
        rho = SparseLikelihood(dmap.old_layout, labels.copy(), weights.copy())
        before = rho.weights
        rho._split_weights(dmap)
        assert (rho.weights is not before) == divides
        expected = oracles.split_weights(labels, weights, len(dmap.split_tables[1]))
        assert rho.labels.tobytes() == expected[0].tobytes()
        assert rho.weights.tobytes() == expected[1].tobytes()


class TestTColumns:
    """The T update's occupied columns, found without np.unique's inverse,
    give the bytes of the update that finds them with it."""

    @pytest.mark.parametrize("columns", [1, 4, 996])
    def test_equal_unique_inverse(self, fam, columns):
        update = fam.t_update
        lay = update.layout
        rng = np.random.default_rng(columns)
        alphas = rng.choice(np.flatnonzero(update.cleanable_mask), columns, replace=False)
        betas = rng.integers(0, 1 << lay.beta_bits, (3, columns))
        labels = (betas << lay.alpha_bits) | alphas
        # Non-cleanable labels, which the projection drops.
        other = np.flatnonzero(~update.cleanable_mask)[:5]
        labels = np.unique(np.concatenate([labels.reshape(-1), other])).astype(np.uint32)
        weights = rng.random(len(labels))
        weights[0] = 1.0
        rho = SparseLikelihood(lay, labels.copy(), weights.copy())
        rho.apply_t_gate(update)
        expected = oracles.sparse_t_update_by_unique(labels, weights, update)
        assert len(np.unique(rho.labels & np.uint32((1 << lay.alpha_bits) - 1))) <= columns
        assert rho.labels.tobytes() == expected[0].tobytes()
        assert rho.weights.tobytes() == expected[1].tobytes()
