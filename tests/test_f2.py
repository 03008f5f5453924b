import random

import numpy as np
import pytest

from dccsim import f2
from dccsim.codefamily import build_gadget_codes
from dccsim.f2 import Subspace, fwht, fwht_direct, min_odd_weight

# Steane faces in the standard 7-qubit numbering (qubit j in face i iff bit i
# of j+1 is set); used as a known fixture throughout.
STEANE_FACES = [0b1010101, 0b1100110, 0b1111000]


def naive_min_odd_weight(s: Subspace) -> int | None:
    """Oracle: scan all of F2^n for the lightest odd vector orthogonal to S."""
    best = None
    for v in range(1 << s.n):
        w = v.bit_count()
        if w % 2 == 0:
            continue
        if all((v & row).bit_count() % 2 == 0 for row in s.basis):
            if best is None or w < best:
                best = w
    return best


def random_subspace(rng, n, max_gens):
    return Subspace(n, [rng.getrandbits(n) for _ in range(max_gens)])


def random_even_subspace(rng, n, max_gens):
    rows = []
    for _ in range(max_gens):
        v = rng.getrandbits(n)
        if v.bit_count() % 2:
            v ^= 1 << rng.randrange(n)
        rows.append(v)
    return Subspace(n, rows)


class TestBitVector:
    def test_embed_restrict_roundtrip(self):
        positions = [0, 2, 4]
        y = 0b111
        assert f2.embed(y, positions) == 0b10101
        assert f2.restrict(0b10101, positions) == y


class TestSpan:
    def test_empty_span(self):
        s = Subspace(3)
        assert s.dim == 0 and s.n == 3

    def test_steane_faces_dim(self):
        s = Subspace(7, STEANE_FACES)
        assert s.dim == 3

    def test_dependent_rows(self):
        s = Subspace(3, [0b101, 0b110, 0b011])
        assert s.dim == 2

    def test_canonical_equality(self):
        rng = random.Random(7)
        for _ in range(20):
            s = random_subspace(rng, 9, 4)
            # Re-span from random combinations of the basis.
            combos = []
            for _ in range(8):
                v = 0
                for b in s.basis:
                    if rng.random() < 0.5:
                        v ^= b
                combos.append(v)
            t = Subspace(9, list(s.basis) + combos)
            assert s == t


class TestComplementAndDot:
    def test_full_space_complement(self):
        s = Subspace.full(4)
        assert s.orthogonal_complement().dim == 0

    def test_dim_sum(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randrange(1, 20)
            s = random_subspace(rng, n, rng.randrange(0, n + 2))
            assert s.dim + s.orthogonal_complement().dim == n

    def test_double_complement(self):
        rng = random.Random(2)
        for _ in range(30):
            s = random_subspace(rng, 12, 5)
            assert s.orthogonal_complement().orthogonal_complement() == s

    def test_sum_perp_is_intersection_of_perps(self):
        rng = random.Random(3)
        for _ in range(20):
            s = random_subspace(rng, 10, 4)
            t = random_subspace(rng, 10, 4)
            lhs = (s + t).orthogonal_complement()
            rhs = s.orthogonal_complement().intersect(t.orthogonal_complement())
            assert lhs == rhs

    def test_even_perp_is_ones(self):
        e = Subspace.even(9)
        perp = e.orthogonal_complement()
        assert perp.basis == ((1 << 9) - 1,)

    def test_steane_dot_is_self(self):
        s = Subspace(7, STEANE_FACES)
        assert s.dot_space() == s

    def test_steane_perp(self):
        s = Subspace(7, STEANE_FACES)
        perp = s.orthogonal_complement()
        assert perp.dim == 4
        omega = 0b1111111 ^ STEANE_FACES[1]
        assert perp == s + Subspace(7, [omega, 0b1111111])

    def test_dot_of_zero_in_f2_1(self):
        z = Subspace(1)
        assert z.dot_space().dim == 0

    def test_dot_involution_on_even_subspaces(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.choice([3, 5, 7, 9, 11, 15])
            s = random_even_subspace(rng, n, rng.randrange(0, n))
            assert s.dot_space().dot_space() == s

    def test_intersection_identities(self):
        s = Subspace(7, STEANE_FACES)
        assert s.intersect(s) == s

    def test_membership_via_parity_checks(self):
        rng = random.Random(5)
        s = random_subspace(rng, 11, 5)
        for _ in range(50):
            v = rng.getrandbits(11)
            in_space = s.contains(v)
            checks_zero = all((v & row).bit_count() % 2 == 0 for row in s.parity_checks)
            assert in_space == checks_zero


class TestMinOddWeight:
    def test_steane_distance(self):
        s = Subspace(7, STEANE_FACES)
        assert min_odd_weight(s) == 3

    def test_zero_subspace(self):
        assert min_odd_weight(Subspace(5)) == 1

    def test_no_odd_vectors(self):
        with pytest.raises(f2.NoOddVectorsError):
            min_odd_weight(Subspace.full(4))

    def test_matches_naive(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randrange(2, 13)
            s = random_subspace(rng, n, rng.randrange(0, n))
            if ((1 << n) - 1) in s:
                continue
            assert min_odd_weight(s) == naive_min_odd_weight(s)

    def test_weight_limited_path_agrees(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(4, 13)
            s = random_subspace(rng, n, rng.randrange(1, n))
            if ((1 << n) - 1) in s:
                continue
            exact = naive_min_odd_weight(s)
            for budget in (1, 3, exact):
                got = min_odd_weight(s, max_weight=budget)
                assert got == (exact if exact <= budget else None)
        # The t=2 final stage (59 qubits, d=5): the first match of the join
        # at weight 5, between 3-subsets and 2-subsets of column sums.
        final = build_gadget_codes(2, "final").t_space
        assert final.n == 59
        assert min_odd_weight(final, max_weight=3) is None
        assert min_odd_weight(final, max_weight=5) == 5

    def test_exceeds_max_signal(self):
        s = Subspace(7, STEANE_FACES)
        assert min_odd_weight(s, max_weight=1) is None

    def test_budget_above_join_limit_raises_before_searching(self, monkeypatch):
        # Budgets 5 and 6 keep the C(7, 2) = 21 sums of 2-subsets at weight 5.
        s = Subspace(7, STEANE_FACES)
        monkeypatch.setattr(f2, "JOIN_SUM_LIMIT", 20)
        assert min_odd_weight(s, max_weight=4) == 3
        for budget in (5, 6, 100):
            with pytest.raises(f2.CapacityError, match=f"budget of {budget}"):
                min_odd_weight(s, max_weight=budget)
        assert min_odd_weight(s, max_weight=3) == 3
        assert min_odd_weight(s) == 3  # no budget: the search stops at d


def radix2_fwht(values: np.ndarray) -> np.ndarray:
    """Reference transform along axis 0: the plain in-place radix-2 loop,
    stage h = 1, 2, 4, ... mapping each pair of rows (i, i + h) with bit h
    of i clear to (row_i + row_i+h, row_i - row_i+h)."""
    out = values.copy()
    m = len(out)
    h = 1
    while h < m:
        for i in range(m):
            if not i & h:
                x, y = out[i].copy(), out[i + h].copy()
                out[i], out[i + h] = x + y, x - y
        h *= 2
    return out


class TestFwht:
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (1 << 13,), (32, 1), (32, 3), (32, 996), (16, 3, 5), (4, 0)]
    )
    def test_bit_identical_to_radix2_loop(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        y = x.copy()
        assert fwht(y) is y
        assert np.array_equal(y, radix2_fwht(x))

    def test_rejects_non_contiguous(self):
        with pytest.raises(ValueError, match="C-contiguous"):
            fwht(np.zeros((8, 4))[:, ::2])

    def test_delta_gives_ones(self):
        x = np.zeros(16)
        x[0] = 1.0
        fwht(x)
        assert np.array_equal(x, np.ones(16))

    def test_uniform_gives_delta(self):
        c = 5
        x = np.full(1 << c, 2.0**-c)
        fwht(x)
        expect = np.zeros(1 << c)
        expect[0] = 1.0
        assert np.allclose(x, expect, atol=1e-12)

    def test_involution_up_to_scale(self):
        rng = np.random.default_rng(9)
        for c in range(1, 11):
            x = rng.normal(size=1 << c)
            y = x.copy()
            fwht(y)
            fwht(y)
            assert np.max(np.abs(y - (1 << c) * x)) <= 1e-10 * max(1.0, np.abs(x).max())

    def test_matches_direct_transform(self):
        rng = np.random.default_rng(10)
        for c in range(1, 9):
            x = rng.normal(size=1 << c)
            y = x.copy()
            fwht(y)
            assert np.max(np.abs(y - fwht_direct(x))) <= 1e-10

    def test_axis_transform(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 5))
        y = x.copy()
        fwht(y, axis=0)
        for k in range(5):
            ref = x[:, k].copy()
            fwht(ref)
            assert np.allclose(y[:, k], ref)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(6))


class TestSolvers:
    def test_solve_linear_roundtrip(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randrange(1, 12)
            rows = [rng.getrandbits(n) for _ in range(rng.randrange(0, n + 2))]
            x_true = rng.getrandbits(n)
            rhs = [(row & x_true).bit_count() & 1 for row in rows]
            x = f2.solve_linear(rows, rhs, n)
            assert x is not None
            assert all((row & x).bit_count() & 1 == b for row, b in zip(rows, rhs))
            for k in f2.nullspace(rows, n):
                assert all((row & k).bit_count() % 2 == 0 for row in rows)

    def test_solve_linear_inconsistent(self):
        assert f2.solve_linear([0b1, 0b1], [0, 1], 2) is None

    def test_express(self):
        """express finds a combination exactly for the vectors of the span,
        and for independent rows it is the one that made the vector."""
        rng = random.Random(13)
        for k in (4, 6, 12):
            rows = [rng.getrandbits(10) for _ in range(k)]
            span = Subspace(10, rows)
            for v in range(1 << 10):
                combo = f2.express(rows, v, 10)
                assert (combo is None) == (v not in span)
                if combo is not None:
                    assert f2.xor_at_sites(rows, combo) == v
            basis = list(span.basis)
            for mask in range(1 << len(basis)):
                assert f2.express(basis, f2.xor_at_sites(basis, mask), 10) == mask


class TestHexRows:
    def test_known_value(self):
        # 7-bit row 1010101 (qubit 0 first) pads to two hex digits.
        assert f2.row_to_hex(0b1010101, 7) == "aa"

    def test_roundtrip(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randrange(1, 70)
            bits = rng.getrandbits(n)
            text = f2.row_to_hex(bits, n)
            assert len(text) == (n + 3) // 4
            assert f2.hex_to_row(text, n) == bits
