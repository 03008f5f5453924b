import math

import numpy as np
import pytest

import oracles
from dccsim import f2, noise
from dccsim.codefamily import cached_doubled
from dccsim.csscode import (
    CodeConstructionError,
    EvennessWitness,
    build_cleanability_table,
    make_code,
    verify_transversality,
)
from dccsim.f2 import Subspace
from dccsim.protocol import family15
from dccsim.noise import (
    CLIFFORD_CLASSES,
    PauliFrame,
    TPropagator,
    flip_syndrome,
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
    return TPropagator(build_cleanability_table(t_code, oracles.T_ON_EVERY_SITE))


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


class TestPackedDraws:
    """The packed draws against the bit-by-bit loops, from the same seeds."""

    @pytest.mark.parametrize("p", [0.0, 0.005, 0.3, 1.0])
    def test_memory_error(self, p):
        packed, loop = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(1000):
            assert sample_memory_error(p, 15, packed) == oracles.sample_memory_error(p, 15, loop)
        assert packed.random() == loop.random()

    @pytest.mark.parametrize("q", [0.0, 0.02, 0.5, 1.0])
    def test_syndrome_flips(self, q):
        packed, loop = np.random.default_rng(5), np.random.default_rng(5)
        for bits in range(1000):
            assert flip_syndrome(q, bits, 14, packed) == oracles.flip_syndrome(q, bits, 14, loop)
        assert packed.random() == loop.random()

    @pytest.mark.parametrize("space", ["t_space", "zero"])
    def test_random_element(self, space):
        s = family15().doubled.t_space if space == "t_space" else Subspace(15)
        packed, loop = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(1000):
            assert noise.random_element(s, packed) == oracles.random_element(s, loop)
        assert packed.random() == loop.random()


class TestCliffordActions:
    def test_h_swaps(self):
        frame = PauliFrame(a=0b00110, b=0b10001)
        CLIFFORD_CLASSES[1].apply_frame(frame)
        assert (frame.a, frame.b) == (0b10001, 0b00110)

    def test_s_adds(self):
        frame = PauliFrame(a=0b00110, b=0b10001)
        CLIFFORD_CLASSES[2].apply_frame(frame)
        assert (frame.a, frame.b) == (0b00110, 0b10111)

    def test_identity(self):
        frame = PauliFrame(a=0b1, b=0b10)
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
        # sample_clifford reads the class off the draw's index; the group
        # table it replaced gives each class four elements, and the same
        # seeded draws pick the same classes from it.
        from collections import Counter

        assert len(oracles.CLIFFORD_GROUP) == 24
        counts = Counter(idx for _, idx in oracles.CLIFFORD_GROUP)
        assert sorted(counts) == list(range(6)) and set(counts.values()) == {4}
        new, old = np.random.default_rng(12), np.random.default_rng(12)
        assert [sample_clifford(new) for _ in range(1000)] == \
            [oracles.sample_clifford(old) for _ in range(1000)]

    def test_sample_covers_all_classes(self):
        rng = np.random.default_rng(4)
        seen = {sample_clifford(rng).name for _ in range(500)}
        assert seen == {c.name for c in CLIFFORD_CLASSES}

    def test_bits_are_the_named_unitarys_conjugation(self):
        # A name is a matrix product, so its gates act right to left: HS is
        # the unitary H S, which applies S first. The bits are those of
        # U X U^dagger ~ X^p Z^q and U Z U^dagger ~ X^r Z^s, up to phase.
        gates = {"I": np.eye(2), "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2), "S": np.diag([1, 1j])}
        x, z = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        paulis = {(i, j): np.linalg.matrix_power(x, i) @ np.linalg.matrix_power(z, j)
                  for i in (0, 1) for j in (0, 1)}

        def bits(m):
            # A unitary is a phase times the Pauli P exactly when |tr(P m)| = 2.
            return [ij for ij, pauli in paulis.items() if abs(abs(np.trace(pauli @ m)) - 2) < 1e-12]

        for cls in CLIFFORD_CLASSES:
            u = np.eye(2)
            for g in cls.name:
                u = u @ gates[g]
            assert bits(u @ x @ u.conj().T) == [(cls.p, cls.q)], cls.name
            assert bits(u @ z @ u.conj().T) == [(cls.r, cls.s)], cls.name

    def test_conjugation_consistency(self):
        # Applying the action twice for order-2 elements restores the frame.
        rng = np.random.default_rng(5)
        for cls in CLIFFORD_CLASSES:
            frame = PauliFrame(a=int(rng.integers(0, 256)), b=int(rng.integers(0, 256)))
            orig = (frame.a, frame.b)
            order = {"I": 1, "H": 2, "S": 2, "HSH": 2, "HS": 3, "SH": 3}[cls.name]
            for _ in range(order):
                cls.apply_frame(frame)
            assert (frame.a, frame.b) == orig


class TestPropagation:
    def test_radical_is_self_orthogonal_with_even_weights(self, propagator):
        for alpha in propagator.table.cleanable:
            radical = oracles.radical(propagator, alpha)
            for g in radical:
                assert g.bit_count() % 2 == 0
                assert not (g & ~propagator.table.rep(alpha))
            for g in radical:
                for h in radical:
                    assert oracles.dot(g, h) == 0

    @pytest.mark.parametrize("which", ["doubled_steane", "c_code"])
    def test_radical_is_radical_of_b_inside_e(self, which, t_code):
        # Oracle independent of Gamma: B_e from B's elements inside e, and
        # its radical as the elements of B_e orthogonal to all of B_e.
        code = t_code if which == "doubled_steane" else family15().c_stage.code
        propagator = TPropagator(build_cleanability_table(code, oracles.T_ON_EVERY_SITE))  # no sign is read
        b_elements = code.b_space.element_array()
        for alpha in sorted(propagator.table.cleanable):
            e = propagator.table.rep(alpha)
            inside = b_elements[(b_elements & np.uint64(~e & ((1 << code.n) - 1))) == 0].tolist()
            b_e = Subspace(code.n, inside)
            radical = [g for g in inside if not any(oracles.dot(g, h) for h in b_e.basis)]
            assert Subspace(code.n, oracles.radical(propagator, alpha)) == Subspace(code.n, radical)

    def test_distribution_normalized_nonnegative(self, propagator):
        for alpha in propagator.table.cleanable:
            dist = oracles.p_f_given_e(propagator, alpha)
            total = sum(dist.values())
            assert abs(total - 1.0) <= 1e-12
            assert all(v >= 0 for v in dist.values())

    def test_product_equals_character_sum(self, propagator):
        for alpha in propagator.table.cleanable:
            prod = oracles.p_f_given_e(propagator, alpha)
            char = oracles.p_f_given_e_charsum(propagator, alpha)
            keys = set(prod) | set(char)
            for k in keys:
                assert abs(prod.get(k, 0.0) - char.get(k, 0.0)) <= 1e-12

    def test_cosets_are_built_on_first_use(self, t_code):
        prop = TPropagator(build_cleanability_table(t_code, oracles.T_ON_EVERY_SITE))
        assert prop._cosets == {}
        first = prop.coset(0)
        assert list(prop._cosets) == [0]
        assert prop.coset(0) is first
        assert len(prop._cosets) == 1

    def test_zero_coset_is_deterministic(self, propagator):
        dist = oracles.p_f_given_e(propagator, 0)
        assert dist == {0: 1.0}
        rng = np.random.default_rng(6)
        frame = PauliFrame()
        propagate_through_t(frame, propagator, 0, rng)
        assert (frame.a, frame.b) == (0, 0)

    def test_trivial_radical_gives_uniform(self, propagator):
        # A coset whose representative supports no Z stabilizer spreads
        # uniformly over all subsets.
        for alpha in propagator.table.cleanable:
            cp = propagator.coset(alpha)
            if oracles.radical(propagator, alpha) or not cp.positions:
                continue
            dist = oracles.p_f_given_e(propagator, alpha)
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
        for v in t_code.a_space.element_array().tolist():
            frame = PauliFrame(a=v, b=0)
            propagate_through_t(frame, propagator, oracles.label_x(t_code.coset_map, v), rng)
            assert t_code.coset_map.label(frame.a, frame.b) == 0

    def test_sampling_matches_distribution(self, propagator):
        # Pick a coset with a spread-out distribution and compare empirical
        # frequencies within 3 sigma multinomial bounds.
        rng = np.random.default_rng(8)
        alpha = next(
            a for a in sorted(propagator.table.cleanable)
            if propagator.table.rep(a).bit_count() == 3
        )
        dist = oracles.p_f_given_e(propagator, alpha)
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
            frame = PauliFrame(a=propagator.table.rep(alpha), b=0)
            cm = propagator.table.code.coset_map
            label_before = oracles.label_x(cm, frame.a)
            propagate_through_t(frame, propagator, label_before, rng)
            assert oracles.label_x(cm, frame.a) == label_before
            assert not (frame.b & ~propagator.table.rep(alpha))

    def test_non_cleanable_raises(self, propagator, t_code):
        bad = next(a for a in range(1 << 11) if not propagator.table.is_cleanable(a))
        e = int(np.flatnonzero(t_code.coset_map.x_labels == bad)[0])
        frame = PauliFrame(a=e, b=0)
        with pytest.raises(KeyError):
            propagate_through_t(frame, propagator, bad, np.random.default_rng(10))
        assert (frame.a, frame.b) == (e, 0)


SIGN_TERM_B = Subspace(5, [17, 18, 24])
SIGN_TERM_WITNESS = EvennessWitness.from_sites([0, 1, 2], [3, 4], 8)


class TestSignTerm:
    """The 5-qubit regular code B = <17, 18, 24>, A = dot(B) = <27>, with T
    on M+ = {0, 1, 2} and T-dagger on M- = {3, 4}: unlike the protocol's
    codes, some coset radicals hold a vector of imbalance 2 mod 4, so Gamma
    has -1 entries and some particular solutions are nonzero."""

    @pytest.fixture(scope="class")
    def prop(self):
        code = make_code(SIGN_TERM_B.dot_space(), SIGN_TERM_B)
        return TPropagator(build_cleanability_table(code, SIGN_TERM_WITNESS))

    def test_code_carries_the_sign_term(self, prop):
        assert prop.table.code.a_space.basis == (27,)
        assert (prop.table.gamma_hat < 0).any()
        assert any(prop.coset(alpha).particular for alpha in prop.table.cleanable)

    def test_gamma_hat_matches_direct_sum(self, prop):
        gamma = prop.table.gamma_hat
        for alpha in sorted(prop.table.cleanable):
            for beta in range(gamma.shape[0]):
                direct = oracles.gamma_hat_direct(prop.table.code, prop, alpha, beta)
                assert abs(gamma[beta, alpha] - direct) <= 1e-12

    def test_product_equals_character_sum(self, prop):
        for alpha in sorted(prop.table.cleanable):
            prod = oracles.p_f_given_e(prop, alpha)
            char = oracles.p_f_given_e_charsum(prop, alpha)
            assert prod.keys() == char.keys()
            assert all(abs(prod[f] - char[f]) <= 1e-12 for f in prod)

    def test_refuses_a_witness_that_leaves_sites_ungated(self, prop):
        # T on site 2 alone is transversal here (A = <27> misses site 2), but
        # leaves an X error on site 0 untouched, where P(f|e = {0}) would
        # give f = {0} half the time: the table refuses the witness.
        code = prop.table.code
        witness = EvennessWitness.from_sites([2], [], 8)
        assert verify_transversality(code, "T", witness)
        with pytest.raises(CodeConstructionError, match=r"sites \[0, 1, 3, 4\] ungated"):
            build_cleanability_table(code, witness)

    def test_samples_lie_in_the_support(self, prop):
        # sample_f starts from the particular solution of f.g = (|g & M+| - |g & M-|)/2.
        rng = np.random.default_rng(14)
        for alpha in sorted(prop.table.cleanable):
            dist = oracles.p_f_given_e(prop, alpha)
            assert all(prop.sample_f(alpha, rng) in dist for _ in range(20))


def t_gate_overlaps(prop: TPropagator, witness: EvennessWitness, alpha: int):
    """The transversal T gate applied to code states, against P(f|e).

    U is T on witness.plus and T-dagger on witness.minus; e is alpha's clean
    representative. The inputs are |0>, |1>, |+> and |+i>, on the code
    states of A + <1>. U X^e |psi> is a sum of the states Z^f X^e U |psi>
    over f inside e. Two f that differ by an element of B inside e give
    one state up to sign, and two that do not give orthogonal states: their
    difference is not in A-perp, since e holds no odd vector of A-perp.

    Returns, for each f inside e (row x holds the f whose restriction to e
    is x), the squared overlap of U X^e |psi> with Z^f X^e U |psi>, one
    column per input; the class marginal of oracles.p_f_given_e at f, its
    sum over the f that differ from f by an element of B inside e; and the
    number of those elements.
    """
    code = prop.table.code
    n, e = code.n, prop.table.rep(alpha)
    zero = list(oracles.elements(code.a_space))
    states = np.array(zero + [v ^ ((1 << n) - 1) for v in zero], dtype=np.uint64)
    amps = np.zeros((len(states), 4), dtype=complex)
    amps[:len(zero), 0] = amps[len(zero):, 1] = len(zero) ** -0.5
    amps[:, 2] = (amps[:, 0] + amps[:, 1]) / math.sqrt(2)
    amps[:, 3] = (amps[:, 0] + 1j * amps[:, 1]) / math.sqrt(2)

    def phase(v):
        eighths = (np.bitwise_count(v & np.uint64(witness.plus)).astype(np.int64)
                   - np.bitwise_count(v & np.uint64(witness.minus)))
        return np.exp(0.25j * np.pi * eighths)

    # <Z^f X^e U psi | U X^e psi> sums, over the basis states v of psi, the
    # amplitude at v + e: psi(v) U(v + e) against (-1)^(f.(v+e)) psi(v) U(v).
    moved = states ^ np.uint64(e)
    positions = f2.support(e)
    fs = f2.enumerate_span([1 << j for j in positions], n)
    signs = 1 - 2 * (np.bitwise_count(fs[:, np.newaxis] & moved) & 1).astype(np.int64)
    terms = np.abs(amps) ** 2 * (np.conj(phase(states)) * phase(moved))[:, np.newaxis]
    overlaps = np.abs(signs @ terms) ** 2

    b_elements = code.b_space.element_array()
    b_inside_e = b_elements[(b_elements & np.uint64(((1 << n) - 1) ^ e)) == 0]
    inside = [f2.restrict(int(b), positions) for b in b_inside_e]
    dist = oracles.p_f_given_e(prop, alpha)
    p_f = np.array([dist.get(int(f), 0.0) for f in fs])
    marginals = sum(p_f[np.arange(len(fs)) ^ b] for b in inside)
    return overlaps, marginals, len(inside)


def t_gate_mismatches(prop: TPropagator, witness: EvennessWitness) -> list[int]:
    """The cleanable cosets where the gate's class weights differ from P(f|e)'s
    class marginals by more than 1e-12, after checking that U is a
    transversal T and that each input's class weights sum to 1."""
    assert verify_transversality(prop.table.code, "T", witness)
    mismatched = []
    for alpha in prop.table.cleanable:
        overlaps, marginals, classes = t_gate_overlaps(prop, witness, alpha)
        assert np.abs(overlaps.sum(axis=0) / classes - 1).max() <= 1e-12, f"alpha {alpha}"
        if np.abs(overlaps - marginals[:, np.newaxis]).max() > 1e-12:
            mismatched.append(alpha)
    return mismatched


class TestTGateOnCodeStates:
    """P(f|e) is what the transversal T gate does to X^e on code states:
    the Z errors' class weights in U X^e |psi> are P(f|e)'s class marginals."""

    def test_protocol_t_code(self):
        fam = family15()
        assert len(fam.table.cleanable) == 996
        assert t_gate_mismatches(fam.prop, fam.doubled.witness_t) == []

    def test_code_with_the_sign_term(self):
        # The gate gives a radical vector g the sign (|g & M+| - |g & M-|)/2,
        # which differs from |g|/2 where g meets M- in an odd number of
        # sites: on cosets 5 and 6 here, and on no coset of the protocol's
        # code. A table built for T on every site takes |g|/2 and misses the
        # gate there; the gate's own witness matches it on every coset,
        # coset 3 included, whose radical vector, inside M+, carries the -1.
        code = make_code(SIGN_TERM_B.dot_space(), SIGN_TERM_B)
        witness = SIGN_TERM_WITNESS
        prop = TPropagator(build_cleanability_table(code, witness))
        assert oracles.radical(prop, 3) == (0b11,) and prop.table.gamma_hat[:, 3].min() < 0
        odd_on_minus = [alpha for alpha in prop.table.cleanable
                        if any((g & witness.minus).bit_count() & 1
                               for g in oracles.radical(prop, alpha))]
        assert odd_on_minus == [5, 6]
        assert t_gate_mismatches(prop, witness) == []
        everywhere = TPropagator(build_cleanability_table(code, EvennessWitness((1 << 5) - 1, 0, 8)))
        assert t_gate_mismatches(everywhere, witness) == odd_on_minus


def logical_phases(space: Subspace, witness: EvennessWitness) -> tuple[set[int], set[int]]:
    """The phases U gives the basis states of |0_L> (the elements of A) and
    of |1_L> (those of A + <1>), as exponents k of exp(2 pi i k / order):
    U is T (order 8) or S (order 4) on witness.plus and its inverse on
    witness.minus, so basis state v gets k = |v & M+| - |v & M-|."""
    zero = space.element_array().astype(np.uint64)

    def exponents(states: np.ndarray) -> set[int]:
        k = (np.bitwise_count(states & np.uint64(witness.plus)).astype(np.int64)
             - np.bitwise_count(states & np.uint64(witness.minus)))
        return set((k % witness.order).tolist())

    return exponents(zero), exponents(zero ^ np.uint64((1 << space.n) - 1))


class TestLogicalAction:
    """The transversal gates act on the code states as the logical gates
    they are named for: U |0_L> = |0_L> and U |1_L> = e^(2 pi i / order)
    |1_L> for T and S, and H^n maps |0_L>, |1_L> to |+_L>, |-_L>."""

    @pytest.mark.parametrize("t", [1, 2])
    def test_t_acts_as_logical_t(self, t):
        d = cached_doubled(t)
        assert logical_phases(d.t_space, d.witness_t) == ({0}, {1})

    def test_witness_site_moved_to_minus_breaks_logical_t(self):
        # T-dagger where T belongs: every element of A holding the site moves
        # by -2 eighths, so |0_L> no longer keeps its phase.
        d = cached_doubled(1)
        site = d.witness_t.plus & -d.witness_t.plus
        moved = EvennessWitness(d.witness_t.plus ^ site, d.witness_t.minus | site, 8)
        zero_phases, _ = logical_phases(d.t_space, moved)
        assert zero_phases == {0, 6}

    def test_s_acts_as_logical_s_on_the_c_code(self):
        d = cached_doubled(1)
        assert logical_phases(d.c_space, d.witness_c) == ({0}, {1})

    def test_h_acts_as_logical_h_on_the_c_code(self):
        # H on all 15 qubits is the Walsh-Hadamard transform of the 2^15
        # amplitudes, scaled by 2^(-15/2).
        d = cached_doubled(1)
        n, elements = d.n, d.c_space.element_array()
        zero, one = np.zeros(1 << n), np.zeros(1 << n)
        zero[elements] = one[elements ^ np.uint32((1 << n) - 1)] = 2.0 ** (-d.c_space.dim / 2)
        for state, sign in ((zero, 1.0), (one, -1.0)):
            image = f2.fwht(state.copy()) * 2.0 ** (-n / 2)
            assert np.abs(image - (zero + sign * one) / math.sqrt(2)).max() <= 1e-12


class TestTwirls:
    def test_gauge_elements_never_change_labels(self, t_code):
        rng = np.random.default_rng(11)
        cm = t_code.coset_map
        gauge_x, gauge_z = t_code.b_space.dot_space(), t_code.a_space.dot_space()
        for _ in range(10_000):
            a = int(rng.integers(0, 1 << 15))
            b = int(rng.integers(0, 1 << 15))
            label = cm.label(a, b)
            ga = noise.random_element(gauge_x, rng)
            gb = noise.random_element(gauge_z, rng)
            assert cm.label(a ^ ga, b ^ gb) == label
