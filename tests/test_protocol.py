import dataclasses
import hashlib
import math
import os
import time

import numpy as np
import pytest

from dccsim import protocol
from dccsim.noise import CLIFFORD_CLASSES, PauliFrame
from dccsim.protocol import (
    ProtocolConfig,
    TrialResult,
    estimate_pl,
    family15,
    jackknife_inverse_mean,
    logical_error_test,
    run_trial,
    run_trials,
    syndrome_test,
)

IDENTITY = CLIFFORD_CLASSES[0]
# p = r = 1 makes every face bit enter the syndrome test.
FULL_MIX = next(c for c in CLIFFORD_CLASSES if c.p == 1 and c.r == 1)


def _run_trial_with_pid(config, trial_index):
    """run_trial and the id of the process that ran it. The pause keeps one
    worker from taking every trial before the other has started."""
    time.sleep(0.05)
    return os.getpid(), run_trial(config, trial_index)


@pytest.fixture(scope="module")
def fam():
    return family15()


class TestFamilyWiring:
    def test_label_widths(self, fam):
        assert fam.t_stage.layout.c == 16
        assert fam.base_stage.layout.c == 13
        assert fam.c_stage.layout.c == 16

    def test_syndrome_widths(self, fam):
        assert fam.m_c.width == 14
        assert fam.m_t.width == 9

    def test_rounds_form_the_stage_graph(self, fam):
        c_round, t_round = fam.rounds
        assert (c_round.kind, c_round.stage, c_round.merge, c_round.split, c_round.syndrome) == (
            "C", fam.c_stage, fam.t_to_base, fam.base_to_c, fam.m_c)
        assert (t_round.kind, t_round.stage, t_round.merge, t_round.split, t_round.syndrome) == (
            "T", fam.t_stage, fam.c_to_base, fam.base_to_t, fam.m_t)
        assert fam.deformations == {
            ("t", "base"): fam.t_to_base,
            ("base", "c"): fam.base_to_c,
            ("c", "base"): fam.c_to_base,
            ("base", "t"): fam.base_to_t,
        }
        assert fam.syndromes == {"c": fam.m_c, "t": fam.m_t}
        assert fam.stages == {"t": fam.t_stage, "base": fam.base_stage, "c": fam.c_stage}

    def test_measured_generators_match_maps(self, fam):
        # The decoder-side syndrome rows must reproduce the frame-side
        # measurement for random frames, on both codes.
        rng = np.random.default_rng(0)
        for _ in range(100):
            frame = PauliFrame(15, int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15)))
            label_c = fam.c_stage.frame_label(frame)
            got = fam.m_c.table[label_c]
            assert int(got) == fam.ideal_c_syndromes(frame)
            label_t = fam.t_stage.frame_label(frame)
            got = fam.m_t.table[label_t]
            assert int(got) == fam.ideal_t_syndromes(frame)

    def test_logical_labels_invisible_to_syndromes(self, fam):
        for stage, smap in ((fam.c_stage, fam.m_c), (fam.t_stage, fam.m_t)):
            for label in (stage.logical_x, stage.logical_z):
                syn = smap.table[label]
                assert syn == 0
                assert label != 0

    def test_recovery_section(self, fam):
        cm = fam.t_stage.code.coset_map
        for alpha in (0, 1, 0b101, 0b11111111111):
            assert cm.label_x(fam.recovery_vector(alpha)) == alpha

    def test_gauge_equivalent_frames_share_labels(self, fam):
        rng = np.random.default_rng(1)
        code = fam.t_stage.code
        for _ in range(50):
            a, b = int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15))
            ga = rng.choice(list(code.dot_b.elements()))
            gb = rng.choice(list(code.dot_a.elements()))
            assert code.coset_map.label(a, b) == code.coset_map.label(a ^ ga, b ^ gb)


class TestSyndromeTest:
    def test_all_zero_passes(self, fam):
        assert syndrome_test(fam, 0, 0, IDENTITY)

    def test_single_edge_flip_fails(self, fam):
        for l in range(9):
            assert not syndrome_test(fam, 0, 1 << l, IDENTITY)

    def test_face_bits_under_full_mix(self, fam):
        # With p = r = 1 every xi and zeta face bit feeds a constraint, so
        # each single flip among the 12 square-face bits fails the test; the
        # two omega-face bits never enter and cannot fail it.
        for idx in range(14):
            expected_fail = idx not in (6, 13)
            assert syndrome_test(fam, 1 << idx, 0, FULL_MIX) != expected_fail

    def test_zeta_bits_under_identity(self, fam):
        # U = I uses only the zeta face bits.
        for idx in range(6):
            assert syndrome_test(fam, 1 << idx, 0, IDENTITY)            # xi: ignored
            assert not syndrome_test(fam, 1 << (idx + 7), 0, IDENTITY)  # zeta: fails

    def test_xi_bits_under_h(self, fam):
        h = CLIFFORD_CLASSES[1]
        for idx in range(6):
            assert not syndrome_test(fam, 1 << idx, 0, h)
            assert syndrome_test(fam, 1 << (idx + 7), 0, h)

    def test_single_x_fault_in_t_round_fails(self, fam):
        # An X error arriving between the two measurement layers flips the
        # edge outcomes of its site; exhaustive over the 14 AB qubits and
        # all six Clifford classes.
        for action in CLIFFORD_CLASSES:
            for j in range(14):
                frame = PauliFrame(15, a=1 << j, b=0)
                t_bits = fam.ideal_t_syndromes(frame)
                assert t_bits != 0
                assert not syndrome_test(fam, 0, t_bits, action)

    def test_x_fault_on_final_qubit_invisible(self, fam):
        # The final-block qubit touches no double edge; the pair test cannot
        # see it (it is caught by later face measurements instead).
        frame = PauliFrame(15, a=1 << 14, b=0)
        assert fam.ideal_t_syndromes(frame) == 0
        assert syndrome_test(fam, 0, 0, IDENTITY)

    def test_consistent_error_passes(self, fam):
        # A persistent error present before the C-round measurement is seen
        # consistently by both rounds and must pass, for every gate class.
        rng = np.random.default_rng(2)
        for _ in range(200):
            action = CLIFFORD_CLASSES[int(rng.integers(0, 6))]
            frame = PauliFrame(15, int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15)))
            c_bits = fam.ideal_c_syndromes(frame)
            after = frame.copy()
            action.apply_frame(after)
            t_bits = fam.ideal_t_syndromes(after)
            assert syndrome_test(fam, c_bits, t_bits, action)


class TestLogicalErrorTest:
    def test_exact_match_passes(self, fam):
        assert logical_error_test(0, 0, fam.t_stage)

    def test_pure_gauge_frame_passes(self, fam):
        frame = PauliFrame(15, a=next(iter(fam.t_stage.code.a_space.elements())), b=0)
        assert fam.t_stage.frame_label(frame) == 0

    def test_logical_difference_fails(self, fam):
        stage = fam.t_stage
        for delta in (stage.logical_x, stage.logical_z, stage.logical_x ^ stage.logical_z):
            assert not logical_error_test(delta, 0, stage)
            assert not logical_error_test(0, delta, stage)

    def test_detectable_difference_passes(self, fam):
        # A single-qubit X coset differs detectably, not logically.
        stage = fam.t_stage
        label = stage.code.coset_map.label(1, 0)
        assert label != 0
        assert logical_error_test(label, 0, stage)


class TestNoiselessInvariance:
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_thousand_gates(self, engine):
        checked = {"rounds": 0}

        def observer(kind, stage, rho, frame):
            assert stage.frame_label(frame) == 0
            assert rho.final_coset() == 0
            checked["rounds"] += 1

        cfg = ProtocolConfig(p=0.0, trials=1, max_gates=1000, decoder=engine, seed=5)
        result = run_trial(cfg, 0, observer=observer)
        assert result.termination == "max_gates_reached"
        assert result.gates_implemented == 1000
        assert result.retries == 0
        assert checked["rounds"] == result.rounds


class TestDeterminism:
    @pytest.mark.parametrize("engine", ["exact", "sparse"])
    def test_same_seed_same_results(self, engine):
        cfg = ProtocolConfig(p=0.02, trials=5, max_gates=500, decoder=engine, seed=11)
        first = run_trials(cfg)
        second = run_trials(cfg)
        assert first == second

    def test_parallel_equals_serial(self, monkeypatch):
        cfg = ProtocolConfig(p=0.02, trials=6, max_gates=100, decoder="sparse", seed=21)
        serial = run_trials(cfg)
        family15()  # forked workers inherit the tables
        monkeypatch.setattr(protocol, "run_trial", _run_trial_with_pid)
        pids, parallel = zip(*run_trials(dataclasses.replace(cfg, threads=2)))
        assert list(parallel) == serial
        assert len(set(pids)) == 2, "the trials did not reach both workers"

    @staticmethod
    def results_digest(decoder: str, p: float, max_gates: int) -> str:
        """sha256 of "gates,termination,retries,rounds\n" over the first 30
        trials at seed 0. A speedup of either engine must leave it unchanged."""
        cfg = ProtocolConfig(p=p, trials=30, max_gates=max_gates, decoder=decoder, seed=0)
        text = "".join(
            f"{r.gates_implemented},{r.termination},{r.retries},{r.rounds}\n"
            for r in run_trials(cfg)
        )
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("p, max_gates, digest", [
        (0.005, 20, "858bc65be1e6c6a8b47b7ea695853fb96c93d79e46a48b6b944d286cf8667b92"),
        (0.02, 2, "bba9db31b3d543adafd0aa3399345e95cf985010b66ed026fffdce48d0b9095e"),
    ])
    def test_sparse_results_pinned(self, p, max_gates, digest):
        assert self.results_digest("sparse", p, max_gates) == digest

    @pytest.mark.parametrize("p, max_gates", [(0.005, 20), (0.02, 2)])
    def test_sparse_truncation_selects_before_sorting(self, truncation_fallbacks, p, max_gates):
        """On the pinned sparse configurations no kept entry lies so close to
        the cut that the whole grid must be sorted first."""
        cfg = ProtocolConfig(p=p, trials=30, max_gates=max_gates, decoder="sparse", seed=0)
        for i in range(cfg.trials):
            run_trial(cfg, i)
        assert truncation_fallbacks and not any(truncation_fallbacks)

    def test_exact_results_pinned(self):
        digest = "58339a6723d42fa66e4bfc681fd0e470e741240dd46342399d167ee095631005"
        assert self.results_digest("exact", 0.02, 2) == digest

    @pytest.mark.parametrize("decoder, p, max_gates, digest, trials", [
        ("sparse", 0.005, 20, "1512d731c75012be7f0f2246f3032ba69ac63c3308bc741c4aca626f605b846b", 30),
        ("sparse", 0.02, 2, "2942d2459d2f8bb33b8e6ae3acbc3314e800409c8a81ef408a8ee34895c91b9b", 30),
        # Memory's shifts collide on most labels at this p.
        ("sparse", 0.3, 20, "2c0780cf93898a71177a987a97eb62975d374da242b7b8b574efc79c337165c5", 3),
        ("exact", 0.02, 2, "6fa80df8ffa0b0c5a3c46bcbcee19f9c6a46e03a1f58835a21adfbdd156e9d3e", 30),
    ])
    def test_decoder_states_pinned(self, decoder, p, max_gates, digest, trials):
        """sha256 over the layout, labels and weight bytes of the decoder at
        every observer point of the first `trials` trials at seed 0. A change
        that moves a weight without flipping a decision leaves the result
        pins alone but changes this one."""
        h = hashlib.sha256()

        def observe(kind, stage, rho, frame):
            h.update(f"{kind}:{rho.layout.alpha_bits},{rho.layout.beta_bits}\n".encode())
            if decoder == "sparse":
                h.update(rho.labels.tobytes())
            h.update(rho.weights.tobytes())

        cfg = ProtocolConfig(p=p, trials=trials, max_gates=max_gates, decoder=decoder, seed=0)
        for i in range(cfg.trials):
            run_trial(cfg, i, observe)
        assert h.hexdigest() == digest

    def test_tables_pinned(self, fam):
        """sha256 over the offline tables of family15(): the cleanable labels
        with their representatives, the T-gate mask and Gamma bytes, and
        every cleanable coset's propagation data. A faster build must leave
        it unchanged."""

        def words(values) -> str:
            return ",".join(str(int(v)) for v in values)

        h = hashlib.sha256()
        cleanable = sorted(fam.table.cleanable)
        for alpha in cleanable:
            h.update(f"{alpha}:{fam.table.rep(alpha)}\n".encode())
        h.update(fam.t_update.cleanable_mask.tobytes())
        h.update(fam.t_update.gamma_hat.tobytes())
        for alpha in cleanable:
            cp = fam.prop.coset(alpha)
            h.update(f"{words(cp.positions)};{words(cp.radical)};{cp.particular};"
                     f"{words(cp.kernel)}\n".encode())
        assert h.hexdigest() == "83d9627204830a1d6f9aec828748a357db27d00154cffef979efa9d0a116b95c"

    def test_trials_independent_of_batching(self):
        cfg = ProtocolConfig(p=0.02, trials=4, max_gates=200, decoder="sparse", seed=12)
        serial = run_trials(cfg)
        individually = [run_trial(cfg, i) for i in range(4)]
        assert serial == individually


class TestGateAccounting:
    def test_one_gate_per_round_at_low_noise(self):
        cfg = ProtocolConfig(p=1e-3, trials=4, max_gates=400, decoder="sparse", seed=13)
        results = run_trials(cfg)
        gates = sum(r.gates_implemented for r in results)
        rounds = sum(r.rounds for r in results)
        assert gates / rounds >= 0.9

    def test_online_state_is_bounded(self):
        # The decoder support must stay bounded across a long run: the
        # per-round working set cannot grow with history.
        sizes = []

        def observer(kind, stage, rho, frame):
            sizes.append(rho.support_size())

        cfg = ProtocolConfig(p=0.005, trials=1, max_gates=400, decoder="sparse", seed=14)
        run_trial(cfg, 0, observer=observer)
        assert len(sizes) >= 100
        early = max(sizes[: len(sizes) // 4])
        late = max(sizes[len(sizes) // 2 :])
        assert late <= max(4 * early, 200)


class TestEstimator:
    def test_all_failures_at_fifty(self):
        results = [TrialResult(50, "logical_error", 0, 100) for _ in range(10)]
        cfg = ProtocolConfig(p=0.01, trials=10)
        est = estimate_pl(cfg, results)
        assert est.p_l == pytest.approx(0.02)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_censored_trials_excluded(self):
        results = [TrialResult(100, "max_gates_reached", 0, 200) for _ in range(3)]
        results += [TrialResult(20, "logical_error", 1, 40) for _ in range(3)]
        cfg = ProtocolConfig(p=0.01, trials=6)
        est = estimate_pl(cfg, results)
        assert est.p_l == pytest.approx(1 / 20)
        assert est.n_censored == 3

    def test_geometric_rate_counts_censored_gates(self):
        # Same sample: 3 failures over 3 * 100 + 3 * 20 gates, plus a
        # retry-limit trial that adds gates but no failure.
        results = [TrialResult(100, "max_gates_reached", 0, 200) for _ in range(3)]
        results += [TrialResult(20, "logical_error", 1, 40) for _ in range(3)]
        assert estimate_pl(ProtocolConfig(p=0.01, trials=6), results).p_l_geometric == 3 / 360
        est = estimate_pl(ProtocolConfig(p=0.01, trials=7),
                          results + [TrialResult(40, "retry_limit", 101, 90)])
        assert est.p_l_geometric == 3 / 400
        assert est.n_retry_limit == 1
        assert est.csv_row()["n_retry_limit"] == 1

    def test_no_failures_upper_bound(self):
        results = [TrialResult(100, "max_gates_reached", 0, 200) for _ in range(4)]
        cfg = ProtocolConfig(p=0.0, trials=4)
        est = estimate_pl(cfg, results)
        assert est.p_l is None
        assert est.p_l_upper == pytest.approx(0.01)

    def test_jackknife_on_known_sample(self):
        values = [40, 50, 60]
        se = jackknife_inverse_mean(values)
        assert 0 < se < 0.01

    def test_jackknife_zero_leave_one_out_sum(self):
        # Dropping the 4 leaves a mean of 0, so that estimate of 1/mean is inf.
        assert jackknife_inverse_mean([0, 4]) == float("inf")
        assert math.isnan(jackknife_inverse_mean([0, 0, 0]))

    def test_failures_before_the_first_gate(self):
        results = [TrialResult(0, "logical_error", 0, 1) for _ in range(3)]
        est = estimate_pl(ProtocolConfig(p=0.5, trials=3), results)
        assert est.p_l == float("inf")
        assert math.isnan(est.stderr)

    def test_wall_time_excludes_the_precompute(self, monkeypatch):
        build = protocol.Family15.__init__

        def slow_build(self):
            time.sleep(1.0)
            build(self)

        monkeypatch.setattr(protocol.Family15, "__init__", slow_build)
        family15.cache_clear()
        est = estimate_pl(ProtocolConfig(p=0.0, trials=1, max_gates=2))
        assert est.wall_seconds < 1.0

    def test_config_hash_ignores_worker_count(self):
        cfg = ProtocolConfig(p=0.01, trials=10, threads=1)
        assert cfg.hash() == dataclasses.replace(cfg, threads=2).hash()
        assert cfg.hash() != dataclasses.replace(cfg, p=0.02).hash()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(p=1.5, trials=1)
        with pytest.raises(ValueError):
            ProtocolConfig(p=0.1, trials=0)
        with pytest.raises(ValueError):
            ProtocolConfig(p=0.1, trials=1, decoder="magic")
        with pytest.raises(ValueError, match="max_gates"):
            ProtocolConfig(p=0.1, trials=1, max_gates=0)
        with pytest.raises(ValueError, match="eps"):
            ProtocolConfig(p=0.1, trials=1, eps=-1.0)
        with pytest.raises(ValueError, match="max_retry_rounds"):
            ProtocolConfig(p=0.1, trials=1, max_retry_rounds=-1)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            ProtocolConfig(p=0.1, trials=1, seed=-1)
        assert ProtocolConfig(p=0.1, trials=1, seed=0).seed == 0


class TestRetryPath:
    def test_retries_recorded(self):
        # At a high error rate syndrome tests fail often; retries must be
        # counted and trials still terminate by a test.
        cfg = ProtocolConfig(p=0.05, trials=5, max_gates=100, decoder="sparse", seed=15)
        results = run_trials(cfg)
        assert any(r.retries > 0 for r in results)
        assert all(
            r.termination in ("logical_error", "cleanability_failure", "max_gates_reached", "retry_limit")
            for r in results
        )

    def test_retry_limit_cap(self):
        cfg = ProtocolConfig(
            p=0.4, trials=3, max_gates=100, decoder="sparse", seed=16, max_retry_rounds=5
        )
        results = run_trials(cfg)
        for r in results:
            if r.termination == "retry_limit":
                assert r.retries >= 5
        assert all(r.gates_implemented <= 100 for r in results)
