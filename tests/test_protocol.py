import concurrent.futures
import dataclasses
import functools
import hashlib
import math
import os
import time

import numpy as np
import pytest

import oracles
from dccsim import decoder, noise, protocol
from dccsim.noise import CLIFFORD_CLASSES, PauliFrame
from dccsim.protocol import (
    ProtocolConfig,
    TrialResult,
    estimate_pl,
    family15,
    jackknife_ratio,
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
        # The syndrome maps read at the frame's label must reproduce the
        # qubit-level measurement of the generators, on both codes. Both
        # sides are linear in the frame, so the 30 unit frames cover every
        # frame; random frames check that linearity.
        units = [PauliFrame(1 << j, 0) for j in range(15)] + [PauliFrame(0, 1 << j) for j in range(15)]
        rng = np.random.default_rng(0)
        randoms = [PauliFrame(int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15)))
                   for _ in range(100)]
        for frame in units + randoms:
            assert fam.ideal_c_syndromes(frame) == oracles.ideal_c_syndromes(fam, frame)
            assert fam.ideal_t_syndromes(frame) == oracles.ideal_t_syndromes(fam, frame)
        assert any(oracles.ideal_c_syndromes(fam, f) for f in units)
        assert any(oracles.ideal_t_syndromes(fam, f) for f in units)

    def test_frame_tables_equal_the_label_map(self, fam):
        """Every X part and every Z part of every stage, against one parity
        per label row."""
        for stage in fam.stages.values():
            cm = stage.code.coset_map
            parts = range(1 << 15)
            assert cm.x_labels.tolist() == [oracles.label_x(cm, a) for a in parts]
            assert cm.z_labels.tolist() == [oracles.label_z(cm, b) for b in parts]
            assert [stage.frame_label(PauliFrame(a, a ^ 0x5A5A)) for a in parts[::97]] == \
                [oracles.label(cm, a, a ^ 0x5A5A) for a in parts[::97]]

    def test_logical_labels_are_those_of_the_logical_operators(self, fam):
        ones = (1 << 15) - 1
        for stage in fam.stages.values():
            cm = stage.code.coset_map
            logical_x, logical_z = oracles.label(cm, ones, 0), oracles.label(cm, 0, ones)
            assert stage.nontrivial_logical_labels == {logical_x, logical_z, logical_x ^ logical_z}

    def test_logical_labels_invisible_to_syndromes(self, fam):
        for stage, smap in ((fam.c_stage, fam.m_c), (fam.t_stage, fam.m_t)):
            for label in stage.nontrivial_logical_labels:
                syn = smap.table[label]
                assert syn == 0
                assert label != 0

    def test_recovery_section(self, fam):
        cm = fam.t_stage.code.coset_map
        for alpha in (0, 1, 0b101, 0b11111111111):
            assert oracles.label_x(cm, fam.recovery_vector(alpha)) == alpha

    def test_gauge_equivalent_frames_share_labels(self, fam):
        rng = np.random.default_rng(1)
        code = fam.t_stage.code
        gauge_x = code.b_space.dot_space().element_array().tolist()
        gauge_z = code.a_space.dot_space().element_array().tolist()
        for _ in range(50):
            a, b = int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15))
            ga = rng.choice(gauge_x)
            gb = rng.choice(gauge_z)
            assert code.coset_map.label(a, b) == code.coset_map.label(a ^ ga, b ^ gb)


def reachable_arrays(roots: dict[str, object]) -> dict[str, np.ndarray]:
    """Every ndarray reachable from the roots, by the first path that reaches
    it: through the attributes and slots of dccsim objects, with each cached
    property computed first, and through the items of tuples, lists, sets
    and dicts (keys and values)."""
    found, seen = {}, set()
    stack = list(roots.items())
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[path] = obj
        elif isinstance(obj, dict):
            stack += [(f"{path}[{k!r}]", v) for k, v in obj.items()]
            stack += [(f"{path}.keys()", k) for k in obj]
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack += [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
        elif type(obj).__module__.startswith("dccsim."):
            for cls in type(obj).__mro__:
                for name, attr in vars(cls).items():
                    if isinstance(attr, functools.cached_property):
                        getattr(obj, name)
                    elif name == "__slots__":
                        stack += [(f"{path}.{s}", getattr(obj, s)) for s in attr
                                  if s != "__dict__" and hasattr(obj, s)]
            stack += [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    return found


class TestSharedTables:
    """The label tables and the decoder's cached inputs are shared by every
    later trial in the process, so each is built once and none is writable."""

    def test_label_tables_built_once_per_row_set(self, fam):
        t_cm, base_cm, c_cm = (fam.stages[name].code.coset_map for name in ("t", "base", "c"))
        assert base_cm.z_labels is t_cm.z_labels  # both read rows_t
        assert c_cm.z_labels is c_cm.x_labels is base_cm.x_labels  # all read rows_c
        assert len({id(cm.x_labels) for cm in (t_cm, base_cm, c_cm)}
                   | {id(cm.z_labels) for cm in (t_cm, base_cm, c_cm)}) == 3

    def test_every_shared_array_is_read_only(self, fam):
        p = 0.02
        for engine in ("sparse", "exact"):
            run_trial(ProtocolConfig(p=p, trials=1, decoder=engine), 0)
        base_cm, c_layout = fam.base_stage.code.coset_map, fam.c_stage.layout
        roots: dict[str, object] = {"family15()": fam}
        for rnd in fam.rounds:
            roots[f"_split_syndrome_tables({rnd.kind})"] = decoder._split_syndrome_tables(
                rnd.split, rnd.syndrome, p)
            roots[f"_mismatch_factors({rnd.kind})"] = decoder._mismatch_factors(rnd.syndrome.width, p)
        for action in CLIFFORD_CLASSES:
            roots[f"_clifford_image({action.name})"] = decoder._clifford_image(c_layout, action)
            roots[f"_clifford_preimage({action.name})"] = decoder._clifford_preimage(c_layout, action)
        for engine in (decoder.DenseLikelihood, decoder.SparseLikelihood):
            roots[f"{engine.__name__}.memory_input"] = engine.memory_input(base_cm, p)
        arrays = reachable_arrays(roots)
        assert len(arrays) > 40
        assert [path for path, array in sorted(arrays.items()) if array.flags.writeable] == []


class TestSyndromeTest:
    def test_masks_match_the_face_loop(self, fam):
        # Words over c_bits | t_bits << 14, every one of weight <= 2 and
        # 10 000 random ones. Two different kernels of codimension <= 6
        # disagree on at least 1/128 of all words, so the random words catch
        # any mask set that differs from the loop.
        c_width = fam.m_c.width
        width = c_width + fam.m_t.width
        low = [0] + [1 << i for i in range(width)]
        low += [(1 << i) | (1 << j) for i in range(width) for j in range(i)]
        rng = np.random.default_rng(3)
        words = low + [int(w) for w in rng.integers(0, 1 << width, size=10_000)]
        for action in CLIFFORD_CLASSES:
            for w in words:
                c_bits, t_bits = w & ((1 << c_width) - 1), w >> c_width
                assert syndrome_test(fam, c_bits, t_bits, action) == \
                    oracles.syndrome_test(fam, c_bits, t_bits, action)

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
                frame = PauliFrame(a=1 << j, b=0)
                t_bits = fam.ideal_t_syndromes(frame)
                assert t_bits != 0
                assert not syndrome_test(fam, 0, t_bits, action)

    def test_x_fault_on_final_qubit_invisible(self, fam):
        # The final-block qubit touches no double edge; the pair test cannot
        # see it (it is caught by later face measurements instead).
        frame = PauliFrame(a=1 << 14, b=0)
        assert fam.ideal_t_syndromes(frame) == 0
        assert syndrome_test(fam, 0, 0, IDENTITY)

    def test_consistent_error_passes(self, fam):
        # A persistent error present before the C-round measurement is seen
        # consistently by both rounds and must pass, for every gate class.
        rng = np.random.default_rng(2)
        for _ in range(200):
            action = CLIFFORD_CLASSES[int(rng.integers(0, 6))]
            frame = PauliFrame(int(rng.integers(0, 1 << 15)), int(rng.integers(0, 1 << 15)))
            c_bits = fam.ideal_c_syndromes(frame)
            after = dataclasses.replace(frame)
            action.apply_frame(after)
            t_bits = fam.ideal_t_syndromes(after)
            assert syndrome_test(fam, c_bits, t_bits, action)


class TestLogicalErrorTest:
    def test_exact_match_passes(self, fam):
        assert logical_error_test(0, 0, fam.t_stage)

    def test_pure_gauge_frame_passes(self, fam):
        frame = PauliFrame(a=fam.t_stage.code.a_space.element_array().tolist()[0], b=0)
        assert fam.t_stage.frame_label(frame) == 0

    def test_logical_difference_fails(self, fam):
        stage = fam.t_stage
        for delta in stage.nontrivial_logical_labels:
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

    def test_stabilizer_twirl_changes_no_result(self, monkeypatch):
        # The twirl multiplies the frame's X part by an element of A, which
        # no label reads: drawn but not applied, it leaves every result.
        configs = [ProtocolConfig(p=p, trials=trials, decoder=engine, max_gates=30)
                   for engine, trials in (("sparse", 20), ("exact", 10)) for p in (0.01, 0.02)]

        def results():
            return [run_trial(config, i) for config in configs for i in range(config.trials)]

        twirled = results()
        drawn = []

        def draw_but_return_zero(space, rng):
            drawn.append(noise.random_element(space, rng))
            return 0

        monkeypatch.setattr(protocol, "random_element", draw_but_return_zero)
        assert results() == twirled
        assert sum(map(bool, drawn)) > 100

    def test_parallel_equals_serial(self, monkeypatch):
        cfg = ProtocolConfig(p=0.02, trials=6, max_gates=100, decoder="sparse", seed=21)
        serial = run_trials(cfg)
        family15()  # forked workers inherit the tables
        monkeypatch.setattr(protocol, "run_trial", _run_trial_with_pid)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers on a one-core host too
        pids, parallel = zip(*run_trials(dataclasses.replace(cfg, threads=2)))
        assert list(parallel) == serial
        assert len(set(pids)) == 2, "the trials did not reach both workers"

    def test_workers_capped_at_cores(self, monkeypatch):
        # The pool is an in-process recorder, so no process starts.
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cfg = ProtocolConfig(p=0.02, trials=64, max_gates=2, decoder="sparse", seed=3)
        serial = run_trials(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_trials(dataclasses.replace(cfg, threads=64)) == serial
        assert asked == [2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
        assert run_trials(dataclasses.replace(cfg, threads=64)) == serial
        assert asked == [2]

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
        ("sparse", 0.005, 20, "e4149b5de286cf35e90ad388ab26d489a6e54fd0790f31dd9a3fd5927425ef3f", 30),
        ("sparse", 0.02, 2, "67297e7c247f22cc4387536a8399be62b30e96e24c3d06333822d734216c3e80", 30),
        # Memory's shifts collide on most labels at this p.
        ("sparse", 0.3, 20, "7fd7f3661f002f11547b3537edb48bc371b0b918190acb86b4b50e2b0ac2864d", 3),
        # Many labels are candidates for truncation at this p.
        ("sparse", 0.1, 5, "0271a0812dc1cbf96642e46c4d7117d928618cf0a1da3edf79d907e891ba3b73", 10),
        # Supports of a few labels.
        ("sparse", 0.001, 50, "150fa18123d10fc683e052bd66abf51cb33435228a74d9264bdeb1e8c39cb6f3", 30),
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
            cp, radical = fam.prop.coset(alpha), oracles.radical(fam.prop, alpha)
            h.update(f"{words(cp.positions)};{words(radical)};{cp.particular};"
                     f"{words(cp.kernel)}\n".encode())
        assert h.hexdigest() == "83d9627204830a1d6f9aec828748a357db27d00154cffef979efa9d0a116b95c"

    def test_trials_independent_of_batching(self):
        cfg = ProtocolConfig(p=0.02, trials=4, max_gates=200, decoder="sparse", seed=12)
        serial = run_trials(cfg)
        individually = [run_trial(cfg, i) for i in range(4)]
        assert serial == individually


def single_faults(fam, rounds):
    """Every single fault of the given rounds, as (round, (a, b), flip): an
    X, Y or Z on one of the 15 qubits, or one flipped syndrome bit. Before
    its fault a trial is noiseless and passes every pair, so the rounds
    alternate C, T from round 0."""
    for r in rounds:
        for q in range(protocol.N_QUBITS):
            for error in ((1 << q, 0), (1 << q, 1 << q), (0, 1 << q)):
                yield r, error, 0
        for bit in range(fam.rounds[r % 2].syndrome.width):
            yield r, (0, 0), 1 << bit


class TestSingleFaults:
    """No single fault ends a trial: the decoder corrects every one-qubit
    error and every flipped syndrome bit of rounds 0-7, and the trial runs
    to its gate cap. Along those runs the two engines decide alike."""

    @staticmethod
    def run_faults(monkeypatch, engine, faults, p=0.01, observer=None):
        """The TrialResult of each fault's trial (seed 0, a cap of 24 gates,
        trial index = fault index). An observer is called with the fault
        ahead of run_trial's observer arguments."""
        fault = [0, (0, 0), 0]
        calls = {"memory": 0, "flip": 0}

        def memory_error(p, n, rng):
            calls["memory"] += 1
            return fault[1] if calls["memory"] - 1 == fault[0] else (0, 0)

        def flip(q, bits, width, rng):
            calls["flip"] += 1
            return bits ^ fault[2] if calls["flip"] - 1 == fault[0] else bits

        monkeypatch.setattr(protocol, "sample_memory_error", memory_error)
        monkeypatch.setattr(protocol, "flip_syndrome", flip)
        cfg = ProtocolConfig(p=p, trials=1, max_gates=24, decoder=engine, seed=0)
        results = {}
        for i, f in enumerate(faults):
            fault[:] = f
            calls.update(memory=0, flip=0)
            round_observer = functools.partial(observer, f) if observer else None
            results[f] = run_trial(cfg, i, observer=round_observer)
            assert calls["memory"] > f[0] and calls["flip"] > f[0]
        return results

    @classmethod
    def run_engines(cls, monkeypatch, fam, p):
        """Both engines on the 452 single faults of rounds 0-7 at p: the
        TrialResults by engine, and by engine and fault each round's kind,
        final_coset() and, on the sparse engine, tie set."""
        picks = {}

        def record(engine, f, kind, stage, rho, frame):
            tied = set(rho.labels[decoder._tied(rho.weights)].tolist()) if engine == "sparse" else None
            picks.setdefault((engine, f), []).append((kind, rho.final_coset(), tied))

        faults = list(single_faults(fam, range(8)))
        results = {engine: cls.run_faults(monkeypatch, engine, faults, p,
                                          observer=functools.partial(record, engine))
                   for engine in ("exact", "sparse")}
        return results, picks

    @pytest.fixture(scope="class")
    def runs_at_p_0_01(self, fam):
        """run_engines at p = 0.01, shared by the tests that read it."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            return self.run_engines(monkeypatch, fam, 0.01)

    @staticmethod
    def differing_rounds(fam, results, picks):
        """Assert that the engines give the same TrialResult on every fault
        and that their argmax sequences differ in at most one round of a
        run, a T round; return each differing round's exact pick and
        sparse tie set."""
        assert results["exact"] == results["sparse"]
        differing = []
        for f in single_faults(fam, range(8)):
            exact, sparse = picks["exact", f], picks["sparse", f]
            assert [kind for kind, _, _ in exact] == [kind for kind, _, _ in sparse]
            rounds = [(kind, x, tied) for (kind, x, _), (_, s, tied) in zip(exact, sparse) if x != s]
            assert len(rounds) <= 1, f
            assert all(kind == "T" for kind, _, _ in rounds), f
            differing += [(x, tied) for _, x, tied in rounds]
        return differing

    @pytest.mark.parametrize("engine, rounds, count",
                             [("sparse", range(8), 452), ("exact", range(2, 4), 113)],
                             ids=["sparse", "exact"])
    def test_no_single_fault_ends_a_trial(self, monkeypatch, fam, runs_at_p_0_01, engine, rounds,
                                          count):
        if engine == "sparse":  # the same faults, seed, cap and p as run_engines at p = 0.01
            results = runs_at_p_0_01[0]["sparse"]
        else:
            results = self.run_faults(monkeypatch, engine, list(single_faults(fam, rounds)))
        assert len(results) == count
        assert {f: r.termination for f, r in results.items()
                if r.termination != "max_gates_reached"} == {}

    def test_engines_decide_alike(self, monkeypatch, fam):
        """At p = 0.001 both engines give the same TrialResult on each of
        the 452 faults, and their argmax sequences differ in at most one
        round of a run: a T round in which the exact engine's pick is tied
        with the sparse maximum. The count of such runs is pinned, so a
        change to either engine's model or tie rule shows here."""
        differing = self.differing_rounds(fam, *self.run_engines(monkeypatch, fam, 0.001))
        assert all(x in tied for x, tied in differing)
        assert len(differing) == 77

    def test_engines_decide_alike_at_p_0_01(self, fam, runs_at_p_0_01):
        """At p = 0.01 the TrialResults are equal too and the runs differ in
        at most one T round each, but the sparse model's second-order gap
        shows: of the 45 differing runs only 25 are explained by a tie."""
        differing = self.differing_rounds(fam, *runs_at_p_0_01)
        assert len(differing) == 45
        assert sum(x in tied for x, tied in differing) == 25


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

    def test_censored_gates_count(self):
        # 3 failures over 3 * 100 censored + 3 * 20 failing gates; a
        # retry-limit trial adds its 40 gates but no failure.
        results = [TrialResult(100, "max_gates_reached", 0, 200) for _ in range(3)]
        results += [TrialResult(20, "logical_error", 1, 40) for _ in range(3)]
        est = estimate_pl(ProtocolConfig(p=0.01, trials=6), results)
        assert est.p_l == 3 / 360
        assert est.n_censored == 3
        est = estimate_pl(ProtocolConfig(p=0.01, trials=7),
                          results + [TrialResult(40, "retry_limit", 101, 90)])
        assert est.p_l == 3 / 400
        assert est.n_retry_limit == 1
        assert est.csv_row()["n_retry_limit"] == 1

    def test_no_failures_upper_bound(self):
        results = [TrialResult(100, "max_gates_reached", 0, 200) for _ in range(4)]
        cfg = ProtocolConfig(p=0.0, trials=4)
        est = estimate_pl(cfg, results)
        assert est.p_l is None

    def test_jackknife_on_known_sample(self):
        # With every f_i = 1 the leave-one-out ratio is (n - 1) / (G - g_i),
        # the inverse of the leave-one-out mean of the gates.
        gates = [40, 50, 60]
        leave_out = [2 / (150 - g) for g in gates]
        mean = sum(leave_out) / 3
        expected = math.sqrt(2 / 3 * sum((t - mean) ** 2 for t in leave_out))
        assert 0 < expected < 0.01
        assert jackknife_ratio([1, 1, 1], gates) == pytest.approx(expected, rel=1e-15)

    def test_jackknife_counts_trials_without_a_failure(self):
        # Leaving out the censored trial gives 1 / 10, leaving out the
        # failing one 0 / 30: a jackknife error of 0.05 about 1 / 40.
        assert jackknife_ratio([1, 0], [10, 30]) == pytest.approx(0.05, rel=1e-12)

    def test_jackknife_when_one_trial_holds_every_gate(self):
        # Dropping the 4 leaves no gate, so that estimate of the ratio is
        # inf (or 0 / 0 when it also drops every failure).
        assert jackknife_ratio([1, 1], [0, 4]) == float("inf")
        assert jackknife_ratio([1, 0, 0], [20, 0, 0]) == float("inf")
        assert math.isnan(jackknife_ratio([1, 1, 1], [0, 0, 0]))
        assert math.isnan(jackknife_ratio([1], [5]))

    def test_one_trial_with_every_gate_estimates_without_raising(self):
        # The failing trial holds every gate, so leaving it out leaves none.
        results = [TrialResult(7, "logical_error", 0, 20)]
        results += [TrialResult(0, "retry_limit", 101, 101) for _ in range(2)]
        est = estimate_pl(ProtocolConfig(p=0.01, trials=3), results)
        assert est.p_l == 1 / 7
        assert est.stderr == float("inf")
        assert est.csv_row()["stderr"] == "inf"

    def test_a_cap_that_censors_most_trials_leaves_p_l_within_its_error(self):
        # At a cap of 10 gates most of these trials are censored; 1 / mean
        # over the failing trials alone reads 0.200 there, against 0.059.
        uncapped, capped = (estimate_pl(ProtocolConfig(p=0.02, trials=300, max_gates=cap, seed=11,
                                                       threads=2))
                            for cap in (100_000, 10))
        assert uncapped.n_censored == 0 and capped.n_censored > 150
        assert abs(uncapped.p_l - capped.p_l) <= 2 * math.hypot(uncapped.stderr, capped.stderr)

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

    def test_retry_limit_cap(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_RETRY_ROUNDS", 5)
        cfg = ProtocolConfig(p=0.4, trials=3, max_gates=100, decoder="sparse", seed=16)
        results = run_trials(cfg)
        for r in results:
            if r.termination == "retry_limit":
                assert r.retries >= 5
        assert all(r.gates_implemented <= 100 for r in results)
