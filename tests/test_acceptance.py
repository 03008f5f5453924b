"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
(14, 15) take a few minutes; everything else completes in seconds.
"""

import math
import random

import numpy as np
import pytest

from dccsim import f2
from dccsim.codefamily import build_doubled, build_gadget_codes, double, qubit_counts, subdivide_link
from dccsim.csscode import EvennessWitness, check_evenness
from dccsim.decoder import DenseLikelihood, LabelLayout, SparseLikelihood, gamma_hat_direct
from dccsim.f2 import Subspace, min_odd_weight
from dccsim.lattice import build_lattice, face_space
from dccsim.noise import PauliFrame, p_f_given_e, p_f_given_e_charsum
from dccsim.protocol import ProtocolConfig, estimate_pl, family15, run_trial, syndrome_test
from dccsim.noise import CLIFFORD_CLASSES

from test_codefamily import brute_distance, random_even_space
from test_decoder import direct_memory_convolution, transformed


def report(number: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def fam():
    return family15()


@pytest.fixture(scope="module")
def sparse_p01():
    cfg = ProtocolConfig(p=0.01, trials=400, decoder="sparse", seed=2024)
    return estimate_pl(cfg)


def test_c01_steane():
    lat = build_lattice(1)
    s = face_space(lat)
    ok = (
        min_odd_weight(s) == 3
        and s.dot_space() == s
        and check_evenness(s, EvennessWitness(lat.delta0, lat.delta2, 4))
        and lat.delta0.bit_count() - lat.delta2.bit_count() == 1
    )
    report(1, "Steane: d=3, dot-self-dual, doubly even, class imbalance 1", ok)


def test_c02_fifteen_qubit():
    d = build_doubled(1)
    weights_ok = all(v.bit_count() % 8 == 0 for v in d.t_space.elements())
    ok = (
        d.t_space.dim == 4
        and weights_ok
        and min_odd_weight(d.t_space) == 3
        and min_odd_weight(d.dot_t_space) == 7
    )
    report(2, "15-qubit code: dim 4, weights = 0 mod 8, d=3, dot-distance 7", ok)


def test_c03_cleanable_cosets(fam):
    ok = len(fam.table.cleanable) == 996
    report(3, "exactly 996 cleanable cosets", ok)


def test_c04_inclusion_chain_and_bc_identity():
    d = build_doubled(1)
    lat = d.lattices[1]
    chain = (
        d.c_space.contains_subspace(d.t_space)
        and d.c_space.dot_space() == d.c_space
        and d.dot_t_space.contains_subspace(d.c_space)
    )
    omega = lat.boundary_bits(1)
    face = omega ^ ((1 << 7) - 1)
    bc = d.layout.embed((1 << 7) - 1, "B1") | d.layout.embed(1, "A0")
    extra_face = d.layout.embed(omega, "B1") | d.layout.embed(1, "A0")
    identity = face in face_space(lat) and bc == d.layout.embed(face, "B1") ^ extra_face
    report(4, "inclusion chain and the block-line identity", chain and identity)


def test_c05_doubling_distance_law():
    rng = random.Random(1)
    done = 0
    ok = True
    while done < 100:
        m = rng.choice([5, 7, 9])
        n = rng.choice([3, 5, 9])
        s = random_even_space(rng, m, rng.randrange(1, m))
        t = random_even_space(rng, n, rng.randrange(1, n))
        u = double(s, t)
        if u.n - u.dim > 20:
            continue
        ok = ok and brute_distance(u) == min(brute_distance(s), brute_distance(t) + 2)
        done += 1
    report(5, "doubling distance law on 100 random instances vs brute force", ok)


def test_c06_subdivision_gadget():
    rng = random.Random(2)
    done = 0
    ok = True
    while done < 50:
        n = rng.choice([9, 11, 13])
        rows = []
        for _ in range((n - 3) // 2):
            v = rng.getrandbits(n - 2) << 2
            v |= 0b11 if rng.random() < 0.5 else 0
            if v.bit_count() % 2:
                v ^= 1 << rng.randrange(2, n)
            if v.bit_count() % 2 == 0 and not any(f2.dot(v, r) for r in rows):
                rows.append(v)
        u = Subspace(n, rows)
        if u.dim == 0 or not u.dot_space().contains_subspace(u):
            continue
        if not u.dot_space().contains(0b11):
            continue
        du = brute_distance(u)
        if du is None or du < 3:
            continue
        v_space = subdivide_link(u.dot_space(), 0, 1).dot_space()
        ok = ok and brute_distance(v_space) == du
        w = EvennessWitness.from_sites(range(n), [], 4)
        if check_evenness(u, w):
            ok = ok and check_evenness(v_space, w)
        done += 1
    report(6, "subdivision gadget preserves distance and evenness on 50 instances", ok)


def test_c07_t2_sizes_witness_distance():
    d = build_doubled(2)
    ok = d.n == 53
    ok = ok and d.witness_t.m == 1
    ok = ok and check_evenness(d.t_space, d.witness_t)
    ok = ok and min_odd_weight(d.t_space, max_weight=3) is None
    tail_omega = d.lattices[1].boundary_bits(2)
    witness = (1 << d.layout.offset("A2")) | (1 << d.layout.offset("B2"))
    witness |= tail_omega << d.layout.offset("A1")
    ok = ok and witness.bit_count() == 5
    ok = ok and all(not f2.dot(witness, row) for row in d.t_space.basis)
    final = build_gadget_codes(2, "final")
    ok = ok and final.n == 59 and qubit_counts(2)["final"] == 59
    report(7, "t=2: n=53, witness recursion, d=5, final qubit count 59", ok)


def test_c08_wht_memory_vs_direct_convolution():
    rng = np.random.default_rng(3)
    worst = 0.0
    for c in range(2, 11):
        layout = LabelLayout(c, 0)
        start = rng.random(1 << c)
        dist = rng.random(1 << c)
        dist /= dist.sum()
        rho = DenseLikelihood(layout, start.copy())
        rho.apply_memory(transformed(dist))
        expect = direct_memory_convolution(start, dist)
        worst = max(worst, float(np.max(np.abs(rho.normalized() - expect / expect.sum()))))
    report(8, f"memory update vs direct convolution, c <= 10 (max dev {worst:.2e})", worst <= 1e-10)


def test_c09_gamma_hat_vs_direct(fam):
    code = fam.t_stage.code
    worst = 0.0
    for alpha in sorted(fam.table.cleanable):
        for beta in range(32):
            direct = gamma_hat_direct(code, fam.prop, alpha, beta)
            worst = max(worst, abs(fam.t_update.gamma_hat[beta, alpha] - direct))
    report(9, f"transformed T diagonal vs direct sum, all cosets (max dev {worst:.2e})", worst <= 1e-10)


def test_c10_propagation_distribution(fam):
    worst = 0.0
    ok = True
    for alpha in sorted(fam.table.cleanable):
        prod = p_f_given_e(fam.prop, alpha)
        char = p_f_given_e_charsum(fam.prop, alpha)
        ok = ok and abs(sum(prod.values()) - 1.0) <= 1e-12
        ok = ok and all(v >= 0 for v in prod.values())
        for k in set(prod) | set(char):
            worst = max(worst, abs(prod.get(k, 0.0) - char.get(k, 0.0)))
    report(10, f"propagation distribution: product = character sum (max dev {worst:.2e})",
           ok and worst <= 1e-12)


def test_c11_bayes_posterior(fam):
    rng = np.random.default_rng(4)
    layout = fam.t_stage.layout
    shifts, raw_w = SparseLikelihood.memory_input(fam.t_stage.code.coset_map, 0.01)
    probs = raw_w / raw_w.sum()
    q = 0.02
    smap = fam.m_t
    worst = 0.0
    for _ in range(3):
        s1 = int(rng.integers(0, 1 << smap.width))
        s2 = int(rng.integers(0, 1 << smap.width))
        posterior = np.zeros(layout.size)
        syn = smap.table[shifts]
        for e1, w1, y1 in zip(shifts, probs, syn):
            m1 = int(y1 ^ s1).bit_count()
            like1 = q**m1 * (1 - q) ** (smap.width - m1)
            for e2, w2 in zip(shifts, probs):
                f_final = int(e1 ^ e2)
                y2 = smap.table[f_final]
                m2 = int(y2 ^ s2).bit_count()
                posterior[f_final] += w1 * like1 * w2 * q**m2 * (1 - q) ** (smap.width - m2)
        posterior /= posterior.sum()
        dense_input = np.zeros(layout.size)
        np.add.at(dense_input, shifts, probs)
        p_hat = dense_input
        f2.fwht(p_hat)
        rho = DenseLikelihood(layout)
        rho.apply_memory(p_hat)
        rho.apply_syndrome(smap, s1, q)
        rho.apply_memory(p_hat)
        rho.apply_syndrome(smap, s2, q)
        worst = max(worst, float(np.max(np.abs(rho.normalized() - posterior))))
    report(11, f"dense posterior vs brute-force history enumeration (max dev {worst:.2e})",
           worst <= 1e-9)


def test_c12_noiseless_invariance():
    ok = True
    for engine in ("sparse", "exact"):
        strict = {"ok": True}

        def observer(kind, stage, rho, frame):
            if rho.final_coset() != stage.frame_label(frame) or stage.frame_label(frame) != 0:
                strict["ok"] = False

        cfg = ProtocolConfig(p=0.0, trials=1, max_gates=1000, decoder=engine, seed=6)
        result = run_trial(cfg, 0, observer=observer)
        ok = ok and result.termination == "max_gates_reached"
        ok = ok and result.gates_implemented == 1000
        ok = ok and result.retries == 0
        ok = ok and strict["ok"]
    report(12, "noiseless invariance: 1000 gates, both engines, exact labels", ok)


def test_c13_single_fault_completeness(fam):
    full_mix = next(c for c in CLIFFORD_CLASSES if c.p == 1 and c.r == 1)
    ok = True
    # Every single X fault between the measurement layers, on the 14 qubits
    # that touch double edges, fails the pair test under every gate class.
    for action in CLIFFORD_CLASSES:
        for j in range(14):
            frame = PauliFrame(15, a=1 << j)
            ok = ok and not syndrome_test(fam, 0, fam.ideal_t_syndromes(frame), action)
    # Every single measurement flip among the contributing bits fails: the 9
    # edge bits (any gate class), and all 12 square-face bits under a class
    # with p = r = 1. The two extra-face bits never enter the constraints.
    for l in range(9):
        ok = ok and not syndrome_test(fam, 0, 1 << l, full_mix)
    for idx in range(14):
        if idx in (6, 13):
            ok = ok and syndrome_test(fam, 1 << idx, 0, full_mix)
        else:
            ok = ok and not syndrome_test(fam, 1 << idx, 0, full_mix)
    # The final-block qubit touches no edge; its X fault is invisible to the
    # pair test (caught by later face measurements).
    ok = ok and fam.ideal_t_syndromes(PauliFrame(15, a=1 << 14)) == 0
    report(13, "single-fault completeness of the syndrome test (21 bits + 14 qubits)", ok)


@pytest.mark.slow
def test_c14_scaling_reproduction(sparse_p01):
    est1 = sparse_p01
    cfg2 = ProtocolConfig(p=0.005, trials=400, decoder="sparse", seed=2025)
    est2 = estimate_pl(cfg2)
    band = 0.9e-2 <= est1.p_l <= 3.6e-2
    ratio = est1.p_l / est2.p_l
    ratio_ok = 3.0 <= ratio <= 5.5
    report(
        14,
        f"p_L(0.01)={est1.p_l:.4g} in [0.9e-2, 3.6e-2]; ratio {ratio:.2f} in [3.0, 5.5]",
        band and ratio_ok,
    )


@pytest.mark.slow
def test_c15_dense_sparse_agreement(sparse_p01):
    cfg = ProtocolConfig(p=0.01, trials=400, decoder="exact", seed=2026)
    dense = estimate_pl(cfg)
    se = math.hypot(dense.stderr, sparse_p01.stderr)
    diff = abs(dense.p_l - sparse_p01.p_l)
    report(
        15,
        f"dense p_L={dense.p_l:.4g} vs sparse p_L={sparse_p01.p_l:.4g}, "
        f"|diff|={diff:.2g} <= 2 x combined SE {2 * se:.2g}",
        diff <= 2 * se,
    )
