"""The GF(2) and evenness kernels against the plain loops in oracles.py, on
random inputs at lengths around the 64-bit word boundary and at t = 4's n."""

import itertools
import random

import pytest

import oracles
from dccsim import f2
from dccsim.codefamily import build_doubled
from dccsim.csscode import EvennessWitness, check_evenness
from dccsim.f2 import Subspace

SIZES = (1, 15, 64, 65, 279)


def row_sets(rng: random.Random, n: int):
    """Row lists with empty, zero, duplicate and dependent rows, and sparse
    and dense random ones."""
    yield []
    yield [0, 0]
    yield [1 << (n - 1)] * 3
    yield [(1 << n) - 1]
    for _ in range(25):
        k = rng.randrange(1, min(2 * n, 90) + 1)
        density = rng.choice((0.03, 0.5))
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(k)]
        if rng.random() < 0.5:
            rows.append(0)
        if rng.random() < 0.5:
            rows.append(rows[0])
        if len(rows) > 1 and rng.random() < 0.5:
            rows.append(rows[0] ^ rows[1])
        rng.shuffle(rows)
        yield rows


@pytest.mark.parametrize("n", SIZES)
def test_rref_and_nullspace(n):
    rng = random.Random(n)
    for rows in row_sets(rng, n):
        assert f2.rref(rows, n) == oracles.rref(rows, n)
        assert f2.nullspace(rows, n) == oracles.nullspace(rows, n)


@pytest.mark.parametrize("n", SIZES)
def test_contains(n):
    rng = random.Random(100 + n)
    for rows in row_sets(rng, n):
        s = Subspace(n, rows)
        probes = [0, (1 << n) - 1] + rows + [rng.getrandbits(n) for _ in range(10)]
        probes += [v ^ (1 << rng.randrange(n)) for v in rows[:5]]
        for v in probes:
            assert s.contains(v) == oracles.contains(s, v)


@pytest.mark.parametrize("n", SIZES)
def test_bit_maps(n):
    rng = random.Random(200 + n)
    for x in [0, 1, (1 << n) - 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(200)]:
        positions = sorted(rng.sample(range(2 * n), n))
        assert f2.support(x) == oracles.support(x)
        assert f2.embed(x, positions) == oracles.embed(x, positions)
        text = f2.row_to_hex(x, n)
        assert text == oracles.row_to_hex(x, n)
        assert f2.hex_to_row(text, n) == oracles.hex_to_row(text, n) == x


@pytest.mark.parametrize("n", (1, 15, 53, 63))
def test_element_array_order(n):
    # Element i is the XOR of the basis rows at the set bits of i, so a
    # seeded draw from the array picks the vector the generator loop gave.
    rng = random.Random(300 + n)
    spaces = [Subspace(n)] + [Subspace(n, [rng.getrandbits(n) for _ in range(rng.randrange(1, 10))])
                              for _ in range(10)]
    for s in spaces:
        assert s.element_array().tolist() == list(oracles.elements(s))


class TestHexRows:
    @pytest.mark.parametrize("text", ["0xaa", " aaa", "aaa ", "-aaa", "+aaa", "a_aa", "AAAA",
                                      "aaa\n", "aaab", "aaa", "aaaaa", "", "aaag"])
    def test_malformed_row_is_rejected(self, text):
        # n = 15: four digits, the last bit of the last one padding.
        with pytest.raises(ValueError):
            f2.hex_to_row(text, 15)

    def test_non_string_is_a_type_error(self):
        with pytest.raises(TypeError):
            f2.hex_to_row(0xAAAA, 15)
        with pytest.raises(TypeError):
            f2.hex_to_row(list("aaaa"), 15)

    @pytest.mark.parametrize("bits", [1 << 15, (1 << 16) - 1, -1])
    def test_row_outside_n_bits_is_rejected(self, bits):
        with pytest.raises(ValueError):
            f2.row_to_hex(bits, 15)

    def test_every_digit_string_is_one_row(self):
        # n = 6: two digits and two padding bits, so 64 rows, 64 strings.
        texts = [f"{v:02x}" for v in range(256)]
        rows = {}
        for text in texts:
            try:
                rows[text] = f2.hex_to_row(text, 6)
            except ValueError:
                continue
        assert sorted(rows.values()) == list(range(64))
        assert all(f2.row_to_hex(row, 6) == text for text, row in rows.items())


# ---------------------------------------------------------------------------
# Evenness
# ---------------------------------------------------------------------------

def failing_stage(s: Subspace, w: EvennessWitness) -> str | None:
    """The first group of conditions the oracle's loops reject on s.basis."""
    basis = s.basis
    if any(oracles.signed_overlap(w, b) % w.order for b in basis):
        return "basis"
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    if any(oracles.signed_overlap(w, basis[i] & basis[j]) % (w.order // 2) for i, j in pairs):
        return "pair"
    if w.order == 8 and not oracles.check_evenness(s, w):
        return "triple"
    return None


def planted(rng: random.Random, n: int, blocks: list[list[int]], order: int):
    """The span of rows given as lists of abstract sites 0..m-1, placed at
    random coordinates of F2^n in the same order, with a witness of sign +1
    on those sites and -1 on some of the others. Each row's lowest site is
    in no other row, so the rows are their span's RREF basis."""
    m = 1 + max(max(block) for block in blocks)
    where = sorted(rng.sample(range(n), m))
    rows = [f2.vector_from_support(where[site] for site in block) for block in blocks]
    plus = f2.vector_from_support(where)
    minus = ((1 << n) - 1) & ~plus & rng.getrandbits(n)
    s = Subspace(n, rows)
    assert s.basis == tuple(rows)
    return s, EvennessWitness(plus, minus, order)


# Rows whose weights pass; their overlaps of 1 (order 4) and 2 (order 8) do
# not.
PAIR_FAILURES = {
    4: [[0, 2, 3, 4], [1, 4, 5, 6]],
    8: [[0, 2, 3, 4, 5, 6, 7, 8], [1, 7, 8, 9, 10, 11, 12, 13]],
}
# Three rows of weight 8 with pairwise overlaps of 4 and one common site:
# every basis and pair condition holds, and the XOR of all three has
# weight 8 + 8 + 8 - 2 * 12 + 4 = 4.
TRIPLE_FAILURE = [
    [0, 3, 4, 5, 9, 10, 11, 12],
    [1, 3, 4, 5, 6, 7, 8, 12],
    [2, 6, 7, 8, 9, 10, 11, 12],
]


@pytest.mark.parametrize("n", [15, 64, 65, 279])
def test_evenness_on_planted_failures(n):
    rng = random.Random(300 + n)
    for _ in range(20):
        cases = [(planted(rng, n, PAIR_FAILURES[order], order), "pair") for order in (4, 8)]
        cases.append((planted(rng, n, TRIPLE_FAILURE, 8), "triple"))
        for (s, w), stage in cases:
            assert failing_stage(s, w) == stage
            assert not check_evenness(s, w)
            assert not oracles.check_evenness(s, w)


@pytest.mark.parametrize("n", SIZES)
def test_evenness_on_random_spaces(n):
    rng = random.Random(400 + n)
    for rows in row_sets(rng, n):
        s = Subspace(n, rows)
        for order in (4, 8):
            plus = rng.getrandbits(n) | 1
            w = EvennessWitness(plus, rng.getrandbits(n) & ~plus, order)
            assert check_evenness(s, w) == oracles.check_evenness(s, w)


@pytest.fixture(scope="module")
def doubled_codes():
    return [build_doubled(t) for t in (1, 2)]


@pytest.mark.parametrize("n", [15, 64, 65, 279])
def test_evenness_on_perturbed_codes(n, doubled_codes):
    """The doubled codes' T and C sides with their witnesses, placed at
    random coordinates, then spoiled by a moved witness site or an extra
    row, so that every stage decides some cases."""
    rng = random.Random(500 + n)
    seen = set()
    for _ in range(60):
        code = rng.choice([d for d in doubled_codes if d.n <= n])
        where = sorted(rng.sample(range(n), code.n))
        for space, w in ((code.t_space, code.witness_t), (code.c_space, code.witness_c)):
            rows = [f2.embed(row, where) for row in space.basis]
            plus, minus = f2.embed(w.plus, where), f2.embed(w.minus, where)
            spoil = rng.randrange(3)
            if spoil == 1:  # a site leaves M+, or joins it from M- or from neither
                site = 1 << where[rng.randrange(code.n)]
                plus, minus = plus ^ site, minus & ~site
            elif spoil == 2:
                rows.append(f2.embed(rng.getrandbits(code.n), where))
            s, spoiled = Subspace(n, rows), EvennessWitness(plus, minus, w.order)
            assert check_evenness(s, spoiled) == oracles.check_evenness(s, spoiled)
            seen.add((w.order, failing_stage(s, spoiled)))
    assert {(4, None), (8, None), (4, "basis"), (8, "basis")} <= seen


def test_evenness_ignores_witness_sites_beyond_n():
    s = Subspace(7, [0b1010101, 0b1100110, 0b1111000])
    for order in (4, 8):
        w = EvennessWitness(((1 << 7) - 1) | (1 << 300), 1 << 9, order)
        assert check_evenness(s, w) == oracles.check_evenness(s, w) == (order == 4)


def block_case(rng: random.Random, index: int) -> tuple[Subspace, EvennessWitness]:
    """A seeded subspace and witness for the int form against the packed one.

    The rows are unions of blocks of 1, 2 or 4 sites, order/size blocks a
    row, pairwise disjoint or not, TRIPLE_FAILURE's rows, or plain random
    rows. The witness is +1 on the rows' sites or random, with one site
    moved to M-, sites at or above n, or no site below n at all. So the
    cases pass and fail at every group of conditions, and some overlap
    nothing.
    """
    n = rng.choice((1, 15, 63, 64, 65, 130, 279))
    order = (4, 8)[index % 2]
    size = rng.choice([b for b in (1, 2, 4) if b <= order // 2])
    sites = rng.sample(range(n), n)
    blocks = [sites[i:i + size] for i in range(0, n - size + 1, size)]
    per_row = order // size
    kind = rng.randrange(4)
    if kind == 3 and n >= 13:  # TRIPLE_FAILURE's rows: one triple meets in one site
        rows = [f2.vector_from_support(sites[j] for j in row) for row in TRIPLE_FAILURE]
    elif kind == 0 or len(blocks) < per_row:
        rows = [rng.getrandbits(n) for _ in range(rng.randrange(1, 12))]
    elif kind == 1:  # pairwise disjoint rows: every overlap is empty
        rows = [f2.vector_from_support(sum(blocks[i:i + per_row], []))
                for i in range(0, len(blocks) - per_row + 1, per_row)][:rng.randrange(1, 12)]
    else:
        rows = [f2.vector_from_support(sum(rng.sample(blocks, per_row), []))
                for _ in range(rng.randrange(1, 12))]
    used = 0
    for row in rows:
        used |= row
    plus = used if rng.random() < 0.7 else rng.getrandbits(n)
    minus = rng.getrandbits(n) & ~plus & ~used
    if rng.random() < 0.3 and plus:
        site = rng.choice(f2.support(plus))
        plus, minus = plus & ~(1 << site), minus | 1 << site
    beyond = rng.getrandbits(70) << n
    if rng.random() < 0.15:  # no witness site below n: every overlap is empty
        plus, minus = beyond | 1 << n, 0
    elif rng.random() < 0.5:
        plus, minus = plus | beyond & 0x5555 << n, minus | beyond & 0xAAAA << n
    if not plus | minus:
        plus = 1 << n
    return Subspace(n, rows), EvennessWitness(plus, minus, order)


def test_evenness_matches_the_packed_form():
    rng = random.Random(600)
    seen = set()
    for index in range(500):
        s, w = block_case(rng, index)
        assert check_evenness(s, w) == oracles.check_evenness_packed(s, w)
        seen.add((w.order, failing_stage(s, w)))
    assert seen == {(4, None), (4, "basis"), (4, "pair"),
                    (8, None), (8, "basis"), (8, "pair"), (8, "triple")}


# Order-8 bases in the abstract sites of `planted`, each failing exactly one
# condition: one row of weight 4; one pair meeting in 2 sites; and
# TRIPLE_FAILURE's three rows, whose pairwise overlaps are 4, with a third
# row beside them.
ONE_FAILURE = {
    "basis": ([[0, 3, 4, 5, 6, 7, 8, 9], [1, 10, 11, 12], [2, 13, 14, 15, 16, 17, 18, 19]],
              [("basis", 1)]),
    "pair": ([[0, 3, 4, 5, 6, 7, 8, 9], [1, 8, 9, 10, 11, 12, 13, 14], [2, 15, 16, 17, 18, 19, 20, 21]],
             [("pair", 0, 1)]),
    "triple": (TRIPLE_FAILURE, [("triple", 0, 1, 2)]),
}


def failing_conditions(s: Subspace, w: EvennessWitness) -> list[tuple]:
    """Every basis, pair and triple condition that s.basis fails under w."""
    basis, out = s.basis, []
    for size, name, modulus in ((1, "basis", w.order), (2, "pair", w.order // 2), (3, "triple", 2)):
        if size == 3 and w.order == 4:
            break
        for combo in itertools.combinations(range(len(basis)), size):
            meet = (1 << s.n) - 1
            for i in combo:
                meet &= basis[i]
            if oracles.signed_overlap(w, meet) % modulus:
                out.append((name, *combo))
    return out


@pytest.mark.parametrize("case", sorted(ONE_FAILURE))
@pytest.mark.parametrize("n", [22, 64, 65, 279])
def test_evenness_rejects_a_single_failed_condition(n, case):
    blocks, expected = ONE_FAILURE[case]
    rng = random.Random(f"{case}-{n}")
    for _ in range(10):
        s, w = planted(rng, n, blocks, 8)
        assert failing_conditions(s, w) == expected
        assert not check_evenness(s, w)
        assert not oracles.check_evenness_packed(s, w)
