"""Maximum-likelihood decoding over gauge-group cosets.

The decoder state is a likelihood vector over the 2^c coset labels of the
current gauge group. Labels pack the X-error part in the low alpha_bits and
the Z-error part above (see csscode.CosetMap). Six update kinds drive it:

  memory     rho <- P rho, with P(f, g) = P(f + g) a coset-shift mixture.
             The dense engine conjugates by the Walsh-Hadamard transform so
             the cost is O(c 2^c); the sparse engine convolves with an
             explicit short list of shifts. Each engine builds its own input
             with memory_input(coset_map, p).
  syndrome   per-label reweighting by the bit-flip likelihood of the
             observed syndrome against the label's ideal syndrome: one
             factor per mismatch count, one multiply per weight, the same
             bytes in both engines.
  deform     merge (gauge group grows: labels project) or split (gauge group
             shrinks: labels expand uniformly over the new bits). Memory
             commutes with split, exactly: split spreads each label evenly
             over the new bits, a convolution keeps that evenness, and the
             narrow code's coset distribution is the merge of the wide one's.
             So memory before a split touches 1/2^k of the labels it would after.
  clifford   an invertible linear relabeling.
  recovery   shift of the X part by the most likely X coset.
  t_gate     projection onto cleanable X cosets followed by the per-coset
             Z-block operator Gamma, applied in the transformed basis where
             it is diagonal.

Each round ends in one online step, measure(split, smap, observed, q, eps):
split, syndrome and truncation, bit-identical to deform(split);
apply_syndrome(smap, observed, q); truncate(eps). Split and syndrome
together form a (2^k, n) grid of dropped-bit pattern and narrow label, and
the grid's entries are known from the narrow labels alone, for two reasons.
The split gives every pattern the same weight, so the split's
renormalization runs on the n narrow weights. The syndrome map is linear,
so a wide label's syndrome is the XOR of its base label's and its
pattern's, and the syndrome factors of narrow label l's entries depend only
on y = (syndrome of its base label) ^ observed. The sparse engine therefore
selects on the narrow labels, then builds the grid for the survivors: per
y, cached tables give the sum and the largest of the 2^k syndrome factors,
so the grid's sum, and with it truncation's cut, and each label's largest
entry, exactly, cost one gather each over the n labels; only the labels
whose largest entry reaches the cut are expanded, and of their entries
those that clear a narrow band around the cut are kept. The band covers every
rounding by which this differs from the rule as written (derived in
SparseLikelihood); where an entry falls inside it, or the cut is too small
for the band to hold, measure runs the three steps as written. The dense
engine renormalizes the narrow vector before it writes the split's
broadcast, for the first reason.

Weights are renormalized to max = 1 after every update (the overall scale
carries no information and would otherwise underflow over long runs). The
dense engine is exact; each of its updates touches all 2^c entries, viewed
through reshapes and broadcasts rather than per-label index arrays: a
deformation drops or inserts one run of adjacent label bits, which is the
middle axis of a (high, 2^k, low) reshape (merge sums along it, split
broadcasts along it); a syndrome depends only on the label bits its rows
read, so the factors of the labels with unread bits zero broadcast over the
unread ones; and the T update transforms only the cleanable columns, the
rest being zero. Each of these computes every entry from the same operands
with the same operations, in the same order, as the per-label form (a
bincount over merged labels, a gather of split or syndrome factors, the
full block), so the results are bit-identical to it.
The sparse engine tracks an explicit support of sorted, unique labels. It
gathers from 2^c lookup tables of the syndrome, deformation and Clifford
maps (each built once by f2.enumerate_span, and read-only), so
each of its updates is a few whole-array operations over the support; its
advantage is a support far smaller than 2^c. Within a round the support
grows before truncation cuts it back: at p = 0.005 (mean, seed 0) 26 kept
labels become 689 after memory, whose full grid would hold 5 509 entries
and of which measure builds 175; at p = 0.02 132 become 1 374, a grid of
10 995 (at most 58 496 of 65 536), and 757 built. Its
labels stay in order by two rules, a 2^c bincount where labels collide
(memory, merge) and a radix sort where they only move (split, Clifford,
recovery); see SparseLikelihood.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import f2
from .csscode import CleanabilityTable, CosetMap
from .f2 import fwht
from .noise import CLIFFORD_CLASSES, CliffordAction
from .settings import ENGINE_NAMES, DegeneratePosteriorError, NumericError

NEG_TOL = 1e-12

# Weights this close (relatively) to the maximum count as tied; ties resolve
# to the smallest label so both engines decide identically.
TIE_TOL = 1e-12


def _tied(weights: np.ndarray) -> np.ndarray:
    """Mask of the weights tied with the maximum."""
    return weights >= weights.max() * (1.0 - TIE_TOL)


def _first_tied(weights: np.ndarray) -> int:
    """Smallest index whose weight is tied with the maximum."""
    return int(np.argmax(_tied(weights)))


@dataclass(frozen=True)
class LabelLayout:
    alpha_bits: int
    beta_bits: int

    @property
    def c(self) -> int:
        return self.alpha_bits + self.beta_bits

    @property
    def size(self) -> int:
        return 1 << self.c


@lru_cache(maxsize=64)
def _clifford_image(layout: LabelLayout, action: CliffordAction) -> np.ndarray:
    """Image v f of every label f under the Clifford relabeling v: an X
    label bit goes to (p, q) on the X and Z sides, a Z label bit to (r, s)."""
    if layout.alpha_bits != layout.beta_bits:
        raise ValueError("clifford relabeling needs matching alpha/beta widths")
    shift = layout.alpha_bits
    units = [(x | z << shift) << i for x, z in ((action.p, action.q), (action.r, action.s))
             for i in range(shift)]
    return f2.enumerate_span(units, layout.c)


@lru_cache(maxsize=64)
def _clifford_preimage(layout: LabelLayout, action: CliffordAction) -> np.ndarray:
    """Label mapped onto each label by the Clifford relabeling (the inverse
    permutation, as intp): gathering through it moves every weight to its image."""
    preimage = np.argsort(_clifford_image(layout, action))
    preimage.flags.writeable = False
    return preimage


@dataclass(frozen=True)
class SyndromeMap:
    """Linear map from coset labels to ideal syndrome bits.

    rows[i] is a mask over label bits; syndrome bit i is the parity of the
    masked label. Logical labels must map to zero (measurements never read
    the encoded qubit). The dense engine reads `read_table`, a view of
    `table`.
    """

    rows: tuple[int, ...]
    layout: LabelLayout

    @property
    def width(self) -> int:
        return len(self.rows)

    @cached_property
    def table(self) -> np.ndarray:
        """The syndrome of every label, by value."""
        return f2.enumerate_span(f2.columns(self.rows, self.layout.c), self.width)

    @cached_property
    def read_table(self) -> tuple[tuple[int, ...], np.ndarray]:
        """(shape, syndromes): a shape for the 2^c labels, and the syndromes
        of the labels whose unread bits are zero, shaped to broadcast
        against it.

        The label bits split into runs of bits that some row reads and runs
        that none does; `shape` has one axis per run, highest bits first, and
        the syndromes have length 1 along the unread runs. A label's syndrome
        does not depend on its unread bits, so the broadcast gives every
        label its own syndrome.
        """
        read = 0
        for row in self.rows:
            read |= row
        bits = [(read >> k) & 1 for k in reversed(range(self.layout.c))]
        runs = [(is_read, len(list(run))) for is_read, run in itertools.groupby(bits)]
        shape = tuple(1 << length for _, length in runs)
        unread_zero = tuple(slice(None) if is_read else slice(1) for is_read, _ in runs)
        return shape, self.table.reshape(shape)[unread_zero]


@lru_cache(maxsize=16)
def _mismatch_factors(width: int, q: float) -> np.ndarray:
    """The likelihood q**m * (1 - q)**(width - m) of every mismatch count m
    between an observed and an ideal syndrome. Both engines multiply each
    weight by it in one step, so their syndrome updates agree bit for bit."""
    m = np.arange(width + 1, dtype=np.uint8)
    factors = np.power(q, m) * np.power(1.0 - q, width - m)
    factors.flags.writeable = False
    return factors


@dataclass(frozen=True)
class DeformationMap:
    """Label map across a gauge-group change between nested label bases.

    The narrow labels are the bits of the wide labels selected by `kept`,
    packed in order. merge (the gauge group grows, wide to narrow) drops the
    other bits; split (the gauge group shrinks, narrow to wide) inserts them,
    expanding each old label uniformly over their 2^k values. The dropped
    bits must form one run of adjacent bits (none for an identity map), so
    the dense engine can treat them as the middle axis of a reshape.
    """

    direction: str              # "merge" | "split"
    kept: int
    old_layout: LabelLayout
    new_layout: LabelLayout

    def __post_init__(self) -> None:
        if self.direction not in ("merge", "split"):
            raise ValueError("direction must be 'merge' or 'split'")
        if self.kept.bit_count() != self.narrow.c or self.kept >> self.wide.c:
            raise ValueError("kept mask does not match the label widths")
        dropped = self.dropped
        run = dropped // (dropped & -dropped) if dropped else 0
        if run & (run + 1):
            raise ValueError("the dropped bits are not one run of adjacent bits")

    @property
    def wide(self) -> LabelLayout:
        return self.old_layout if self.direction == "merge" else self.new_layout

    @property
    def narrow(self) -> LabelLayout:
        return self.new_layout if self.direction == "merge" else self.old_layout

    @property
    def dropped(self) -> int:
        """Mask of the wide label bits the narrow labels do not keep."""
        return (self.wide.size - 1) & ~self.kept

    @cached_property
    def run_shape(self) -> tuple[int, int, int]:
        """(2^high, 2^k, 2^low): the shape that puts the k dropped bits of a
        wide label on the middle axis, with the high and low kept bits on
        either side."""
        dropped = self.dropped
        k = dropped.bit_count()
        low = (dropped & -dropped).bit_length() - 1 if dropped else self.wide.c
        return self.wide.size >> (low + k), 1 << k, 1 << low

    @cached_property
    def dense_index(self) -> np.ndarray:
        """Narrow label of every wide label: its kept bits, packed."""
        kept_bits = [1 << j for j in f2.support(self.kept)]
        return f2.enumerate_span(f2.columns(kept_bits, self.wide.c), self.narrow.c)

    @cached_property
    def split_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The wide label with zero dropped bits for every narrow label, and
        the 2^k dropped-bit patterns, ascending: narrow label l splits into
        base[l] ^ patterns."""
        return tuple(f2.enumerate_span([1 << j for j in f2.support(bits)], self.wide.c)
                     for bits in (self.kept, self.dropped))


@dataclass(frozen=True)
class SplitSyndromeTables:
    """What measure reads about a split followed by a syndrome with flip
    probability q.

    Narrow label l splits into wide labels base[l] ^ patterns[j] (the
    split's tables). The syndrome map is linear, so their syndromes are
    s_base[l] ^ s_patterns[j], and with y = s_base[l] ^ observed the
    mismatch counts are m = |y ^ s_patterns[j]|. The entry's syndrome
    factor is factors[j, y] = _mismatch_factors(width, q)[m]; totals[y]
    and tops[y] are the sum and the maximum of factors[:, y], for every y.
    """

    base: np.ndarray
    patterns: np.ndarray
    s_base: np.ndarray       # uint32, 2^c of the narrow layout
    factors: np.ndarray      # float64, (2^k, 2^width)
    totals: np.ndarray       # float64, 2^width
    tops: np.ndarray         # float64, 2^width


@lru_cache(maxsize=16)
def _split_syndrome_tables(split: DeformationMap, smap: SyndromeMap, q: float) -> SplitSyndromeTables:
    if smap.layout != split.new_layout:
        raise ValueError("syndrome map was built for a different label layout")
    base, patterns = split.split_tables
    syndromes = np.arange(1 << smap.width, dtype=np.uint32)
    mismatch = np.bitwise_count(smap.table.take(patterns)[:, None] ^ syndromes)
    factors = _mismatch_factors(smap.width, q).take(mismatch)
    tables = SplitSyndromeTables(base, patterns, smap.table.take(base), factors,
                                 factors.sum(axis=0), factors.max(axis=0))
    for array in (tables.s_base, tables.factors, tables.totals, tables.tops):
        array.flags.writeable = False
    return tables


@dataclass(frozen=True)
class TGateUpdate:
    """Precomputed data for the transversal-T likelihood update.

    gamma_hat[beta, alpha] is the diagonal of the transformed Z-block
    operator for the cleanable X coset alpha: the masked vector
    J_e A^T beta is either a member of the self-orthogonal subgroup inside
    e(alpha), contributing (-1)^(|.|/2), or the entry is zero. Columns of
    non-cleanable alpha are unused (the projection removes them first).
    """

    layout: LabelLayout
    cleanable_mask: np.ndarray       # bool, 2^alpha_bits
    gamma_hat: np.ndarray            # float64, (2^beta_bits, 2^alpha_bits)

    @cached_property
    def cleanable_entries(self) -> np.ndarray:
        """Row-major positions of the cleanable columns' entries in a
        (2^beta_bits, 2^alpha_bits) block, i.e. their labels."""
        columns = np.flatnonzero(self.cleanable_mask)
        rows = np.arange(len(self.gamma_hat))[:, np.newaxis] << self.layout.alpha_bits
        return (rows | columns).reshape(-1)

    @cached_property
    def cleanable_gamma_hat(self) -> np.ndarray:
        """The cleanable columns of gamma_hat, in order."""
        return self.gamma_hat.reshape(-1)[self.cleanable_entries].reshape(len(self.gamma_hat), -1)


def build_t_gate_update(table: CleanabilityTable) -> TGateUpdate:
    """The table's Gamma (CleanabilityTable.gamma_hat) with its cleanable
    mask, on the label layout of the table's code; its arrays read-only."""
    cm = table.code.coset_map
    layout = LabelLayout(cm.alpha_bits, cm.beta_bits)
    mask = np.zeros(1 << layout.alpha_bits, dtype=bool)
    mask[list(table.cleanable)] = True
    update = TGateUpdate(layout=layout, cleanable_mask=mask, gamma_hat=table.gamma_hat)
    for array in (mask, update.cleanable_entries, update.cleanable_gamma_hat):
        array.flags.writeable = False
    return update


def transformed_depolarizing(coset_map, p: float) -> np.ndarray:
    """Walsh-Hadamard transform of the depolarizing coset distribution.

    For a product channel the transform factorizes per qubit: the entry at
    label f is (1 - 4p/3)^k(f), where k(f) counts the qubits touched by the
    transposed label map applied to f.
    """
    u = f2.enumerate_span(coset_map.mat_b, coset_map.n)
    w = f2.enumerate_span(coset_map.mat_a, coset_map.n)
    touched = np.bitwise_count(u[np.newaxis, :] | w[:, np.newaxis])
    return np.power(1.0 - 4.0 * p / 3.0, touched).reshape(-1)


# ---------------------------------------------------------------------------
# Dense engine
# ---------------------------------------------------------------------------

def _clamp_negatives(weights: np.ndarray, update: str) -> None:
    """Set the rounding-level negative weights a transform pair leaves to
    zero, in place; a weight below the negativity tolerance raises."""
    floor = weights.min()
    if floor < 0.0 and floor < -NEG_TOL * max(1.0, weights.max()):
        raise NumericError(f"negative weight {floor} after {update}")
    np.maximum(weights, 0.0, out=weights)


def _t_transform(block: np.ndarray, gamma: np.ndarray) -> None:
    """The T update of each column of a (2^beta_bits, k) block, in place:
    fwht, times Gamma's matching columns, fwht again, divided by 2^beta_bits,
    with rounding-level negatives clamped to zero."""
    fwht(block)
    block *= gamma
    fwht(block)
    block /= len(block)
    _clamp_negatives(block, "T update")


def _scale_to_max(weights: np.ndarray) -> None:
    """Divide the weights in place by their maximum, which must be positive."""
    m = weights.max()
    if m <= 0.0:
        raise DegeneratePosteriorError("all coset weights vanished")
    weights /= m


class DenseLikelihood:
    """Exact likelihood vector over all 2^c labels."""

    def __init__(self, layout: LabelLayout, weights: np.ndarray | None = None):
        self.layout = layout
        if weights is None:
            weights = np.zeros(layout.size, dtype=np.float64)
            weights[0] = 1.0
        self.weights = weights

    def normalized(self) -> np.ndarray:
        return self.weights / self.weights.sum()

    @staticmethod
    @lru_cache(maxsize=8)
    def memory_input(coset_map: CosetMap, p: float) -> tuple[np.ndarray]:
        """Arguments of apply_memory for depolarizing noise of strength p."""
        p_hat = transformed_depolarizing(coset_map, p)
        p_hat.flags.writeable = False
        return (p_hat,)

    def apply_memory(self, p_hat: np.ndarray) -> None:
        if p_hat.shape != self.weights.shape:
            raise ValueError("transformed coset distribution has wrong length")
        fwht(self.weights)
        self.weights *= p_hat
        fwht(self.weights)
        _clamp_negatives(self.weights, "memory update")
        _scale_to_max(self.weights)

    def apply_syndrome(self, smap: SyndromeMap, observed: int, q: float) -> None:
        shape, syndromes = smap.read_table
        mismatch = np.bitwise_count(syndromes ^ np.uint32(observed))
        weights = self.weights.reshape(shape)
        weights *= _mismatch_factors(smap.width, q).take(mismatch)
        self.weights = weights.reshape(-1)
        _scale_to_max(self.weights)

    def deform(self, dmap: DeformationMap) -> None:
        shape = dmap.run_shape
        if dmap.direction == "merge":
            new = self.weights.reshape(shape).sum(axis=1).reshape(-1)
            _scale_to_max(new)
        else:
            # The broadcast's maximum is the narrow vector's, so the narrow
            # vector is rescaled before the broadcast is written.
            narrow = self.weights * 2.0 ** (dmap.old_layout.c - dmap.new_layout.c)
            _scale_to_max(narrow)
            new = np.empty(shape, dtype=np.float64)
            new[...] = narrow.reshape(shape[0], 1, shape[2])
            new = new.reshape(-1)
        self.layout = dmap.new_layout
        self.weights = new

    def measure(self, split: DeformationMap, smap: SyndromeMap, observed: int, q: float,
                eps: float) -> None:
        """deform(split); apply_syndrome(smap, observed, q); truncate(eps)."""
        if split.direction != "split":
            raise ValueError("measure follows a split")
        self.deform(split)
        self.apply_syndrome(smap, observed, q)

    def apply_clifford(self, action: CliffordAction) -> None:
        if action == CLIFFORD_CLASSES[0]:  # the identity class
            return
        self.weights = self.weights[_clifford_preimage(self.layout, action)]

    def choose_recovery(self) -> int:
        lay = self.layout
        block = self.weights.reshape(1 << lay.beta_bits, 1 << lay.alpha_bits)
        alpha_star = _first_tied(block.sum(axis=0))
        if alpha_star:
            alphas = np.arange(1 << lay.alpha_bits, dtype=np.uint32)
            self.weights = np.take(block, alphas ^ np.uint32(alpha_star), axis=1).reshape(-1)
        return alpha_star

    def apply_t_gate(self, update: TGateUpdate) -> None:
        lay = self.layout
        if update.layout != lay:
            raise ValueError("T-gate table was built for a different label layout")
        # The projection zeroes the other columns, and fwht acts on each
        # column on its own, so only the cleanable columns are transformed.
        entries = update.cleanable_entries
        block = self.weights.take(entries).reshape(update.cleanable_gamma_hat.shape)
        if not block.any():
            raise DegeneratePosteriorError("no weight on cleanable cosets")
        _t_transform(block, update.cleanable_gamma_hat)
        _scale_to_max(block)  # the other entries are zero
        self.weights.fill(0.0)
        self.weights[entries] = block.reshape(-1)

    def truncate(self, eps: float) -> None:
        pass  # dense engine never drops support

    def final_coset(self) -> int:
        return _first_tied(self.weights)

    def entropy(self) -> float:
        p = self.normalized()
        nz = p[p > 0]
        return float(-(nz * np.log2(nz)).sum())

    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights))


# ---------------------------------------------------------------------------
# Sparse engine
# ---------------------------------------------------------------------------

class SparseLikelihood:
    """Likelihood vector with explicit support (label and weight arrays).

    The invariant: every update leaves sorted, unique uint32 labels and
    positive weights of maximum exactly 1, and no update scans for what it
    fixes. Labels stay in order by one of two exact rules. Memory and merge
    map labels onto one another: `_merge` sums them with a 2^c bincount,
    which adds each label's weights in input order as a stable sort and
    per-run sums would, and keeps its positive bins (weights are never
    negative, so only an all-zero label drops, as renormalization would
    drop it), which it rescales with no scan for zeros. Split, Clifford and
    recovery map labels one to one: `_sort`, a stable radix argsort, only
    reorders them; measure sorts only the grid entries it keeps, and not at
    all where the dropped bits are the top ones (its pattern-major grid is
    then in order). The other updates keep the order; the T update reads
    out its nonzero entries after the clamp, so positive ones. At max(w) = 1
    with every w / 2^k normal the split's renormalization divides by powers
    of two, exactly, and returns w: `_split_weights` skips it.

    measure's band. Write u = 2^-53, K = 2^k patterns, L narrow labels and
    N = K L grid entries, and let e be the exact product of an entry's
    weight w and its float powers q^m and (1 - q)^(width - m), and E the
    sum of the e. Each rounding of a product, a quotient or a sum of
    nonnegative terms is relative and at most u per operation, and
    K + L <= N + 1.
      The rule. Entry g = w fac, fac the rounded product of the two powers,
      is e within 2u, so the grid's sum is E within 2u. The rule keeps g
      where p = (g / max) / T >= eps, T summed over the rescaled entries:
      one rounding per rescaled entry, N - 1 in the sum, one in the
      quotient and the 2u of the grid's sum put p within (N + 4)u of g / E.
      The cut. totals[y] adds K rounded products (Ku), w[l] * totals[y_l]
      rounds once more and the sum over the L labels L - 1 times, so
      S = sum_l w[l] totals[y_l] is E within (K + L)u, and cut = eps * S is
      eps E within (K + L + 1)u. So the rule keeps g where
      g >= cut (1 + r) and drops it where g < cut (1 - r), with
      r = (N + K + L + 5)u <= (2N + 6)u.
      The candidates. bound = w[l] * tops[y_l] multiplies the same two
      operands as the label's largest entry, and rounding is monotone, so
      the bound is that entry, exactly; the band's edges cut (1 -+ b) round
      once. With b = (2N + 14)u, a label whose bound lies below the lower
      edge holds only entries below cut (1 - r), every entry at or above the
      upper edge lies above cut (1 + r), and 7u remain: 3u for the
      second-order terms (N u <= 2^-37) and for underflow, and 4u of slack,
      which an inexact bound would need. The labels whose bound equals the
      largest hold every maximal entry: the first maximum, which the rule
      keeps when no entry reaches the band.
      Underflow. A product or quotient below 2^-1022 errs by up to 2^-1075
      absolutely instead. Entries near the cut are normal where the cut is
      at least 8N 2^-1022, and the at most 5N such errors in the grid's
      sum, T and S, on the scale of the entries and times eps <= 1, then
      add less than u to r. A smaller cut (eps = 0 or subnormal among
      them) or eps > 1 takes the rule as written.
    b is an even multiple of u, so 1 + b and 1 - b are exact.
    """

    def __init__(
        self,
        layout: LabelLayout,
        labels: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ):
        self.layout = layout
        self.labels = labels if labels is not None else np.zeros(1, dtype=np.uint32)
        self.weights = weights if weights is not None else np.ones(1, dtype=np.float64)

    def _sort(self) -> None:
        # A stable argsort of 16-bit keys is a radix sort in numpy.
        assert self.layout.c <= 16, "sparse labels are sorted as 16-bit keys"
        order = np.argsort(self.labels.astype(np.uint16), kind="stable")
        self.labels, self.weights = self.labels[order], self.weights[order]

    def _merge(self, labels: np.ndarray, weights: np.ndarray) -> None:
        sums = np.bincount(labels, weights=weights, minlength=self.layout.size)
        kept = (sums > 0.0).nonzero()[0]
        self._rescale(kept.astype(np.uint32), sums.take(kept))

    def _rescale(self, labels: np.ndarray, weights: np.ndarray) -> None:
        """Set the support to labels and positive weights, rescaled in place to max = 1."""
        if len(labels) == 0:
            raise DegeneratePosteriorError("all coset weights vanished")
        weights /= weights.max()
        self.labels, self.weights = labels, weights

    def _renormalize(self) -> None:
        """Drop zero weights and rescale to max = 1."""
        labels, weights = self.labels, self.weights
        if not weights.min(initial=np.inf) > 0.0:
            keep = weights > 0.0
            labels, weights = labels[keep], weights[keep]
        self._rescale(labels, weights)

    @staticmethod
    @lru_cache(maxsize=8)
    def memory_input(coset_map: CosetMap, p: float) -> tuple[np.ndarray, np.ndarray]:
        """Arguments of apply_memory: the coset shifts and weights of the
        weight <= 1 restriction of depolarizing noise of strength p
        (unnormalized; the engine renormalizes)."""
        labels, weights = [0], [1.0 - p]
        for j in range(coset_map.n):
            for a, b in ((1 << j, 0), (1 << j, 1 << j), (0, 1 << j)):
                labels.append(coset_map.label(a, b))
                weights.append(p / 3.0)
        shifts, shift_weights = np.array(labels, dtype=np.uint32), np.array(weights)
        shifts.flags.writeable = shift_weights.flags.writeable = False
        return shifts, shift_weights

    def apply_memory(self, shifts: np.ndarray, shift_weights: np.ndarray) -> None:
        self._merge((self.labels[:, None] ^ shifts).reshape(-1),
                    (self.weights[:, None] * shift_weights).reshape(-1))

    def apply_syndrome(self, smap: SyndromeMap, observed: int, q: float) -> None:
        mismatch = np.bitwise_count(smap.table.take(self.labels) ^ np.uint32(observed))
        self.weights = self.weights * _mismatch_factors(smap.width, q).take(mismatch)
        self._renormalize()

    def deform(self, dmap: DeformationMap) -> None:
        if dmap.direction == "split":
            self._split_weights(dmap)
            self._split_labels(dmap)
            return
        self.layout = dmap.new_layout
        self._merge(dmap.dense_index.take(self.labels), self.weights)

    def _split_weights(self, split: DeformationMap) -> None:
        """The split's renormalization, on the narrow weights: each of the
        2^k wide labels of narrow label l gets w[l] / 2^k / max(w / 2^k),
        which is w[l] where max(w) = 1 and w / 2^k is normal (class docstring)."""
        patterns = len(split.split_tables[1])
        if self.weights.max() == 1.0 and self.weights.min() >= patterns * 2.0 ** -1022:
            return
        self.weights = self.weights / patterns
        self._renormalize()

    def _split_labels(self, split: DeformationMap) -> None:
        """Expand each narrow label, with its split weight, to its 2^k wide labels."""
        base, patterns = split.split_tables
        self.labels = (base.take(self.labels)[:, None] ^ patterns).reshape(-1)
        self.weights = np.repeat(self.weights, len(patterns))
        self.layout = split.new_layout
        self._sort()

    def measure(self, split: DeformationMap, smap: SyndromeMap, observed: int, q: float,
                eps: float) -> None:
        """deform(split); apply_syndrome(smap, observed, q); truncate(eps).
        The split's grid is built only for the narrow labels whose entries
        truncation may keep (see the module docstring, and _select for the
        choice); where _select cannot decide, the three steps run as written."""
        if split.direction != "split":
            raise ValueError("measure follows a split")
        tables = _split_syndrome_tables(split, smap, q)
        self._split_weights(split)
        syndromes = tables.s_base.take(self.labels) ^ np.uint32(observed)
        kept = self._select(tables, syndromes, eps)
        if kept is None:
            self._split_labels(split)
            self.apply_syndrome(smap, observed, q)
            self.truncate(eps)
            return
        self.layout = split.new_layout
        self.labels, self.weights = kept
        if split.run_shape[0] > 1:  # else the dropped bits are the top ones: sorted already
            self._sort()
        self.weights /= self.weights.max()

    def _grid(self, tables: SplitSyndromeTables, syndromes: np.ndarray,
              rows) -> tuple[np.ndarray, np.ndarray]:
        """Wide labels and weights of the grid entries of the candidate
        narrow entries `rows`, pattern-major: base[l] ^ patterns[j] with weight
        factors[j, syndromes[l]] * w[l], the product apply_syndrome forms."""
        weights = tables.factors.take(syndromes[rows], axis=1)
        weights *= self.weights[rows]
        labels = tables.patterns[:, None] ^ tables.base.take(self.labels[rows])
        return labels.reshape(-1), weights.reshape(-1)

    def _select(self, tables: SplitSyndromeTables, syndromes: np.ndarray,
                eps: float) -> tuple[np.ndarray, np.ndarray] | None:
        """The labels and weights of the grid entries truncate(eps) keeps,
        unsorted and unscaled, or None where an entry lies in the band
        around the cut or the cut is too small for the band to hold (the
        class docstring derives the band).

        The cut is eps * S, with S the grid's sum taken over the narrow
        labels as w[l] * totals[y_l]. Narrow label l's largest entry is
        w[l] * tops[y_l], exactly, so only the candidates are built: the
        labels whose bound reaches the band's lower edge or is the largest.
        """
        w = self.weights
        n = len(w) * len(tables.patterns)
        cut = eps * (w * tables.totals.take(syndromes)).sum()
        if not (eps <= 1.0 and cut >= 8 * n * 2.0 ** -1022):
            return None
        band = (2 * n + 14) * 2.0 ** -53
        low, high = cut * (1.0 - band), cut * (1.0 + band)
        bounds = w * tables.tops.take(syndromes)
        rows = (bounds >= min(low, bounds.max())).nonzero()[0]
        if len(rows) == len(w):  # every label, as often at high p: no gather
            rows = slice(None)
        labels, weights = self._grid(tables, syndromes, rows)
        near = weights >= low
        kept = labels[near], weights[near]
        if len(kept[1]) == 0:  # only the first maximum, as np.argmax on sorted labels
            tops = np.flatnonzero(weights == weights.max())
            top = tops[np.argmin(labels.take(tops))]
            return labels[top:top + 1], weights[top:top + 1]
        return kept if kept[1].min() >= high else None

    def apply_clifford(self, action: CliffordAction) -> None:
        if action == CLIFFORD_CLASSES[0]:  # the identity class
            return
        self.labels = _clifford_image(self.layout, action).take(self.labels)
        self._sort()

    def choose_recovery(self) -> int:
        lay = self.layout
        alpha = self.labels & np.uint32((1 << lay.alpha_bits) - 1)
        mass = np.bincount(alpha, weights=self.weights, minlength=1 << lay.alpha_bits)
        alpha_star = _first_tied(mass)
        if alpha_star:
            self.labels = self.labels ^ np.uint32(alpha_star)
            self._sort()
        return alpha_star

    def apply_t_gate(self, update: TGateUpdate) -> None:
        lay = self.layout
        if update.layout != lay:
            raise ValueError("T-gate table was built for a different label layout")
        alpha = self.labels & np.uint32((1 << lay.alpha_bits) - 1)
        keep = update.cleanable_mask.take(alpha)
        if not keep.any():
            raise DegeneratePosteriorError("no weight on cleanable cosets")
        # One column per occupied cleanable alpha; fwht acts on each column
        # independently, exactly as on a single 2^beta_bits vector.
        alpha = alpha[keep]
        alphas = np.unique(alpha)
        block = np.zeros((1 << lay.beta_bits, len(alphas)), dtype=np.float64)
        rows = self.labels[keep] >> np.uint32(lay.alpha_bits)
        block[rows, np.searchsorted(alphas, alpha)] = self.weights[keep]
        _t_transform(block, update.gamma_hat.take(alphas, axis=1))
        # Row-major readout over (beta, ascending alpha) yields sorted labels;
        # the clamp leaves no negative weight, so the nonzero ones are positive.
        beta, column = np.nonzero(block)
        self._rescale(alphas[column] | (beta.astype(np.uint32) << np.uint32(lay.alpha_bits)),
                      block[beta, column])

    def truncate(self, eps: float) -> None:
        """Keep the labels whose probability w / T is at least eps, T summed
        in label order, and the smallest label among the maxima, which has
        weight 1 (see the class docstring)."""
        keep = self.weights / self.weights.sum() >= eps
        keep[np.argmax(self.weights)] = True
        self.labels, self.weights = self.labels[keep], self.weights[keep]

    def final_coset(self) -> int:
        return int(self.labels[_tied(self.weights)].min())

    def entropy(self) -> float:
        p = self.weights / self.weights.sum()
        return float(-(p * np.log2(p)).sum())

    def support_size(self) -> int:
        return len(self.labels)


ENGINES = dict(zip(ENGINE_NAMES, (DenseLikelihood, SparseLikelihood)))


def init_likelihood(layout: LabelLayout, engine: str):
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return ENGINES[engine](layout)
