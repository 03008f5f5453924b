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
             observed syndrome against the label's ideal syndrome.
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
apply_syndrome(smap, observed, q); truncate(eps). The sparse engine forms
the split's weights and the syndrome factors together on the (2^k, n) grid
of dropped-bit pattern and narrow entry, selects the entries truncation
keeps while the grid is unsorted, and sorts only those. It is exact for
three reasons. The split gives every pattern the same weight, so the split's
renormalization runs on the n narrow weights. The syndrome map is linear, so
a wide label's syndrome is the XOR of its base label's and its pattern's.
Each grid entry thus gets the weight the separate updates give it. And the
truncation rule sums the weights in label order, but weights are never
negative, so a sum in grid order differs from it by so little that both
decide alike outside a band of relative width (2N + 8) 2^-53 around the cut
for N grid entries; where an entry falls in the band, the grid is sorted and
the rule runs as written (SparseLikelihood._preselect). The dense engine
renormalizes the narrow vector before it writes the split's broadcast, for
the first reason.

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
gathers from 2^c lookup tables of the syndrome and deformation maps, so
each of its updates is a few whole-array operations over the support; its
advantage is a support far smaller than 2^c. Within a round the support
grows before truncation cuts it back: at p = 0.005 (mean, seed 0) 26 kept
labels become 689 after memory and 5 509 entering the syndrome, and at
p = 0.02 132 become 1 374 and 10 995 (at most 58 496 of 65 536). Its
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
from .csscode import CleanabilityTable, CosetMap, SubsystemCode
from .f2 import fwht
from .noise import CLIFFORD_CLASSES, CliffordAction, TPropagator


class DegeneratePosteriorError(RuntimeError):
    """Every coset got zero weight (possible only with exact syndromes)."""


class NumericError(RuntimeError):
    """An update produced weights below the negativity tolerance."""


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
    """Image v f of every label f under the Clifford relabeling v."""
    if layout.alpha_bits != layout.beta_bits:
        raise ValueError("clifford relabeling needs matching alpha/beta widths")
    labels = np.arange(layout.size, dtype=np.uint32)
    alpha = labels & np.uint32((1 << layout.alpha_bits) - 1)
    beta = labels >> np.uint32(layout.alpha_bits)
    p, q, r, s = action.p, action.q, action.r, action.s
    image = ((alpha * p) ^ (beta * r)) | (((alpha * q) ^ (beta * s)) << np.uint32(layout.alpha_bits))
    image.flags.writeable = False
    return image


@lru_cache(maxsize=64)
def _clifford_preimage(layout: LabelLayout, action: CliffordAction) -> np.ndarray:
    """Label mapped onto each label by the Clifford relabeling: gathering
    through it moves every weight to its image."""
    preimage = np.empty(layout.size, dtype=np.intp)
    preimage[_clifford_image(layout, action)] = np.arange(layout.size)
    preimage.flags.writeable = False
    return preimage


@dataclass(frozen=True)
class SyndromeMap:
    """Linear map from coset labels to ideal syndrome bits.

    rows[i] is a mask over label bits; syndrome bit i is the parity of the
    masked label. Logical labels must map to zero (measurements never read
    the encoded qubit).
    """

    rows: tuple[int, ...]
    layout: LabelLayout

    @property
    def width(self) -> int:
        return len(self.rows)

    @cached_property
    def table(self) -> np.ndarray:
        return self._syndromes(np.arange(self.layout.size, dtype=np.uint32))

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
        labels = np.arange(self.layout.size, dtype=np.uint32).reshape(shape)
        unread_zero = labels[tuple(slice(None) if is_read else slice(1) for is_read, _ in runs)]
        syndromes = self._syndromes(unread_zero)
        syndromes.flags.writeable = False
        return shape, syndromes

    def _syndromes(self, labels: np.ndarray) -> np.ndarray:
        out = np.zeros_like(labels)
        for i, row in enumerate(self.rows):
            out |= (np.bitwise_count(labels & np.uint32(row)) & np.uint32(1)) << np.uint32(i)
        return out


@lru_cache(maxsize=16)
def _mismatch_factors(width: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """q**m and (1 - q)**(width - m) for every mismatch count m.

    Kept as two factors: the sparse engine multiplies by them in turn, the
    dense engine by their product, and the two orders round differently.
    """
    m = np.arange(width + 1, dtype=np.uint8)
    hit, miss = np.power(q, m), np.power(1.0 - q, width - m)
    hit.flags.writeable = miss.flags.writeable = False
    return hit, miss


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
        """Narrow label of every wide label: its kept bits, packed, i.e. the
        narrow labels laid out as (2^high, 1, 2^low), broadcast over the
        dropped axis."""
        high, _, low = self.run_shape
        narrow = np.arange(high * low, dtype=np.uint32).reshape(high, 1, low)
        return np.broadcast_to(narrow, self.run_shape).reshape(-1)

    @cached_property
    def split_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The wide label with zero dropped bits for every narrow label, and
        the 2^k dropped-bit patterns: narrow label l splits into
        base[l] ^ patterns."""
        wide = np.arange(self.wide.size, dtype=np.uint32).reshape(self.run_shape)
        return wide[:, 0, :].reshape(-1), wide[0, :, 0]


@lru_cache(maxsize=16)
def _split_syndromes(split: DeformationMap, smap: SyndromeMap) -> tuple[np.ndarray, np.ndarray]:
    """Syndromes of the split's base labels and of its dropped-bit patterns.
    The syndrome map is linear, so wide label base[l] ^ patterns[j] has
    syndrome s_base[l] ^ s_patterns[j]."""
    if smap.layout != split.new_layout:
        raise ValueError("syndrome map was built for a different label layout")
    base, patterns = split.split_tables
    s_base, s_patterns = smap.table.take(base), smap.table.take(patterns)
    s_base.flags.writeable = s_patterns.flags.writeable = False
    return s_base, s_patterns


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


def build_t_gate_update(
    code: SubsystemCode, table: CleanabilityTable, layout: LabelLayout
) -> TGateUpdate:
    """The table's Gamma (CleanabilityTable.gamma_hat) with its cleanable
    mask, for a layout that matches the code's labels."""
    cm = code.coset_map
    if (cm.alpha_bits, cm.beta_bits) != (layout.alpha_bits, layout.beta_bits):
        raise ValueError("layout does not match the code's coset map")
    mask = np.zeros(1 << layout.alpha_bits, dtype=bool)
    mask[sorted(table.cleanable)] = True
    return TGateUpdate(layout=layout, cleanable_mask=mask, gamma_hat=table.gamma_hat)


def gamma_hat_direct(
    code: SubsystemCode, prop: TPropagator, alpha: int, beta: int
) -> float:
    """Reference evaluation: direct sum over f inside e(alpha)."""
    from .noise import p_f_given_e

    cm = code.coset_map
    v = 0
    for i, row in enumerate(cm.mat_a):
        if (beta >> i) & 1:
            v ^= row
    acc = 0.0
    for fvec, pf in p_f_given_e(prop, alpha).items():
        acc += pf * (-1.0) ** f2.dot(v, fvec)
    return acc


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
    if floor < -NEG_TOL * max(1.0, weights.max()):
        raise NumericError(f"negative weight {floor} after {update}")
    np.maximum(weights, 0.0, out=weights)


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

    def copy(self) -> "DenseLikelihood":
        return DenseLikelihood(self.layout, self.weights.copy())

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
        hit, miss = _mismatch_factors(smap.width, q)
        weights = self.weights.reshape(shape)
        weights *= (hit * miss).take(mismatch)
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
        block = self.weights[entries].reshape(update.cleanable_gamma_hat.shape)
        if not block.any():
            raise DegeneratePosteriorError("no weight on cleanable cosets")
        fwht(block, axis=0)
        block *= update.cleanable_gamma_hat
        fwht(block, axis=0)
        block /= 1 << lay.beta_bits
        _clamp_negatives(block, "T update")
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

    Every update leaves the labels sorted and unique, by one of two exact
    rules. Memory and merge map labels onto one another: `_merge` sums them
    with a 2^c bincount, which adds each label's weights in input order as a
    stable sort and per-run sums would, and reads the labels back from its
    positive bins (weights are never negative, so only an all-zero label
    drops, as renormalization would drop it). Split, Clifford and recovery
    map labels one to one: `_sort`, a stable radix argsort, only reorders
    them; measure leaves its split grid unsorted until truncation has
    selected from it. The syndrome and T updates keep the order.
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

    def copy(self) -> "SparseLikelihood":
        return SparseLikelihood(self.layout, self.labels.copy(), self.weights.copy())

    def _sort(self) -> None:
        # A stable argsort of 16-bit keys is a radix sort in numpy.
        assert self.layout.c <= 16, "sparse labels are sorted as 16-bit keys"
        order = np.argsort(self.labels.astype(np.uint16), kind="stable")
        self.labels, self.weights = self.labels[order], self.weights[order]

    def _merge(self, labels: np.ndarray, weights: np.ndarray) -> None:
        sums = np.bincount(labels, weights=weights, minlength=self.layout.size)
        kept = np.flatnonzero(sums > 0.0)
        self.labels, self.weights = kept.astype(np.uint32), sums.take(kept)

    def _renormalize(self) -> None:
        """Drop zero weights and rescale to max = 1."""
        if not self.weights.min(initial=np.inf) > 0.0:
            keep = self.weights > 0.0
            self.labels, self.weights = self.labels[keep], self.weights[keep]
        if len(self.labels) == 0:
            raise DegeneratePosteriorError("all coset weights vanished")
        self.weights /= self.weights.max()

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
        self._renormalize()

    def apply_syndrome(self, smap: SyndromeMap, observed: int, q: float) -> None:
        mismatch = np.bitwise_count(smap.table.take(self.labels) ^ np.uint32(observed))
        hit, miss = _mismatch_factors(smap.width, q)
        self.weights = self.weights * hit.take(mismatch) * miss.take(mismatch)
        self._renormalize()

    def deform(self, dmap: DeformationMap) -> None:
        if dmap.direction == "split":
            self._split(dmap)
            self._sort()
            return
        self.layout = dmap.new_layout
        self._merge(dmap.dense_index.take(self.labels), self.weights)
        self._renormalize()

    def measure(self, split: DeformationMap, smap: SyndromeMap, observed: int, q: float,
                eps: float) -> None:
        """deform(split); apply_syndrome(smap, observed, q); truncate(eps),
        with the syndrome factors applied to the split's (2^k, n) grid, which
        truncate selects from before it sorts what it keeps (see the module
        docstring for why each entry gets the same weight)."""
        if split.direction != "split":
            raise ValueError("measure follows a split")
        self._split(split, (smap, observed, q))
        self.truncate(eps)

    def _split(self, dmap: DeformationMap, syndrome: tuple | None = None) -> None:
        """The split, with the factors of `syndrome` = (smap, observed, q)
        if given, leaving the grid's labels in grid order. Wide label
        patterns[j] ^ base[labels[i]] has weight w[i] / 2^k / max(w / 2^k)
        for every j, and syndrome s_patterns[j] ^ s_base[labels[i]]."""
        base, patterns = dmap.split_tables
        self.weights = self.weights / len(patterns)
        self._renormalize()  # the split's, as every pattern carries these weights
        bases = base.take(self.labels)
        if syndrome is None:
            grid = np.tile(self.weights, (len(patterns), 1))
        else:
            smap, observed, q = syndrome
            s_base, s_patterns = _split_syndromes(dmap, smap)
            mismatch = np.bitwise_count(
                (s_patterns ^ np.uint32(observed))[:, None] ^ s_base.take(self.labels))
            hit, miss = _mismatch_factors(smap.width, q)
            grid = hit.take(mismatch)
            grid *= self.weights
            grid *= miss.take(mismatch)
        self.labels = (patterns[:, None] ^ bases).reshape(-1)
        self.weights = grid.reshape(-1)
        self.layout = dmap.new_layout

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
        alphas, column = np.unique(alpha[keep], return_inverse=True)
        block = np.zeros((1 << lay.beta_bits, len(alphas)), dtype=np.float64)
        block[self.labels[keep] >> np.uint32(lay.alpha_bits), column] = self.weights[keep]
        fwht(block)
        block *= update.gamma_hat[:, alphas]
        fwht(block)
        block /= 1 << lay.beta_bits
        _clamp_negatives(block, "T update")
        # Row-major readout over (beta, ascending alpha) yields sorted labels.
        beta, column = np.nonzero(block)
        self.labels = alphas[column] | (beta.astype(np.uint32) << np.uint32(lay.alpha_bits))
        self.weights = block[beta, column]
        self._renormalize()

    def truncate(self, eps: float) -> None:
        """Keep the labels whose probability is at least eps, and the
        smallest label among the maxima; leave the labels sorted and the
        weights at max 1. The entries may come unsorted and unscaled, as
        measure's grid does.

        The rule runs on the sorted, rescaled weights: probability
        (w / max) / T, with T summed in label order. _preselect finds the same
        entries without sorting or rescaling; where it cannot tell, the rule
        itself runs.
        """
        keep = self._preselect(eps)
        if keep is None:
            self._sort()
            self._renormalize()
            probs = self.weights / self.weights.sum()
            keep = probs >= eps
            keep[np.argmax(self.weights)] = True
        self.labels, self.weights = self.labels[keep], self.weights[keep]
        self._sort()
        self.weights /= self.weights.max()

    def _preselect(self, eps: float) -> np.ndarray | None:
        """Indices of the entries truncate(eps) keeps, found on the weights
        as they come, or None if an entry lies too close to the cut.

        The rule keeps w where (w / max) / T >= eps, with T summed over the
        rescaled weights in label order; this keeps w >= eps * S, with S
        summed over the weights in their present order. The weights are not
        negative, so a sum of N of them in any order lies within a relative
        (N - 1) 2^-53 of the exact sum (to first order), and T * max and S
        differ by at most 2 (N - 1) 2^-53. The rescaling, the two divisions,
        eps * S and the band's own products add fewer than ten units of
        2^-53 more. So outside a band of relative width (2N + 8) 2^-53
        around eps * S both decide alike, provided eps and eps * S are
        normal numbers (a subnormal one has fewer bits).
        """
        w = self.weights
        top, total = w.max(), w.sum()
        if not (top > 0.0 and np.isfinite(total) and w.min() >= 0.0):
            return None
        if eps <= 0.0:
            return np.flatnonzero(w)
        cut, tiny = eps * total, np.finfo(np.float64).tiny
        if not (eps >= tiny and cut >= tiny):
            return None
        band = (2 * len(w) + 8) * 2.0 ** -53
        near = np.flatnonzero(w >= cut * (1.0 - band))
        if len(near) == 0:  # only the first maximum, as np.argmax on sorted labels
            tops = np.flatnonzero(w == top)
            return tops[[np.argmin(self.labels.take(tops))]]
        return near if w.take(near).min() >= cut * (1.0 + band) else None

    def final_coset(self) -> int:
        return int(self.labels[_tied(self.weights)].min())

    def entropy(self) -> float:
        p = self.weights / self.weights.sum()
        return float(-(p * np.log2(p)).sum())

    def support_size(self) -> int:
        return len(self.labels)

    def dense_weights(self) -> np.ndarray:
        out = np.zeros(self.layout.size, dtype=np.float64)
        out[self.labels] = self.weights
        return out


ENGINES = {"exact": DenseLikelihood, "sparse": SparseLikelihood}


def init_likelihood(layout: LabelLayout, engine: str):
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return ENGINES[engine](layout)
