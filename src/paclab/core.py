"""Finite-domain learning primitives.

Points are the integers 0..u-1 and labels live in {-1, +1}. Hypotheses are
fixed label vectors, classes are ordered sets of hypotheses, and a joint
distribution assigns mass to every (point, label) cell. A sample is either
an ordered Dataset or a CountTable of its cells; SamplePieces hands a sample
out as contiguous pieces of counts, sliced from a Dataset or drawn from a
distribution, a whole run of pieces per call as one stacked array (drawn:
one multinomial call over the array of the run's sizes, and a batch may
share one generator, re-keyed to each sample's stream); take reads one
piece as a CountTable.
Everything except SamplePieces is immutable after construction, so it can
be shared freely across threads.

Validation happens once, at the public boundary. The constructors of
Hypothesis, HypothesisClass, DiscreteDistribution, Dataset and CountTable
check their input: labels must equal -1 or +1, class rows must be
distinct, point indices must be integers inside the domain, and masses and
counts must be nonnegative. Labels and points are checked as given, before
the cast to int8 or int64, so no cast can wrap or truncate a bad value into
a valid one. Hypotheses, classes, distributions and tables the package
derives from already validated objects (class members, tabulated
composites, split and determinized classes, conditioned and determinized
distributions, learner outputs, sample pieces) are built by the trusted
constructors _trusted_hypothesis, _trusted_class, _trusted_distribution and
_trusted_table, which skip the checks and only make the arrays read-only;
a table whose size is known (a piece of a requested size) is not summed.
sample_dataset wraps the points and labels it draws with _trusted_dataset.

A class is backed by a label matrix or, for the exact-negatives family, by
its negatives index: each member's sorted negative points
(HypothesisClass). The index is the class's own description, and its
matrix is built from it only where a caller asks for one. Mistake counts
(CountTable.mistakes), ERM (_least_mistakes) and errors against a mass
table (measures.row_errors) of an exact-negatives class read the index in
closed form (_negatives_sums), with no product, and the labels of
selected members of any class come from _member_rows.
A -1/+1 label matrix becomes a numeric operand only for the product that
reads it, so no class keeps its labels in another dtype. The mistake
kernel (_mistake_products) is the one code that turns labels into mistake
counts: it casts the +1 entries of one row chunk of a label matrix at a
time, so its working memory is one chunk whatever the matrix, for ERM and
CountTable.mistakes on a matrix-backed class, a matrix or a vector (the
diagnostics pass their candidate rows as a matrix) and for the validation
of a training batch. Elsewhere engine.pair_disagreements casts the
candidate rows of the pair search and the worst-pair scan, and
measures.row_errors the rows of its mass products on a label matrix or a
matrix-backed class.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "RngStream",
    "Hypothesis",
    "HypothesisClass",
    "DiscreteDistribution",
    "Dataset",
    "sample_dataset",
    "CountTable",
    "SamplePieces",
    "enumerate_class",
    "subset_rank",
    "subset_unrank",
    "vc_dimension_bruteforce",
]

DEFAULT_ENUMERATION_CAP = 10**6

_ENUMERATION_CELLS = 2**31
"""Most label cells, rows x points, of a materialized class: 2 GiB of int8.
The row cap binds first for d >= 2 (d = 2 stops at u = 1414); a d = 1
class or a realizable_uniform class stops above u = 46340."""

_KERNEL_CHUNK_CELLS = 2**17
"""Rows x points per step of the mistake kernel's product. On a 2-core Xeon
with OpenBLAS 0.3.31, one float64 product over 2-5 million cells ran 3-10
times slower than the same product taken in steps of this size."""

_KERNEL_OUTPUT_CELLS = 2**13
"""Rows x tables per step of the mistake kernel's product, so scoring a
stack of tables holds one chunk of its output, never rows x tables."""

_BRUTEFORCE_DOMAIN = 24
"""Widest domain vc_dimension_bruteforce searches."""

_FLOAT_EXACT = 2**53
"""Integers below this magnitude are exact in float64."""

_UINT64 = 2**64

_GUIDE_BUCKETS = 4096
"""Buckets of sample_dataset's guide table over the uniforms' range [0, 1)."""


def _integer(value, what: str) -> int:
    """value as an int if it is a Python or numpy integer, else a
    ValueError: a float, even a whole one, is refused before any cast
    could truncate it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness: equal (seed, stream) pairs give equal draws.

    Each stream is an independent counter-based generator keyed by the pair
    (seed, stream) as two unsigned 64-bit words, so every pair in range
    draws its own sequence, and handing stream 1 + i to trial i makes
    parallel execution reproduce serial execution exactly, whatever the
    thread count. Draw sequences are stable for a fixed numpy version.
    generator() builds a fresh generator; a loop that plays one stream
    after another may instead re-key one generator per stream with
    _restart, which puts it in the state a fresh generator starts in.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            if not 0 <= _integer(getattr(self, name), name) < _UINT64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        # An explicit uint64 key: numpy turns a list holding an int of 2^63
        # or more into float64, which maps neighbouring seeds to one key.
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _restart(gen: np.random.Generator, stream: RngStream) -> None:
    """Put gen's Philox at the start of stream.

    Sets exactly the state np.random.Philox(key=...) starts in: the
    stream's key, counter 0, an empty buffer and no cached half-word, so
    the draws that follow equal those of a fresh stream.generator(). Costs
    a fraction of a fresh generator, which also seeds an unused
    SeedSequence from OS entropy. The state setter copies the words one by
    one, so they are given as Python ints, which convert to uint64 faster
    than numpy scalars; the range check is RngStream's.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (stream.seed, stream.stream)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """A fixed labeling of the domain, one value from {-1, +1} per point."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.labels)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("labels must be a nonempty one-dimensional sequence")
        _require_signs(raw, "labels")
        _init_hypothesis(self, np.array(raw, dtype=np.int8, copy=True))

    @property
    def domain_size(self) -> int:
        return int(self.labels.size)

    def __call__(self, x):
        """Evaluate at a point index or an array of point indices; a point
        that is not an integer, or lies outside [0, domain_size), is a
        ValueError, where numpy would wrap a negative point to a label
        from the end."""
        size = self.labels.size
        if np.ndim(x) == 0:
            x = _integer(x, "point")
            if not 0 <= x < size:
                raise ValueError(f"point {x} outside [0, {size})")
            return self.labels[x]
        points = np.asarray(x)
        # Cast to uint64, a negative point lies past the upper bound too.
        if points.dtype.kind not in "iu" or (
            points.size and np.maximum.reduce(points.astype(np.uint64, copy=False), axis=None) >= size
        ):
            raise ValueError(f"points must be integers in [0, {size}), got {points.dtype} {points}")
        return self.labels[points]


def _require_signs(raw: np.ndarray, what: str) -> None:
    """Reject any raw entry that does not equal -1 or +1, before a cast can
    wrap or truncate it into one."""
    if not ((raw == 1) | (raw == -1)).all():
        raise ValueError(f"{what} must be -1 or +1")


def _init_hypothesis(h: Hypothesis, labels: np.ndarray) -> None:
    labels.setflags(write=False)
    object.__setattr__(h, "labels", labels)


def _trusted_hypothesis(labels: np.ndarray) -> Hypothesis:
    """Wrap a one-dimensional int8 vector of -1/+1 labels the package derived
    from validated objects, skipping validation; the vector becomes read-only."""
    h = object.__new__(Hypothesis)
    _init_hypothesis(h, labels)
    return h


class HypothesisClass:
    """Ordered finite set of distinct hypotheses over a shared domain.

    The index order is canonical: every tie anywhere in the package breaks
    toward the lowest index. A class is backed either by an explicit label
    matrix (one row per hypothesis) or by the exact-negatives family, whose
    size is binomial(u, d) and which is described by its negatives index:
    the (size, d) sorted negative points of each member, built on first use
    within _require_enumerable's caps. The index is 8d bytes per member
    where the matrix is u; mistake counts and ERM read the index in closed
    form whether or not the matrix is built, and a member's labels are
    built from it (_member_rows). The label matrix materializes lazily,
    from the index, only where a caller asks for it.
    """

    __slots__ = (
        "domain_size",
        "declared_vc",
        "_matrix",
        "_negative_spec",
        "_negatives",
    )

    def __init__(self, matrix, declared_vc: int | None = None):
        raw = np.asarray(matrix)
        if raw.ndim != 2 or raw.shape[0] == 0 or raw.shape[1] == 0:
            raise ValueError("matrix must be nonempty with shape (hypotheses, points)")
        _require_signs(raw, "matrix entries")
        mat = np.array(raw, dtype=np.int8, copy=True)
        if np.unique(mat, axis=0).shape[0] != mat.shape[0]:
            raise ValueError("duplicate hypothesis rows are not allowed")
        _init_class(self, mat, declared_vc)

    @classmethod
    def with_exact_negatives(cls, u: int, d: int) -> "HypothesisClass":
        """The family of all labelings with exactly d of u points negative.

        Ordered lexicographically by the sorted index set of the negative
        points, so index 0 labels points 0..d-1 negative. Neither the
        negatives index nor the label matrix is built until it is used; a
        member of a class past the caps, which keeps neither, comes from
        unranking. The dimension of this family is d, recorded as
        declared_vc.
        """
        u, d = _integer(u, "u"), _integer(d, "d")
        if d < 1 or u <= d:
            raise ValueError("need 1 <= d < u")
        self = cls.__new__(cls)
        self._matrix = None
        self._negative_spec = (u, d)
        self._negatives = None
        self.domain_size = u
        self.declared_vc = d
        return self

    @property
    def size(self) -> int:
        if self._matrix is not None:
            return int(self._matrix.shape[0])
        u, d = self._negative_spec
        return math.comb(u, d)

    def __len__(self) -> int:
        return self.size

    @property
    def is_enumerated(self) -> bool:
        return self._matrix is not None

    @property
    def matrix(self) -> np.ndarray:
        """Label matrix; materializes lazily, from the negatives index."""
        if self._matrix is None:
            mat = _member_rows(self, slice(None))
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    def _negative_points(self) -> np.ndarray | None:
        """The read-only (size, d) intp negatives index of an exact-negatives
        class, row i the sorted negative points of member i, in the
        lexicographic combinations order; None for a matrix-backed class.
        Built on first use, within _require_enumerable's caps. Threads that
        race on the first use each build an equal copy, and one is kept."""
        if self._negatives is None and self._negative_spec is not None:
            size = self.size
            u, d = self._negative_spec
            _require_enumerable(size, u)
            negatives = np.fromiter(
                chain.from_iterable(combinations(range(u), d)), dtype=np.intp, count=size * d
            ).reshape(size, d)
            negatives.setflags(write=False)
            self._negatives = negatives
        return self._negatives

    def hypothesis(self, index: int) -> Hypothesis:
        """Member at a canonical index, without forcing enumeration."""
        index = _integer(index, "index")
        size = self.size
        if not 0 <= index < size:
            raise ValueError(f"index {index} out of range for class of size {size}")
        if self._matrix is None and _enumeration_refusal(size, self.domain_size):
            # Past the caps no index is kept: unrank the one member.
            u, d = self._negative_spec
            labels = np.ones(u, dtype=np.int8)
            labels[subset_unrank(u, d, index)] = -1
            return _trusted_hypothesis(labels)
        return _trusted_hypothesis(_member_rows(self, index))

    def __iter__(self):
        for i in range(self.size):
            yield self.hypothesis(i)


def _init_class(klass: HypothesisClass, matrix: np.ndarray, declared_vc: int | None) -> None:
    matrix.setflags(write=False)
    klass._matrix = matrix
    klass._negative_spec = None
    klass._negatives = None
    klass.domain_size = int(matrix.shape[1])
    klass.declared_vc = declared_vc


def _member_rows(klass: HypothesisClass, index) -> np.ndarray:
    """The int8 label rows of the members at an index (an integer, an
    integer array or a slice, as numpy takes it): rows of the label matrix
    where the class has one, else built from its negatives index."""
    if klass._matrix is not None:
        return klass._matrix[index]
    negatives = klass._negative_points()[index]
    rows = np.ones(negatives.shape[:-1] + (klass.domain_size,), dtype=np.int8)
    if rows.ndim == 1:
        rows[negatives] = -1
    else:
        rows[np.arange(len(rows))[:, None], negatives] = -1
    return rows


def _negatives_sums(negatives: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The weight each member of an exact-negatives class mislabels in a
    (u, 2) table of cell weights w, counts or masses, given the class's
    negatives index: a member with negatives S pays
    Σw₋ + Σ_{x∈S}(w₊ − w₋)(x), taken as Σw₋ plus one take of the scores
    per index column, in the weights' dtype and with no label matrix."""
    negative, positive = cells[:, 0], cells[:, 1]
    scores = positive - negative
    paid = np.full(len(negatives), negative.sum())
    for column in negatives.T:
        paid += scores[column]
    return paid


def _checked_index(index, rows: int) -> np.ndarray:
    """index as an integer array inside [0, rows), else a ValueError; an
    empty index passes whatever its dtype (np.asarray([]) is float64)."""
    index = np.asarray(index)
    if index.size and (index.dtype.kind not in "iu" or index.min() < 0 or index.max() >= rows):
        raise ValueError(f"indices must be integers in [0, {rows}), got {index.dtype} {index}")
    return index.astype(np.intp, copy=False)


def _mistake_products(matrix: np.ndarray, counts: np.ndarray):
    """Yield (a0, paid) for consecutive row chunks [a0, a1) of a -1/+1 label
    matrix: paid[i, t] is the mistake count of row a0 + i on the t-th table
    of a (T, u, 2) stack of table counts.

    With P = (matrix == 1), a row pays P·(c₋ − c₊) + Σc₊. The product is
    float64 while every table holds under 2**53 samples, so every partial
    sum is an exact integer, and int64 otherwise; paid has its dtype. A
    chunk spans about _KERNEL_CHUNK_CELLS operand and _KERNEL_OUTPUT_CELLS
    output cells.
    """
    negative, positive = counts[:, :, 0], counts[:, :, 1]
    dtype = np.float64 if counts.sum(axis=(1, 2)).max() < _FLOAT_EXACT else np.int64
    weights = np.ascontiguousarray((negative - positive).T, dtype=dtype)
    paid_positive = positive.sum(axis=1)
    step = max(1, min(_KERNEL_CHUNK_CELLS // matrix.shape[1], _KERNEL_OUTPUT_CELLS // len(counts)))
    for a0 in range(0, matrix.shape[0], step):
        paid = (matrix[a0 : a0 + step] == 1).astype(dtype) @ weights
        paid += paid_positive
        yield a0, paid


def _least_mistakes(klass: HypothesisClass, tables) -> tuple:
    """For each table, the lowest member index with the fewest mistakes, and
    that count.

    An exact-negatives class reads its closed form: a member with negatives
    S pays Σc₋ + Σ_{x∈S} s(x), with scores s = c₊ − c₋, so the fewest
    mistakes take the d lowest scores, and taking tied scores lowest point
    first gives the lexicographically first such S, the lowest rank. Any
    other class takes one product of its label matrix with the stacked
    tables per row chunk, reduced to a running per-table minimum as the
    chunks arrive."""
    counts = np.stack([table.counts for table in tables])
    if klass._negative_points() is not None:
        u, d = klass._negative_spec
        scores = counts[:, :, 1] - counts[:, :, 0]
        lowest = np.argsort(scores, axis=1, kind="stable")[:, :d]
        paid = scores[np.arange(len(tables))[:, None], lowest].sum(axis=1)
        ranks = [_subset_rank(u, d, sorted(subset)) for subset in lowest.tolist()]
        return ranks, counts[:, :, 0].sum(axis=1) + paid
    columns = np.arange(len(tables))
    best = least = None
    for a0, paid in _mistake_products(klass.matrix, counts):
        local = paid.argmin(axis=0)
        value = paid[local, columns]
        if best is None:
            best, least = local, value
        else:
            better = value < least
            best = np.where(better, a0 + local, best)
            least = np.where(better, value, least)
    return best, least.astype(np.int64)


def _trusted_class(matrix: np.ndarray, declared_vc: int | None) -> HypothesisClass:
    """Wrap a nonempty int8 matrix of distinct -1/+1 rows the package derived
    from a validated class, skipping validation; the matrix becomes read-only."""
    klass = HypothesisClass.__new__(HypothesisClass)
    _init_class(klass, matrix, declared_vc)
    return klass


def _enumeration_refusal(rows: int, points: int) -> str | None:
    """Why a class of rows members over points points is past
    DEFAULT_ENUMERATION_CAP rows or _ENUMERATION_CELLS cells, else None."""
    if rows > DEFAULT_ENUMERATION_CAP:
        return f"class of size {rows} exceeds the enumeration cap of {DEFAULT_ENUMERATION_CAP}"
    if rows * points > _ENUMERATION_CELLS:
        return f"class of {rows} x {points} labels exceeds {_ENUMERATION_CELLS} cells"
    return None


def _require_enumerable(rows: int, points: int) -> None:
    """Refuse a label matrix or negatives index past the caps
    (_enumeration_refusal), before anything of its size is allocated."""
    refusal = _enumeration_refusal(rows, points)
    if refusal:
        raise ValueError(refusal)


def enumerate_class(klass: HypothesisClass) -> HypothesisClass:
    """Force materialization of the label matrix (HypothesisClass.matrix)."""
    klass.matrix
    return klass


def subset_unrank(u: int, d: int, rank: int) -> np.ndarray:
    """The sorted d-subset of range(u) at a lexicographic rank."""
    rank = _integer(rank, "rank")
    if not 0 <= rank < math.comb(u, d):
        raise ValueError(f"rank {rank} out of range for {u} choose {d}")
    out = np.empty(d, dtype=np.int64)
    remaining = rank
    element = 0
    for position in range(d):
        while True:
            below = math.comb(u - element - 1, d - position - 1)
            if remaining < below:
                break
            remaining -= below
            element += 1
        out[position] = element
        element += 1
    return out


def subset_rank(u: int, d: int, subset) -> int:
    """Lexicographic rank of a strictly increasing d-subset of range(u),
    given as integers; the empty subset ranks 0."""
    arr = np.asarray(subset)
    fenced = [-1, *arr.ravel().tolist(), u]
    if (
        arr.shape != (d,)
        or (d and arr.dtype.kind not in "iu")
        or any(a >= b for a, b in zip(fenced, fenced[1:]))
    ):
        raise ValueError("subset must be d strictly increasing integers within range(u)")
    return _subset_rank(u, d, fenced[1:-1])


def _subset_rank(u: int, d: int, subset: list) -> int:
    """subset_rank of a list of ints known to be a strictly increasing
    d-subset of range(u), unchecked."""
    # The subsets that branch off below element at this position number
    # sum over skipped s of C(u - s - 1, left - 1), which the hockey-stick
    # identity telescopes to two binomials.
    rank = 0
    previous = -1
    for position, element in enumerate(subset):
        left = d - position
        rank += math.comb(u - previous - 1, left) - math.comb(u - element, left)
        previous = element
    return rank


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Joint distribution over (point, label) cells.

    mass[i, 0] is the probability of drawing point i with label -1 and
    mass[i, 1] the probability of label +1 there. Entries are nonnegative
    and total 1 within 1e-9; nothing is silently renormalized.
    """

    mass: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.mass, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
            raise ValueError("mass must have shape (domain size, 2)")
        if (arr < 0).any():
            raise ValueError("mass entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mass must sum to 1, got {total!r}")
        _init_distribution(self, arr)

    @property
    def domain_size(self) -> int:
        return int(self.mass.shape[0])

    @property
    def has_deterministic_labels(self) -> bool:
        """True when no point carries mass on both labels."""
        return bool(((self.mass[:, 0] == 0.0) | (self.mass[:, 1] == 0.0)).all())

    def point_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @classmethod
    def deterministic(cls, marginal, labels) -> "DiscreteDistribution":
        """Distribution with the given point masses and fixed labels."""
        marg = np.asarray(marginal, dtype=np.float64)
        lab = np.asarray(labels)
        if marg.shape != lab.shape:
            raise ValueError("marginal and labels must have matching shapes")
        mass = np.zeros((marg.size, 2))
        mass[np.arange(marg.size), (lab == 1).astype(np.intp)] = marg
        return cls(mass)

    @classmethod
    def uniform_deterministic(cls, labels) -> "DiscreteDistribution":
        lab = np.asarray(labels)
        return cls.deterministic(np.full(lab.size, 1.0 / lab.size), lab)


def _init_distribution(dist: DiscreteDistribution, mass: np.ndarray) -> None:
    mass.setflags(write=False)
    object.__setattr__(dist, "mass", mass)


def _trusted_distribution(mass: np.ndarray) -> DiscreteDistribution:
    """Wrap a float64 (u, 2) mass table the package derived from a validated
    distribution, skipping validation; the table becomes read-only."""
    dist = object.__new__(DiscreteDistribution)
    _init_distribution(dist, mass)
    return dist


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered sample of (point, label) pairs over a finite domain."""

    points: np.ndarray
    labels: np.ndarray
    domain_size: int

    def __post_init__(self) -> None:
        raw_pts = np.asarray(self.points)
        raw_lab = np.asarray(self.labels)
        if raw_pts.ndim != 1 or raw_lab.ndim != 1 or raw_pts.size != raw_lab.size:
            raise ValueError("points and labels must be equal-length vectors")
        if raw_pts.size:
            if raw_pts.dtype.kind not in "iu":
                raise ValueError("point indices must be integers")
            if raw_pts.min() < 0 or raw_pts.max() >= self.domain_size:
                raise ValueError("point indices must lie inside the domain")
        _require_signs(raw_lab, "labels")
        pts = np.array(raw_pts, dtype=np.int64, copy=True)
        lab = np.array(raw_lab, dtype=np.int8, copy=True)
        _init_dataset(self, pts, lab)

    def __len__(self) -> int:
        return int(self.points.size)

    def take(self, index) -> "Dataset":
        """Sub-dataset by slice, index array, or boolean mask."""
        return Dataset(self.points[index], self.labels[index], self.domain_size)


def _init_dataset(data: Dataset, points: np.ndarray, labels: np.ndarray) -> None:
    points.setflags(write=False)
    labels.setflags(write=False)
    object.__setattr__(data, "points", points)
    object.__setattr__(data, "labels", labels)


def _trusted_dataset(points: np.ndarray, labels: np.ndarray, domain_size: int) -> Dataset:
    """Wrap int64 points inside the domain and equally many int8 -1/+1
    labels the package drew itself, skipping validation; both become
    read-only."""
    data = object.__new__(Dataset)
    object.__setattr__(data, "domain_size", domain_size)
    _init_dataset(data, points, labels)
    return data


def sample_dataset(dist: DiscreteDistribution, n: int, rng) -> Dataset:
    """Draw n i.i.d. samples from the joint mass table.

    rng may be an RngStream (a fresh generator is taken from it) or an
    already-positioned numpy Generator. The sample's cells, point-major, and
    the generator's state after the draw are those of
    gen.choice(2 * u, n, p=_cell_probabilities(dist.mass)) (see _choice).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    cells = _choice(gen, _cell_probabilities(dist.mass), n)
    return _trusted_dataset(cells >> 1, 2 * (cells & 1).astype(np.int8) - 1, dist.domain_size)


def _choice(gen: np.random.Generator, probabilities: np.ndarray, n: int) -> np.ndarray:
    """gen.choice(probabilities.size, n, p=probabilities) as int64 indices,
    value for value and with the same generator state after it, without a
    binary search per draw.

    choice takes cdf = p.cumsum() divided by its last entry, and returns
    cdf.searchsorted(gen.random(n), 'right'). That index never falls as the
    uniform grows, so all uniforms of the bucket [b/B, (b+1)/B), with
    B = _GUIDE_BUCKETS, map between its ends' indices
    cdf.searchsorted(b/B, 'right') and cdf.searchsorted((b+1)/B, 'left').
    Where those are equal the bucket gives the index, and only the uniforms
    of the other buckets, those holding a cdf value, are searched. B is a
    power of two, so a uniform's bucket floor(u·B) is exact.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    uniforms = gen.random(n)
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    low = cdf.searchsorted(edges[:-1], "right")
    guide = np.where(low == cdf.searchsorted(edges[1:], "left"), low, -1)
    cells = guide[(uniforms * _GUIDE_BUCKETS).astype(np.intp)]
    searched = np.flatnonzero(cells < 0)
    cells[searched] = cdf.searchsorted(uniforms[searched], "right")
    return cells


@dataclass(frozen=True, eq=False)
class CountTable:
    """A sample with its order forgotten: occurrences of each (point, label) cell.

    counts[i, 0] counts draws of point i with label -1 and counts[i, 1]
    draws with label +1. Every learner and empirical measure reads a sample
    only through these totals, so a table costs O(domain) whatever the
    sample size. len() is the number of samples.
    """

    counts: np.ndarray
    size: int = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.counts)
        if raw.ndim != 2 or raw.shape[1] != 2 or raw.shape[0] == 0:
            raise ValueError("counts must have shape (domain size, 2)")
        if raw.dtype.kind not in "biu":
            raise ValueError("counts must be integers")
        if (raw < 0).any():
            raise ValueError("counts must be nonnegative")
        _init_table(self, np.array(raw, dtype=np.int64, copy=True))

    @classmethod
    def of(cls, data) -> "CountTable":
        """The table of a Dataset; a CountTable is returned as it is."""
        if isinstance(data, CountTable):
            return data
        return _trusted_table(
            _cell_counts(data.points, data.labels, data.domain_size)
        )

    def __len__(self) -> int:
        return self.size

    @property
    def domain_size(self) -> int:
        return int(self.counts.shape[0])

    def point_counts(self) -> np.ndarray:
        """Occurrences of each point, labels merged."""
        return self.counts.sum(axis=1)

    def mistakes(self, labels):
        """Mistake count of a label vector, or of each row of a label matrix
        or member of a HypothesisClass: for an exact-negatives class, the
        closed form on its negatives index (_negatives_sums); otherwise rows
        of the mistake kernel (_mistake_products) on this one table."""
        if isinstance(labels, HypothesisClass):
            negatives = labels._negative_points()
            if negatives is not None:
                return _negatives_sums(negatives, self.counts)
            labels = labels.matrix
        matrix = np.asarray(labels)
        rows = matrix if matrix.ndim == 2 else matrix[None]
        paid = np.empty(len(rows), dtype=np.int64)
        for a0, block in _mistake_products(rows, self.counts[None]):
            paid[a0 : a0 + len(block)] = block[:, 0]
        return paid if matrix.ndim == 2 else paid[0]

    def restrict(self, mask: np.ndarray) -> "CountTable":
        """The samples that fall on the points where mask is true."""
        return _trusted_table(np.where(mask[:, None], self.counts, 0))


def _init_table(table: CountTable, counts: np.ndarray, size: int | None = None) -> None:
    counts.setflags(write=False)
    object.__setattr__(table, "counts", counts)
    object.__setattr__(table, "size", int(counts.sum()) if size is None else size)


def _trusted_table(counts: np.ndarray, size: int | None = None) -> CountTable:
    """Wrap int64 counts the package computed itself, skipping validation;
    size, when given, must be their total."""
    table = object.__new__(CountTable)
    _init_table(table, counts, size)
    return table


def _cell_counts(points: np.ndarray, labels: np.ndarray, domain_size: int) -> np.ndarray:
    cells = points * 2 + (labels == 1)
    return np.bincount(cells, minlength=2 * domain_size).reshape(-1, 2)


class SamplePieces:
    """A sample of known size, handed out as contiguous pieces of counts.

    take_many(sizes) returns the stacked counts of the next len(sizes)
    pieces, a run of pieces, with one call of the source, and wraps none of
    them as a table; take(size) is the run of one, read as a CountTable.
    The pieces come either from an ordered Dataset by exact slicing (of),
    or are drawn from a distribution (drawn): a run is one multinomial call
    over the array of its sizes. numpy draws the trials of an array n one
    after another from the same bit stream, so a run's counts, and the
    generator's state after it, equal those of one call per piece. Given
    the pieces already taken, the rest of an i.i.d. sample is independent
    of them, so drawn pieces have exactly the law of slicing n ordered
    draws, at O(domain) cost per piece whatever its size. Draws happen in
    the order the pieces are taken; drawn_batch makes samples that share
    one generator and draw what each would from its own.
    """

    __slots__ = ("domain_size", "_draw", "_cursor", "_stop")

    def __init__(self, size: int, domain_size: int, draw):
        """draw(start, sizes) must return the stacked int64 (len(sizes),
        domain_size, 2) counts of the consecutive pieces of those sizes from
        position start on. It is called once per run, with a nonempty list."""
        if size < 0:
            raise ValueError("size must be nonnegative")
        self.domain_size = int(domain_size)
        self._draw = draw
        self._cursor = 0
        self._stop = size

    @classmethod
    def of(cls, data) -> "SamplePieces":
        """Pieces of a Dataset, by exact slicing and counting; SamplePieces
        are returned as they are."""
        if isinstance(data, SamplePieces):
            return data
        u = data.domain_size

        def draw_run(start: int, sizes: list) -> np.ndarray:
            # Point x of the run's k-th piece is counted as point k*u + x.
            window = slice(start, start + sum(sizes))
            shift = np.repeat(np.arange(len(sizes)) * u, sizes)
            counts = _cell_counts(data.points[window] + shift, data.labels[window], len(sizes) * u)
            return counts.reshape(len(sizes), u, 2)

        return cls(len(data), u, draw_run)

    @classmethod
    def drawn(cls, dist: DiscreteDistribution, n: int, rng) -> "SamplePieces":
        """n i.i.d. samples from the joint mass table, drawn run by run.

        rng may be an RngStream (a fresh generator is taken from it) or an
        already-positioned numpy Generator.
        """
        if n < 1:
            raise ValueError("need at least one sample")
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        probabilities = _cell_probabilities(dist.mass)
        u = dist.domain_size

        def draw_run(start: int, sizes: list) -> np.ndarray:
            return _multinomial_run(gen, probabilities, sizes, u)

        return cls(n, u, draw_run)

    @classmethod
    def drawn_batch(cls, dist: DiscreteDistribution, sizes, streams) -> list["SamplePieces"]:
        """drawn(dist, n, stream) for each n of sizes and its stream, all
        drawing from one generator.

        Before a sample's first run the generator is re-keyed to the
        sample's stream (_restart); before a later run it gets back the
        state the sample's previous run left, saved then unless that run
        took the sample's last samples. So every sample's tables equal
        those of its own fresh generator, in whatever order the samples'
        runs are taken, for a re-key and a saved state per sample instead of
        a fresh generator. The samples share the generator, so one thread
        draws them all.
        """
        if len(sizes) != len(streams):
            raise ValueError(f"{len(sizes)} sample sizes for {len(streams)} streams")
        if any(n < 1 for n in sizes):
            raise ValueError("need at least one sample")
        if not sizes:
            return []
        gen = streams[0].generator()
        probabilities = _cell_probabilities(dist.mass)
        u = dist.domain_size

        def pieces(n: int, stream: RngStream) -> "SamplePieces":
            state = None

            def draw_run(start: int, run_sizes: list) -> np.ndarray:
                nonlocal state
                if state is None:
                    _restart(gen, stream)
                else:
                    gen.bit_generator.state = state
                counts = _multinomial_run(gen, probabilities, run_sizes, u)
                if start + sum(run_sizes) < n:
                    state = gen.bit_generator.state
                return counts

            return cls(n, u, draw_run)

        return [pieces(n, stream) for n, stream in zip(sizes, streams)]

    def __len__(self) -> int:
        """Samples not yet handed out."""
        return self._stop - self._cursor

    def take(self, size: int) -> CountTable:
        """The table of the next size samples."""
        return _trusted_table(self.take_many([size])[0], size)

    def take_many(self, sizes) -> np.ndarray:
        """The read-only stacked (len(sizes), domain_size, 2) counts of the
        next pieces of the given sizes, in order, with one call of the
        source; row k counts the k-th piece, whose size is sizes[k]."""
        sizes = [int(size) for size in sizes]
        total = sum(sizes)
        if min(sizes, default=0) < 0:
            raise ValueError(f"cannot take a negative number of samples, got {sizes}")
        if total > len(self):
            raise ValueError(f"cannot take {total} of {len(self)} remaining samples")
        if not sizes:
            counts = np.zeros((0, self.domain_size, 2), dtype=np.int64)
        else:
            counts = self._draw(self._cursor, sizes)
            self._cursor += total
        counts.setflags(write=False)
        return counts


def _cell_probabilities(mass: np.ndarray) -> np.ndarray:
    """A (u, 2) mass table's cells as multinomial probabilities,
    point-major: what every draw from a mass table samples from."""
    flat = mass.reshape(-1)
    return flat / flat.sum()


def _multinomial_run(gen: np.random.Generator, probabilities, sizes: list, u: int) -> np.ndarray:
    """The stacked (len(sizes), u, 2) counts of a run of drawn pieces: one
    multinomial call over the array of their sizes."""
    # The same draws either way; numpy's array-n path costs about 11 µs
    # more per call (2-core Xeon, 100 cells), which a one-piece run would
    # pay for nothing.
    n = sizes[0] if len(sizes) == 1 else sizes
    return gen.multinomial(n, probabilities).reshape(len(sizes), u, 2)


def vc_dimension_bruteforce(klass: HypothesisClass) -> int:
    """Largest k such that some k points realize all 2**k labelings.

    Exhaustive over point subsets, so the domain size is capped at
    _BRUTEFORCE_DOMAIN points; large combinatorial families should rely on
    declared_vc instead.
    """
    u = klass.domain_size
    if u > _BRUTEFORCE_DOMAIN:
        raise ValueError(
            f"domain size {u} exceeds the brute-force limit of {_BRUTEFORCE_DOMAIN}; "
            "use the class's declared_vc for known families"
        )
    mat = enumerate_class(klass).matrix
    best = 0
    for k in range(1, u + 1):
        if 2**k > mat.shape[0]:
            break
        shattered = False
        for subset in combinations(range(u), k):
            if np.unique(mat[:, subset], axis=0).shape[0] == 2**k:
                shattered = True
                break
        if not shattered:
            break
        best = k
    return best
