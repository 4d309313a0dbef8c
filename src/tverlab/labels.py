"""Partitions as label strings, and the run rule read off them.

A partition of the indices 1..n into r blocks is its label string: the
block (1..r) of each index in index order, 0 marking a removed index.  On an
order-type homogeneous set (all ordered (d+1)-subsets have one nonzero
orientation sign) conv(A) meets conv(B) iff the A/B string, read in that
order, has at least d+2 runs: a basic solution of the intersection LP has
support <= d+2, and in general position a meeting pair needs exactly d+2
points, whose unique Radon partition alternates along the order because all
orientations share a sign; one point per run gives that partition.  The pair
bound, its breaking set and the partition branch and bound read a string
through one run DP, :func:`_read`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import InputError


@dataclass(frozen=True)
class Partition:
    """Assignment of 1-based point indices to r labeled nonempty blocks."""

    n: int
    r: int
    labels: Tuple[int, ...]  # labels[i] is the block (1..r) of index i+1

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.n:
            raise InputError(f"need {self.n} labels, got {len(self.labels)}")
        if self.n < self.r or self.r < 1:
            raise InputError(f"need n >= r >= 1, got n={self.n}, r={self.r}")
        if set(self.labels) != set(range(1, self.r + 1)):
            raise InputError("blocks must be nonempty and labeled 1..r")

    @classmethod
    def from_blocks(cls, n: int, blocks: Sequence[Sequence[int]]) -> "Partition":
        labels = [0] * n
        for k, block in enumerate(blocks, start=1):
            for i in block:
                if not 1 <= i <= n:
                    raise InputError(f"index {i} out of range 1..{n}")
                if labels[i - 1]:
                    raise InputError(f"index {i} assigned to two blocks")
                labels[i - 1] = k
        if 0 in labels:
            raise InputError("blocks do not cover all indices")
        return cls(n, len(blocks), labels)

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, split(range(1, self.n + 1), self.labels, self.r)))


def alternating_labels(n: int, r: int) -> Tuple[int, ...]:
    """Index j (1-based) in block (j - 1) mod r + 1; blocks past n stay empty."""
    return tuple(j % r + 1 for j in range(n))


def alternating_partition(n: int, r: int) -> Partition:
    """Blocks are residue classes of the 1-based index modulo r."""
    if n < r or r < 1:
        raise InputError(f"alternating partition needs n >= r >= 1, got n={n}, r={r}")
    return Partition(n, r, alternating_labels(n, r))


def split(items, labels, r: int) -> List[list]:
    """The r blocks of ``items`` under ``labels``: block k holds, in order,
    the items labeled k; label 0 marks a removed item.  Items are indices,
    points, integer lifts or line values alike."""
    blocks: List[list] = [[] for _ in range(r + 1)]
    for item, label in zip(items, labels):
        blocks[label].append(item)
    return blocks[1:]


def _run_step(same, other):
    """The run DP on reading one letter of a 0/1 string: ``same[j]`` and
    ``other[j]`` are the longest subsequences of at most j runs that end in
    that letter and in the other one; returns ``same`` after the letter."""
    # a list and a conditional, not a generator and max(): about twice as fast
    return (0, *[(s if s > o else o) + 1 for s, o in zip(same[1:], other)])


def _read(kept, lab):
    """Row ``lab`` of the run table after reading block ``lab`` (0-based):
    ``kept[e][f][j]`` is the longest subsequence of at most j runs of the
    e/f label string read so far that ends in e."""
    return [same if f == lab else _run_step(same, kept[f][lab])
            for f, same in enumerate(kept[lab])]


def pair_bound(labels, r: int, runs: int, order=None) -> int:
    """One less than the fewest deletions from ``labels`` that empty a block
    or, under a run ``order`` (each index's position), leave some pair's
    label string, read in that order, with at most ``runs`` runs.  Under the
    run rule with runs = d + 1 both break, so no tolerance exceeds it."""
    counts = [labels.count(k) for k in range(r + 1)]
    breaking = min(counts[1:])  # empty a block
    if order is not None:
        string = [label for _, label in sorted(zip(order, labels))]
        kept = [[(0,) * (runs + 1)] * r for _ in range(r)]
        for label in string:
            if label:
                kept[label - 1] = _read(kept, label - 1)
        for a, b in itertools.combinations(range(r), 2):
            longest = max(kept[a][b][runs], kept[b][a][runs])
            breaking = min(breaking, counts[a + 1] + counts[b + 1] - longest)
    return breaking - 1


def pair_breaking_set(labels, r: int, size: int, runs: int, order=None):
    """The lexicographically first removal of ``size`` indices that
    :func:`pair_bound` says breaks, where no smaller one does, or None.
    Index by index, it takes the least x after the last chosen one that
    leaves the pair bound of the survivors below the removals left: some
    such removal then holds x, and none holding an earlier x can exist."""
    masked, chosen = list(labels), []
    while len(chosen) < size:
        for x in range(chosen[-1] + 1 if chosen else 1, len(masked) + 1):
            label, masked[x - 1] = masked[x - 1], 0
            if pair_bound(masked, r, runs, order) < size - len(chosen) - 1:
                chosen.append(x)
                break
            masked[x - 1] = label
        else:
            return None
    return tuple(chosen)


# ---------------------------------------------------------------------------
# partition enumeration (restricted growth strings, lexicographic)


@dataclass
class Target:
    """The tolerance ``best`` that :func:`iter_partitions` must beat, raised
    by the caller as it goes; ``runs`` is d + 1 when the index order is a
    run order or its reverse, else None."""

    best: int
    runs: Optional[int]


def iter_partitions(n: int, r: int, target: Optional[Target] = None) -> Iterator[Partition]:
    """All partitions of 1..n into exactly r nonempty unordered blocks.

    Yields in lexicographic order of the canonical label string (blocks
    named by first appearance).  With a ``target``, a branch and bound for
    tolerance above b = ``target.best``, which needs b + 2 + floor(d/2)
    points in each block under a run order (see :func:`pair_bound`) and b + 2
    deletions to bring each pair's label string down to ``runs`` runs: a
    prefix is cut when its remaining positions cannot.  For a pair (e, f)
    the prefix's run DP gives two lower bounds on the longest subsequence
    with at most ``runs`` runs of the completed string: all later e's extend
    the longest one of at most ``runs`` runs that ends in e with no new run,
    and all later f's extend the longest one of at most ``runs - 1`` runs
    that ends in e with exactly one; each bound sets how many more letters
    of the block it leaves out are needed.  At a leaf no letters remain and
    the second bound is at most the first, so the cut yields exactly the
    partitions that pass the block test and the pair bound's test."""
    target = target or Target(best=-2, runs=None)
    runs = target.runs
    thin = (runs - 1) // 2 if runs else 0
    labels, counts = [0] * n, [0] * r
    kept = [[(0,) * ((runs or 0) + 1)] * r for _ in range(r)]

    def extend(i: int, used: int) -> Iterator[Partition]:
        best = target.best
        # no tolerance is below -1: to beat less, blocks need only be nonempty
        need = [(best + 2 + thin if best >= -1 else 1) - c for c in counts]
        if runs is not None:
            # all later e's extend the longest subsequence of at most runs
            # runs ending in e without a new run, so f needs that many more
            # to beat best; all later f's extend the one of at most runs - 1
            # runs ending in e with one new run, so e needs that many more
            for e, f in itertools.permutations(range(r), 2):
                slack = best + 2 - counts[e] - counts[f]
                need[f] = max(need[f], slack + kept[e][f][runs])
                need[e] = max(need[e], slack + kept[e][f][runs - 1])
        if sum(max(0, x) for x in need) > n - i:
            return
        if i == n:
            yield Partition(n, r, [lab + 1 for lab in labels])
            return
        for lab in range(min(used + 1, r)):
            labels[i] = lab
            counts[lab] += 1
            saved = kept[lab]
            if runs is not None:
                kept[lab] = _read(kept, lab)
            yield from extend(i + 1, max(used, lab + 1))
            kept[lab] = saved
            counts[lab] -= 1

    yield from extend(0, 0)
