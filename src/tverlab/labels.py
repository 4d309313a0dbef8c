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
through one run DP, :func:`_read`; the breaking set reads it both ways, so
that a monotone order takes two passes of it for the whole set.
"""

from __future__ import annotations

import itertools
import operator
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
    :func:`pair_bound` says breaks, or None when there is none.

    Index by index, it takes the least x after the last chosen one such that
    the fewest deletions that break, once x is deleted too, are fewer than
    the removals left: some breaking removal then holds the chosen indices
    and x.  No breaking removal that agrees with the chosen ones holds a y < x
    in x's place instead: y would have passed the same test.  Nor can one
    hold a y skipped before an earlier choice, which would have passed the
    test at that choice.  So the least index that some breaking removal holds
    is, choice by choice, the lexicographically first removal's.

    The fewest deletions after deleting x are the thinnest block's count,
    one less if x is in it, or a pair's fewest deletions, ``spare``, one less
    if x's letter is in the pair and the pair's longest subsequence of at
    most ``runs`` runs keeps its length without x.  That length is read off
    two run tables over reading positions (under ``order``) of the current
    string: ``fw[q]``, the :func:`_read` table after the positions before q,
    and ``bw[q + 1]``, the same table for the positions past q read from the
    end, so that its ``[e][f][j]`` starts in e (see :func:`_joined`).
    Deleting x at position q stales ``fw`` past q and ``bw`` up to q, and a
    trial rereads only the stale tables it needs: in a monotone order (the
    index order or its reverse) each letter is read at most twice in all,
    and in any other at most once more per chosen index."""
    masked, chosen = list(labels), []
    n = len(masked)
    counts = [masked.count(k) for k in range(r + 1)]
    pairs = list(itertools.combinations(range(r), 2)) if order is not None else []
    reading = sorted(range(n), key=order.__getitem__) if pairs else range(n)
    position = {i: q for q, i in enumerate(reading)}
    blank = [[(0,) * (runs + 1)] * r for _ in range(r)]
    tables = ([blank] + [None] * n, [None] * n + [blank])  # fw, bw
    fresh = [0, n]  # fw[:fresh[0] + 1] and bw[fresh[1]:] are of the current string

    def table(side, q):
        """``fw[q]`` (side 0) or ``bw[q]`` (side 1) of the current string,
        read on from its last fresh table towards q."""
        built, step = tables[side], 1 - 2 * side
        while (q - fresh[side]) * step > 0:
            p = fresh[side]
            kept, lab = built[p], masked[reading[p - side]] - 1
            if lab >= 0:
                kept = list(kept)
                kept[lab] = _read(built[p], lab)
            built[p + step] = kept
            fresh[side] = p + step
        return built[q]

    def without(q, a, b):
        """The fewest deletions that leave pair (a, b) at most ``runs``
        runs once the letter at reading position q is deleted too."""
        return (counts[a + 1] + counts[b + 1] - (masked[reading[q]] - 1 in (a, b))
                - _joined(table(0, q), table(1, q + 1), a, b))

    spare = {}  # each pair's fewest deletions, once a trial needs them
    for x, label in enumerate(labels, 1):
        left = size - len(chosen)
        if left <= 0:
            break
        q, thin = position[x - 1], min(counts[1:])
        breaks = thin - (label > 0 and counts[label] == thin) < left
        if not breaks and pairs:
            if not spare:
                # off the tables around the first trial that needs them,
                # which the later trials of a monotone order read on from
                spare = {(a, b): counts[a + 1] + counts[b + 1]
                         - _joined(table(0, q), table(1, q), a, b) for a, b in pairs}
            # deleting x takes at most one off a pair's fewest deletions,
            # and only where x's letter is in the pair
            breaks = any(cut < left or cut == left and label - 1 in (a, b)
                         and without(q, a, b) < left for (a, b), cut in spare.items())
        if not breaks:
            continue
        chosen.append(x)
        if label:
            # a pair with more fewest deletions than removals left never
            # decides again, as each removal takes off at most one
            for (a, b), cut in spare.items():
                if label - 1 in (a, b) and cut <= left:
                    spare[a, b] = without(q, a, b)
            fresh[0], fresh[1] = min(fresh[0], q), max(fresh[1], q + 1)
            masked[x - 1] = 0
            counts[label] -= 1
    return tuple(chosen) if len(chosen) >= size else None


def _joined(head, tail, a, b) -> int:
    """The longest subsequence of at most R runs of the a/b string around a
    left-out position, from the run table ``head`` of the letters before it
    and ``tail`` of those after it read from the end (R + 1 entries each): a
    prefix of at most j runs ending in e and a suffix of at most k runs
    starting in g join to j + k - [e = g] runs, and either may be empty."""
    ends_a, ends_b = head[a][b], head[b][a]
    # reversed, entry i of a suffix table is its entry for R - i runs
    starts_a, starts_b = tail[a][b][::-1], tail[b][a][::-1]
    # j runs before the gap take R - j after it, or R - j + 1 where they join
    return max(*map(operator.add, ends_a, starts_b), *map(operator.add, ends_b, starts_a),
               *map(operator.add, ends_a[1:], starts_a), *map(operator.add, ends_b[1:], starts_b))


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
    partitions that pass the block test and the pair bound's test.

    The caller picks where ``best`` starts: one below a value to yield the
    partitions that tie it too (``set_tolerance`` names the
    lexicographically first maximum), or at it to yield only those that
    could beat it (the value-only queries).  A node costs one pass over the
    ordered pairs of blocks, listed once per enumeration."""
    target = target or Target(best=-2, runs=None)
    runs = target.runs
    thin = (runs - 1) // 2 if runs else 0
    labels, counts = [0] * n, [0] * r
    kept = [[(0,) * ((runs or 0) + 1)] * r for _ in range(r)]
    pairs = list(itertools.permutations(range(r), 2)) if runs is not None else []

    def extend(i: int, used: int) -> Iterator[Partition]:
        best = target.best
        # no tolerance is below -1: to beat less, blocks need only be nonempty
        need = [(best + 2 + thin if best >= -1 else 1) - c for c in counts]
        # all later e's extend the longest subsequence of at most runs runs
        # ending in e without a new run, so f needs that many more to beat
        # best; all later f's extend the one of at most runs - 1 runs ending
        # in e with one new run, so e needs that many more (comparisons, not
        # max(): this loop is the node's cost)
        for e, f in pairs:
            longest = kept[e][f]
            slack = best + 2 - counts[e] - counts[f]
            more = slack + longest[runs]
            if more > need[f]:
                need[f] = more
            more = slack + longest[runs - 1]
            if more > need[e]:
                need[e] = more
        if sum([x for x in need if x > 0]) > n - i:
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
