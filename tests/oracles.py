"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written against the *definitions*, not the
library's algorithms: facet enumeration by the all-points-one-side test,
interval intersection on the line, polygon-style hull intersection at d=2
via Caratheodory, the phase-1 simplex and determinant by plain Fraction
elimination, and orientation by one Fraction determinant per tuple.  Tests
freeze values computed by these oracles and compare the library against
them; the oracles never call the code paths they check.
"""

import itertools
import random

from tverlab.errors import InputError
from tverlab.kernel import PointSet, Rational
from tverlab.labels import pair_bound

ZERO = Rational(0)
ONE = Rational(1)


# ---------------------------------------------------------------------------
# facets by the definition: d points whose affine span has everything else
# strictly on one side


def brute_force_facets(ps: PointSet):
    n = len(ps)
    d = ps.dim
    facets = set()
    for combo in itertools.combinations(range(n), d):
        spanning = [ps.points[i] for i in combo]
        # the side of q is the orientation of the spanning points and q; a
        # zero sign means q is on their affine span or they span no hyperplane
        sides = {
            fraction_orientation(spanning + [ps.points[j]], d)
            for j in range(n)
            if j not in combo
        }
        if 0 in sides or len(sides) != 1:
            continue
        facets.add(tuple(i + 1 for i in combo))
    return facets


# ---------------------------------------------------------------------------
# d=1 hull intersection (closed intervals pairwise-intersect by Helly)


def interval_common_point(blocks_values):
    lo = None
    hi = None
    for vals in blocks_values:
        if not vals:
            return None
        bmin, bmax = min(vals), max(vals)
        lo = bmin if lo is None or bmin > lo else lo
        hi = bmax if hi is None or bmax < hi else hi
    return lo if lo <= hi else None


# ---------------------------------------------------------------------------
# d=2 hull intersection for small blocks: some candidate point (a vertex or
# an edge-edge affine-span crossing) lies in both hulls (Caratheodory)


def point_in_hull_2d(q, pts):
    for p in pts:
        if tuple(p) == tuple(q):
            return True
    for a, b in itertools.combinations(pts, 2):
        # q on segment ab
        if fraction_orientation([a, b, q], 2) == 0:
            inside = all(
                min(a[c], b[c]) <= q[c] <= max(a[c], b[c]) for c in range(2)
            )
            if inside:
                return True
    for a, b, c in itertools.combinations(pts, 3):
        o = fraction_orientation([a, b, c], 2)
        if o == 0:
            continue
        s1 = fraction_orientation([a, b, q], 2)
        s2 = fraction_orientation([b, c, q], 2)
        s3 = fraction_orientation([c, a, q], 2)
        if all(s in (0, o) for s in (s1, s2, s3)):
            return True
    return False


def _segment_line_crossings(a1, a2, b1, b2):
    """Intersection point of the affine spans of two segments, if unique."""
    # solve a1 + s (a2-a1) = b1 + t (b2-b1)
    dxa = (a2[0] - a1[0], a2[1] - a1[1])
    dxb = (b2[0] - b1[0], b2[1] - b1[1])
    denom = dxa[0] * (-dxb[1]) - dxa[1] * (-dxb[0])
    if denom == 0:
        return None
    rhs = (b1[0] - a1[0], b1[1] - a1[1])
    s = (rhs[0] * (-dxb[1]) - rhs[1] * (-dxb[0])) / denom
    return (a1[0] + s * dxa[0], a1[1] + s * dxa[1])


def hulls_intersect_2d(A, B):
    candidates = [tuple(p) for p in A] + [tuple(p) for p in B]
    for a1, a2 in itertools.combinations(A, 2):
        for b1, b2 in itertools.combinations(B, 2):
            q = _segment_line_crossings(a1, a2, b1, b2)
            if q is not None:
                candidates.append(q)
    for q in candidates:
        if point_in_hull_2d(q, A) and point_in_hull_2d(q, B):
            return True
    return False


# ---------------------------------------------------------------------------
# partitions by the definition: every label string over 1..r that uses all
# r labels and names blocks by first appearance, in lexicographic order


def canonical_labelings(n, r):
    for labels in itertools.product(range(1, r + 1), repeat=n):
        first = list(dict.fromkeys(labels))
        if first == list(range(1, r + 1)):
            yield labels


def fewest_pair_deletions(string, r, runs):
    """Fewest letters to delete from ``string`` over 0..r (0 = already
    removed) so that some block 1..r has no letter left, or some pair of
    blocks has at most ``runs`` runs left: every deletion set, by size."""
    live = [i for i, label in enumerate(string) if label]
    for size in range(len(live) + 1):
        for deleted in itertools.combinations(live, size):
            left = [label for i, label in enumerate(string) if label and i not in deleted]
            if any(k not in left for k in range(1, r + 1)):
                return size
            for a, b in itertools.combinations(range(1, r + 1), 2):
                pair = [label for label in left if label in (a, b)]
                if 1 + sum(x != y for x, y in zip(pair, pair[1:])) <= runs:
                    return size
    raise AssertionError("deleting every letter empties a block")


def greedy_pair_breaking_set(labels, r, size, runs, order=None):
    """The lexicographically first removal of ``size`` indices that
    ``pair_bound`` says breaks, or None: index by index, the least x past the
    last chosen one whose deletion leaves the pair bound of the survivors
    below the removals left, each trial a whole pair bound of its own."""
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
# seeded rational point generators shared by tests


def seeded_int_points(seed, n, d, box=12, distinct=True):
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < n:
        p = tuple(rng.randint(-box, box) for _ in range(d))
        if distinct and p in seen:
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(d, pts)


def seeded_general_position_points(seed, n, d, box=40):
    """Distinct integer points with no d+1 on a common hyperplane."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        cand = tuple(Rational(rng.randint(-box, box)) for _ in range(d))
        if cand in pts:
            continue
        ok = True
        if len(pts) >= d:
            for combo in itertools.combinations(pts, d):
                if fraction_orientation(list(combo) + [cand], d) == 0:
                    ok = False
                    break
        if ok:
            pts.append(cand)
    return PointSet(d, pts)


def seeded_increasing_alphas(seed, n, lo=-60, hi=60):
    rng = random.Random(seed)
    vals = rng.sample(range(lo, hi + 1), n)
    return sorted(Rational(v) for v in vals)


# ---------------------------------------------------------------------------
# phase-1 Bland simplex and determinant over Fractions: the package's
# original elimination, kept to pin the integer tableau and Bareiss det to
# the same pivot path and values


def fraction_simplex(rows, rhs):
    """Decide ``A x = b, x >= 0`` on a Fraction tableau.

    Returns ``(status, payload, pivots)`` with status and payload exactly as
    :func:`tverlab.feasibility.solve_equality_feasibility` defines them.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise InputError("ragged constraint matrix")
    if m == 0:
        return "feasible", [], 0

    flips = []
    tableau = []
    for i in range(m):
        b = Rational(rhs[i])
        row = [Rational(v) for v in rows[i]]
        if b < 0:
            b = -b
            row = [-v for v in row]
            flips.append(-1)
        else:
            flips.append(1)
        # columns: n structural, m artificial, then rhs
        art = [ZERO] * m
        art[i] = ONE
        tableau.append(row + art + [b])

    # objective row holds reduced costs for `minimize sum of artificials`;
    # its rhs entry is minus the current objective value.
    width = n + m + 1
    obj = [ZERO] * width
    for j in range(width):
        col_sum = ZERO
        for i in range(m):
            col_sum += tableau[i][j]
        obj[j] = -col_sum
    for k in range(m):
        obj[n + k] += ONE

    basis = list(range(n, n + m))
    pivots = 0

    while True:
        entering = -1
        for j in range(n):  # artificials never re-enter
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        assert leaving >= 0, "phase-1 objective is bounded; no ratio row means a bug"
        _fraction_pivot(tableau, obj, leaving, entering)
        pivots += 1
        basis[leaving] = entering

    value = -obj[-1]
    if value == 0:
        x = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return "feasible", x, pivots
    multipliers = [flips[i] * (ONE - obj[n + i]) for i in range(m)]
    return "infeasible", multipliers, pivots


def _fraction_pivot(tableau, obj, row, col):
    pivot_row = tableau[row]
    pivot = pivot_row[col]
    if pivot != 1:
        inv = ONE / pivot
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    for other in tableau:
        if other is pivot_row:
            continue
        factor = other[col]
        if factor:
            for c, v in enumerate(pivot_row):
                if v:
                    other[c] -= factor * v
    factor = obj[col]
    if factor:
        for c, v in enumerate(pivot_row):
            if v:
                obj[c] -= factor * v


def fraction_det(matrix):
    """Determinant by Gaussian elimination over Fractions."""
    n = len(matrix)
    m = [[Rational(x) for x in row] for row in matrix]
    result = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if m[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            result = -result
        pivot = m[col][col]
        result *= pivot
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                factor /= pivot
                for c in range(col + 1, n):
                    m[r][c] -= factor * m[col][c]
    return result


def fraction_orientation(points, dim):
    """Sign of the Fraction determinant of the points with a leading-1 column."""
    if len(points) != dim + 1:
        raise InputError(f"orientation in R^{dim} needs {dim + 1} points")
    value = fraction_det([(ONE,) + tuple(p) for p in points])
    return (value > 0) - (value < 0)


def fraction_orientation_signs(points, dim):
    """``(indices, sign)`` of every (dim+1)-subset, 1-based, in lexicographic
    order: the per-tuple loop, one Fraction determinant for each subset."""
    for combo in itertools.combinations(range(len(points)), dim + 1):
        sign = fraction_orientation([points[i] for i in combo], dim)
        yield tuple(i + 1 for i in combo), sign


# ---------------------------------------------------------------------------
# the float phase-1 pass from the screen's key start, with dense row updates:
# every entry of every row with a nonzero entering entry, and of the
# objective, at every pivot; the screen's sparse pass must propose the same
# basis

#: the screen's float tolerance, as :data:`tverlab.feasibility._FLOAT_TOL`
FLOAT_TOL = 1e-9


def dense_float_basis(rows, rhs, keys):
    """``(basis, reached_zero)`` at the end of a float phase-1 simplex
    (Dantzig's rule) on a hull system ``A x = b`` whose first rows are its
    convexity rows, ``keys[k]`` a column of row k, or None at the iteration
    cap.  The start, on Fractions: each key pivoted into its convexity row;
    every other row divided by its largest absolute entry (1 for a zero
    row), negated where its rhs is negative; every column divided by its
    largest absolute entry in those rows (1 where they are all zero); each
    entry then rounded to a float.  The keys are basic in the convexity rows
    and artificials in the others, whose sum is the objective."""
    r, m = len(keys), len(rows)
    n = len(rows[0]) if m else 0
    table = [[Rational(v) for v in row] + [Rational(b)] for row, b in zip(rows, rhs)]
    for i, key in enumerate(keys):
        pivot_row = table[i] = [v / table[i][key] for v in table[i]]
        for h, row in enumerate(table):
            f = row[key]
            if h != i and f:
                table[h] = [v - f * w for v, w in zip(row, pivot_row)]
    for i in range(r, m):
        scale = max(abs(v) for v in table[i][:n]) or ONE
        scale = -scale if table[i][-1] < 0 else scale
        table[i] = [v / scale for v in table[i]]
    for j in range(n):
        top = max((abs(table[i][j]) for i in range(r, m)), default=ZERO) or ONE
        for row in table:
            row[j] /= top
    tableau = [[float(v) for v in row] for row in table]
    obj = [-sum(column) for column in zip(*tableau[r:])] if m > r else [0.0] * (n + 1)
    basis = list(keys) + list(range(n + r, n + m))
    for _ in range(10 * (m + n) + 10):
        entering = min(range(n), key=obj.__getitem__, default=-1)
        if entering < 0 or obj[entering] >= -FLOAT_TOL:
            return basis, obj[-1] >= -FLOAT_TOL
        leaving, best = -1, 0.0
        for i, row in enumerate(tableau):
            if row[entering] > FLOAT_TOL:
                ratio = max(row[-1], 0.0) / row[entering]
                if leaving < 0 or ratio < best:
                    leaving, best = i, ratio
        if leaving < 0:
            return None
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        pivot_row = tableau[leaving] = [v / pivot for v in pivot_row]
        for i, row in enumerate(tableau):
            f = row[entering]
            if i != leaving and f:
                tableau[i] = [v - f * w for v, w in zip(row, pivot_row)]
        f = obj[entering]
        obj = [v - f * w for v, w in zip(obj, pivot_row)]
        basis[leaving] = entering
    return None


# ---------------------------------------------------------------------------
# a linear system over Fractions: Gauss-Jordan elimination


def fraction_solution(aug, width):
    """The unique x with ``aug[:, :width] x = aug[:, width]`` as Fractions,
    or None when there is none or more than one."""
    m = [[Rational(v) for v in row] for row in aug]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            return None
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [v / m[rank][col] for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
    if any(row[width] for row in m[rank:]):
        return None
    return [m[k][width] for k in range(width)]


# ---------------------------------------------------------------------------
# eager Bareiss elimination: every row below the pivot is updated at every
# pivot, a zero in the pivot column included (a pure rescale); the lazy
# elimination must end with the same rank, sign, last pivot and matrix


def _eager_update(row, pivot_row, p, f, d):
    """Exact-division row step ``(v * p - f * w) // d`` of Bareiss elimination
    (``f`` is the row's pivot-column entry, ``d`` the previous pivot).  A row
    with ``f = 0`` under a pivot equal to the previous one is unchanged, and
    is returned as it is, the same list."""
    if not f and p == d:
        return row
    return [(v * p - f * w) // d for v, w in zip(row, pivot_row)]


def eager_bareiss(m, width):
    """Fraction-free forward elimination of integer rows in place, skipping
    columns without a pivot.  Returns ``(rank, sign of the row swaps, last
    pivot)``; every entry stays an integer minor of the starting matrix."""
    rank, sign, last = 0, 1, 1
    for col in range(width):
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        prow = m[rank]
        for r in range(rank + 1, len(m)):
            m[r] = _eager_update(m[r], prow, prow[col], m[r][col], last)
        last = prow[col]
        rank += 1
    return rank, sign, last


# ---------------------------------------------------------------------------
# certificate replays over Fractions: the rational conditions as stated, the
# package's replays before they moved to the integer lift


def fraction_witness_replays(point, coefficients, blocks, dim):
    """Every block's coefficients are nonnegative, sum to 1 and combine its
    points into ``point``."""
    if len(coefficients) != len(blocks):
        return False
    for block, coeffs in zip(blocks, coefficients):
        if len(coeffs) != len(block) or any(c < 0 for c in coeffs) or sum(coeffs, ZERO) != 1:
            return False
        combination = tuple(sum((lam * p[c] for p, lam in zip(block, coeffs)), ZERO)
                            for c in range(dim))
        if combination != tuple(point):
            return False
    return True


def fraction_farkas_replays(multipliers, blocks, dim):
    """``u . b > 0`` and ``u . A_j <= 0`` for every column j of the
    intersection system (a convexity row per block, then ``dim`` chain rows
    per consecutive pair): point p of block k gives ``u_k + (c_k - c_{k-1})
    . p``, c_k the multipliers of the chain rows between blocks k and k + 1."""
    u = multipliers
    r = len(blocks)
    if len(u) != r + (r - 1) * dim:
        return False
    chains = [()] + [u[r + k * dim : r + (k + 1) * dim] for k in range(r - 1)] + [()]
    for k, block in enumerate(blocks):
        w = [a - b for a, b in itertools.zip_longest(chains[k + 1], chains[k], fillvalue=0)]
        if any(sum((x * y for x, y in zip(p, w)), u[k]) > 0 for p in block):
            return False
    return sum(u[:r]) > 0
