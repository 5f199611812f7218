"""Exact integer and rational linear algebra.

Every computation in this package runs on plain Python ints and
fractions.Fraction; floats are only drawn (`render_svg`) or read as the
exact double of a JSON float edge rule point.  Matrices are lists of rows;
`rank` and `nullity` also take each row as {column: entry}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

IntMatrix = list[list[int]]


class LinalgError(ValueError):
    pass


def identity(n: int) -> IntMatrix:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    return m


def det(a) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def hnf(a: IntMatrix) -> IntMatrix:
    """Row Hermite normal form H = U*A, U unimodular (not kept): pivots
    positive and entries above each pivot reduced into [0, pivot)."""
    if not a:
        raise LinalgError("hnf of empty matrix")
    h = [row[:] for row in a]
    m, n = len(h), len(h[0])
    r = 0
    for c in range(n):
        # gcd-reduce column c below row r
        while True:
            rows = [i for i in range(r, m) if h[i][c] != 0]
            if not rows:
                break
            piv = min(rows, key=lambda i: abs(h[i][c]))
            if piv != r:
                h[r], h[piv] = h[piv], h[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
        if r == m:
            break
    return h


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Smith normal form: returns (S, W) with S = U*A*V diagonal, d1|d2|...,
    for unimodular U and V (neither kept), and W = V^-1.

    Each column move on S is made on W as the inverse row move.
    """
    if not a:
        raise LinalgError("snf of empty matrix")
    s = [row[:] for row in a]
    m, n = len(s), len(s[0])
    w = identity(n)
    for t in range(min(m, n)):
        piv = _pivot(s, t)
        if piv is None:
            break
        s[t], s[piv[0]] = s[piv[0]], s[t]
        _swap_cols(s, w, t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                    if s[i][t] != 0:
                        s[t], s[i] = s[i], s[t]
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    _col_op(s, w, j, t, q)
                    if s[t][j] != 0:
                        _swap_cols(s, w, t, j)
                        dirty = True
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
    # enforce divisibility d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a_, b_ = s[i][i], s[i + 1][i + 1]
            if b_ % a_ if a_ else b_:
                # fold b into a: standard trick via one extra reduction round
                _col_op(s, w, i, i + 1, -1)  # col i += col i+1
                # now redo the elimination at position i
                _resmith(s, w, i)
                changed = True
    return s, w


def _pivot(s, t):
    """(row, column) of the first entry, row by row, of least nonzero
    absolute value in the block of S below and right of (t, t); None when
    that block is zero."""
    piv, best = None, 0
    for i in range(t, len(s)):
        row = s[i]
        for j in range(t, len(row)):
            x = abs(row[j])
            if x and (x < best or not best):
                best, piv = x, (i, j)
    return piv


def _col_op(s, w, j, i, q):
    """Column j -= q * column i on S; row i += q * row j on W."""
    for row in s:
        row[j] -= q * row[i]
    w[i] = [x + q * y for x, y in zip(w[i], w[j])]


def _swap_cols(s, w, i, j):
    """Swap columns i and j of S, rows i and j of W."""
    if i != j:
        for row in s:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]


def _resmith(s, w, t):
    m, n = len(s), len(s[0])
    while True:
        piv = _pivot(s, t)
        if piv is None:
            return
        if piv != (t, t):
            s[t], s[piv[0]] = s[piv[0]], s[t]
            _swap_cols(s, w, t, piv[1])
        clean = True
        for i in range(t + 1, m):
            if s[i][t] != 0:
                q = s[i][t] // s[t][t]
                s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                if s[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if s[t][j] != 0:
                q = s[t][j] // s[t][t]
                _col_op(s, w, j, t, q)
                if s[t][j] != 0:
                    clean = False
        if clean:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            t += 1
            if t >= min(m, n):
                return


def clear_denominators(rows) -> tuple[IntMatrix, int]:
    """(d * rows, d) for the least common denominator d of all entries of
    the rational rows; the scaled rows are plain ints."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _sparse_row(row) -> dict[int, int]:
    """Primitive integer row on the ray through a rational row, given as a
    list or as {column: entry}, held as {column: entry} over its nonzero
    entries."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    out = {j: x for j, x in items if x}
    if any(type(x) is not int for x in out.values()):
        (ints,), _ = clear_denominators([out.values()])
        out = dict(zip(out, ints))
    return _divided_by_gcd(out)


def _divided_by_gcd(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _echelon(a, lightest_first=False
             ) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free reduced row echelon form of a rational matrix.

    Rows are kept as primitive integer vectors, each held as {column:
    entry} over its nonzero entries, and each column knows which rows hold
    it.  Columns are taken in ascending order, or with `lightest_first` in
    ascending order of the number of rows that hold them.  A column's pivot
    is the sparsest row holding it among those not yet pivots, and only the
    rows holding the column are combined with it, which clears the column
    above and below the pivot.  Returns (rows,
    pivot_columns); rows[i] carries the pivot in pivot_columns[i], and the
    rows after the last pivot row are what is left of the rest.
    """
    rows = [_sparse_row(row) for row in a]
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    cols = sorted(holders)
    if lightest_first:
        cols.sort(key=lambda c: len(holders[c]))
    free = set(range(len(rows)))  # rows that are not pivots yet
    pivots, pivot_rows = [], []
    for c in cols:
        if not free:
            break
        held = holders[c]
        cands = held & free
        if not cands:
            continue
        r = min(cands, key=lambda i: (len(rows[i]), i))
        free.discard(r)
        prow, p = rows[r], rows[r][c]
        for i in held - {r}:
            row, f = rows[i], rows[i][c]
            new = dict(row) if p == 1 else {j: p * x for j, x in row.items()}
            for j, y in prow.items():
                x = new.get(j, 0) - f * y
                if x:
                    new[j] = x
                    holders[j].add(i)
                else:
                    del new[j]
                    holders[j].discard(i)
            rows[i] = _divided_by_gcd(new)
        pivots.append(c)
        pivot_rows.append(r)
    left = [rows[i] for i in sorted(free)]
    return [rows[r] for r in pivot_rows] + left, pivots


def rank(a) -> int:
    """Rank of a rational matrix."""
    return len(_echelon(a, lightest_first=True)[1])


def kernel_basis(a) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space of a rational matrix.

    Returns vectors with a unit entry in each free column (deterministic
    reduced-echelon construction); dimension equals cols - rank.
    """
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = _echelon(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            if fc in row:
                vec[c] = Fraction(-row[fc], row[c])
        basis.append(tuple(vec))
    return basis


def nullity(a, ncols: int) -> int:
    """Dimension of the null space of the rows `a` in `ncols` unknowns."""
    return ncols - rank(a)


def saturate(basis: list) -> list[list[int]]:
    """Basis of the saturation of the sublattice spanned by integer rows."""
    if any(x.denominator != 1 for r in basis for x in r):
        raise LinalgError("saturate needs integer rows")
    rows = [list(map(int, r)) for r in basis if any(r)]
    if not rows:
        return []
    h = [r for r in hnf(rows) if any(r)]
    # rowspan_Q(H) = span of the first r rows of V^{-1}, a saturated basis
    # since V is unimodular
    _, w = snf(h)
    return w[:len(h)]


def solve_in_span(rows: list, target) -> list[Fraction] | None:
    """Solve x * rows = target over Q; None if target is outside the span."""
    if not rows:
        return None if any(target) else []
    ncols = len(rows[0])
    nvars = len(rows)
    aug = [[rows[i][c] for i in range(nvars)] + [target[c]]
           for c in range(ncols)]
    # the target column is read last, when a row with no pivot holds it
    # alone: it is a pivot exactly when the target is outside the span
    m, pivots = _echelon(aug)
    if nvars in pivots:
        return None
    sol = [Fraction(0)] * nvars
    for row, c in zip(m, pivots):
        sol[c] = Fraction(row.get(nvars, 0), row[c])
    # verify (free variables set to zero must actually solve the system)
    for c in range(ncols):
        if sum(sol[i] * rows[i][c] for i in range(nvars)) != target[c]:
            return None
    return sol


def primitive(vec) -> tuple[int, ...]:
    """Primitive integer vector on the ray through vec (clears denominators)."""
    if not any(vec):
        raise LinalgError("zero vector has no primitive representative")
    if not all(type(x) is int for x in vec):
        (vec,), _ = clear_denominators([vec])
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def lex_positive(vec) -> tuple[int, ...]:
    """Flip sign so the first nonzero coordinate is positive."""
    for x in vec:
        if x != 0:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    raise LinalgError("zero vector")
