"""Test-side reference: Gauss-Jordan reduction over any exact field of entries."""


def rref(m: list, width: int, is_zero) -> tuple:
    """Reduce m in place to reduced row echelon form over its first `width` columns.

    Rows are pivoted on the first nonzero entry at or below the current row,
    so the pivots are the ones forward elimination finds.  Returns the pivot
    columns and the product of the pivots with one sign flip per row swap
    (the determinant when m is square and every column has a pivot).
    """
    pivots = []
    det = 1
    r = 0
    for c in range(width):
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if not is_zero(m[i][c])), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            det = -det
        pv = m[r][c]
        det = det * pv
        inv = 1 / pv
        m[r][c:] = [v * inv for v in m[r][c:]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i][c:] = [vi - f * vr for vi, vr in zip(m[i][c:], m[r][c:])]
        pivots.append(c)
        r += 1
    return pivots, det
