"""Vectorized double-double (~31 digit) complex arithmetic and a batched
pivoted-elimination determinant.

Float-path polynomial reconstruction needs determinant values whose error
is far below the size of the smallest polynomial coefficients, otherwise
the divided-difference stage amplifies node noise past the 1e-9 contract.
Plain double determinants of the larger localizers are not accurate enough
for that, so the grid evaluation and the interpolation transforms run in
compensated double-double arithmetic.  A complex value is carried as four
float64 ndarrays (re_hi, re_lo, im_hi, im_lo); all helpers broadcast.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| elementwise (holds after a dd normalization step)
    s = a + b
    err = b - (s - a)
    return s, err


def _two_prod(a, b):
    p = a * b
    ah_t = _SPLITTER * a
    ah = ah_t - (ah_t - a)
    al = a - ah
    bh_t = _SPLITTER * b
    bh = bh_t - (bh_t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(xh, xl, yh, yl):
    sh, se = _two_sum(xh, yh)
    th, te = _two_sum(xl, yl)
    se = se + th
    sh, se = _quick_two_sum(sh, se)
    se = se + te
    return _quick_two_sum(sh, se)


def dd_sub(xh, xl, yh, yl):
    return dd_add(xh, xl, -yh, -yl)


def dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _quick_two_sum(p, e)


def dd_mul_d(xh, xl, y):
    p, e = _two_prod(xh, y)
    e = e + xl * y
    return _quick_two_sum(p, e)


def dd_div(xh, xl, yh, yl):
    q1 = xh / yh
    ph, pl = dd_mul_d(yh, yl, q1)
    rh, rl = dd_sub(xh, xl, ph, pl)
    q2 = (rh + rl) / yh
    ph, pl = dd_mul_d(yh, yl, q2)
    rh, rl = dd_sub(rh, rl, ph, pl)
    q3 = (rh + rl) / yh
    qh, ql = _quick_two_sum(q1, q2)
    return dd_add(qh, ql, q3, np.zeros_like(q3))


def dd_div_d(xh, xl, y):
    q1 = xh / y
    ph, pl = _two_prod(q1, y)
    rh, rl = dd_sub(xh, xl, ph, pl)
    q2 = (rh + rl) / y
    return _quick_two_sum(q1, q2)


# ---------------------------------------------------------------------------
# complex double-double: values are 4-tuples (re_hi, re_lo, im_hi, im_lo)


def cdd_from_complex(z: np.ndarray):
    z = np.asarray(z, dtype=complex)
    zero = np.zeros_like(z.real)
    return (z.real.copy(), zero.copy(), z.imag.copy(), zero.copy())


def cdd_to_complex(x) -> np.ndarray:
    rh, rl, ih, il = x
    return (rh + rl) + 1j * (ih + il)


def cdd_add(x, y):
    rh, rl = dd_add(x[0], x[1], y[0], y[1])
    ih, il = dd_add(x[2], x[3], y[2], y[3])
    return (rh, rl, ih, il)


def cdd_sub(x, y):
    rh, rl = dd_sub(x[0], x[1], y[0], y[1])
    ih, il = dd_sub(x[2], x[3], y[2], y[3])
    return (rh, rl, ih, il)


def cdd_mul(x, y):
    ac_h, ac_l = dd_mul(x[0], x[1], y[0], y[1])
    bd_h, bd_l = dd_mul(x[2], x[3], y[2], y[3])
    ad_h, ad_l = dd_mul(x[0], x[1], y[2], y[3])
    bc_h, bc_l = dd_mul(x[2], x[3], y[0], y[1])
    rh, rl = dd_sub(ac_h, ac_l, bd_h, bd_l)
    ih, il = dd_add(ad_h, ad_l, bc_h, bc_l)
    return (rh, rl, ih, il)


def cdd_mul_d(x, y):
    rh, rl = dd_mul_d(x[0], x[1], y)
    ih, il = dd_mul_d(x[2], x[3], y)
    return (rh, rl, ih, il)


def cdd_div(x, y):
    # x * conj(y) / |y|^2
    ych, ycl, yih, yil = y
    num = cdd_mul(x, (ych, ycl, -yih, -yil))
    n2a = dd_mul(ych, ycl, ych, ycl)
    n2b = dd_mul(yih, yil, yih, yil)
    nh, nl = dd_add(n2a[0], n2a[1], n2b[0], n2b[1])
    rh, rl = dd_div(num[0], num[1], nh, nl)
    ih, il = dd_div(num[2], num[3], nh, nl)
    return (rh, rl, ih, il)


def cdd_getitem(x, idx):
    return tuple(c[idx] for c in x)


def cdd_setitem(x, idx, value):
    for c, v in zip(x, value):
        c[idx] = v


def batched_cdd_det(a):
    """Determinants of a batch of complex double-double matrices.

    ``a`` is a 4-tuple of (N, m, m) float64 arrays; it is consumed.
    Partial pivoting on |re_hi| + |im_hi|; an exactly zero pivot column
    yields an exactly zero determinant for that batch member.
    """
    rh, rl, ih, il = a
    batch, m, _ = rh.shape
    rows = np.arange(batch)
    det = (np.ones(batch), np.zeros(batch), np.zeros(batch), np.zeros(batch))
    for k in range(m):
        if k < m - 1:
            mag = np.abs(rh[:, k:, k]) + np.abs(ih[:, k:, k])
            piv = mag.argmax(axis=1) + k
            moved = piv != k
            if moved.any():
                idx = np.nonzero(moved)[0]
                for arr in (rh, rl, ih, il):
                    tmp = arr[idx, k, :].copy()
                    arr[idx, k, :] = arr[idx, piv[idx], :]
                    arr[idx, piv[idx], :] = tmp
                det = tuple(np.where(moved, -c, c) for c in det)
        pivot = (
            rh[rows, k, k].copy(),
            rl[rows, k, k].copy(),
            ih[rows, k, k].copy(),
            il[rows, k, k].copy(),
        )
        det = cdd_mul(det, pivot)
        if k == m - 1:
            break
        dead = (pivot[0] == 0) & (pivot[2] == 0) & (pivot[1] == 0) & (pivot[3] == 0)
        if dead.any():
            safe = (
                np.where(dead, 1.0, pivot[0]),
                np.where(dead, 0.0, pivot[1]),
                np.where(dead, 0.0, pivot[2]),
                np.where(dead, 0.0, pivot[3]),
            )
        else:
            safe = pivot
        col = cdd_getitem((rh, rl, ih, il), (slice(None), slice(k + 1, None), k))
        factors = cdd_div(col, tuple(c[:, None] for c in safe))
        row = cdd_getitem((rh, rl, ih, il), (slice(None), k, slice(k + 1, None)))
        update = cdd_mul(
            tuple(c[:, :, None] for c in factors), tuple(c[:, None, :] for c in row)
        )
        blk = (slice(None), slice(k + 1, None), slice(k + 1, None))
        new_block = cdd_sub(cdd_getitem((rh, rl, ih, il), blk), update)
        cdd_setitem((rh, rl, ih, il), blk, new_block)
    return det
