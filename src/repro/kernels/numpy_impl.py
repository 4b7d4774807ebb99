"""Pure-numpy kernel implementations (the guaranteed fallback).

Every function mirrors a :mod:`repro.kernels.cpu` kernel with the *same
signature* (preallocated int64/float64 ``out``), so the registry can swap
backends without callers caring which one is live, and the parity suite
can run the interpreted per-lane kernels against these array passes
input-for-input.

The search kernels are lane-parallel binary lifting: a lane's answer is
``lo + #{data[lo:hi] < q}``, and that count is built one power of two at
a time, from the largest that fits the widest window down to 1.  Every
lane runs the same fixed sequence of in-place array passes (add, gather,
compare, masked add), so a batch resolves in
``O(log max_window)`` passes regardless of batch size, with no
data-dependent loop exit and no per-pass temporaries.  The
predict/fused mirrors compose the exact expressions the model classes use
in ``predict_pos_batch`` — same float64 operation order, so results are
bit-identical to the model-object path.
"""

from __future__ import annotations

import numpy as np


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def _lanes_lower_bound(data, queries, lo, hi):
    """Lane-parallel bounded lower bound by binary lifting.

    ``data`` is sorted, so ``#{data[lo:hi] < q}`` equals
    ``min(#{data[lo:] < q}, hi - lo)``, and the unbounded count is a
    prefix length: it is built greedily, one power of two at a time from
    the largest that fits the widest window down to 1, a lane taking a
    step when the last record the step covers is ``< q``.  Probes past
    the end of ``data`` read its last record (``mode="clip"``), which
    keeps the predicate monotone; the final clamp to ``hi`` applies the
    window.  Every pass is the same five in-place array ops over all
    lanes: no data-dependent exit test, no ``np.where`` temporaries, no
    masked ufunc loop.  Empty (or inverted) windows answer ``lo``.
    """
    pos = np.array(lo, dtype=np.int64)  # a copy: lanes advance in place
    if not np.shape(queries) == pos.shape == hi.shape:
        shape = np.broadcast_shapes(np.shape(queries), pos.shape, hi.shape)
        pos = np.array(np.broadcast_to(pos, shape))
    if pos.size == 0 or len(data) == 0:
        return pos
    end = np.maximum(hi, pos)
    widest = int((end - pos).max())
    if widest == 0:
        return pos
    probe = np.empty_like(pos)
    vals = np.empty(pos.shape, dtype=data.dtype)
    below = np.empty(pos.shape, dtype=bool)
    step = 1 << (widest.bit_length() - 1)
    while step:
        np.add(pos, step - 1, out=probe)
        # mode="clip" also skips the bounds check that makes the default
        # mode buffer ``out``
        np.take(data, probe, out=vals, mode="clip")
        np.less(vals, queries, out=below)
        np.multiply(below, step, out=probe)  # masked step, no where=
        np.add(pos, probe, out=pos)
        step >>= 1
    return np.minimum(pos, end, out=pos)


def bounded_search(data, queries, lo, hi, out):
    """Per-lane lower bound within ``[lo[i], hi[i])`` (pre-clipped)."""
    out[:] = _lanes_lower_bound(data, queries, lo, hi)
    return out


def validated_search(data, queries, starts, widths, out):
    """Window search with §3.8 edge validation (exact results).

    Each lane searches its window ``[starts, starts + widths]`` widened
    by one record on each side, so the §3.8 edge probes (the record just
    before and just after the window) are compared by the search itself.
    An answer strictly inside the widened window is bracketed by records
    of that window (``data[r-1] < q <= data[r]``) and is exact; a lane
    pinned to a widened edge that is not an end of ``data`` has its
    answer outside the window (the §3.8 violation) and falls back to a
    full-array lower bound.
    """
    n = len(data)
    # np.minimum/np.maximum, not np.clip: same values without the
    # Python-level wrapper, which costs more than the clamp at batch size
    lo = np.minimum(np.maximum(starts - 1, 0), n)
    hi = np.minimum(np.maximum(starts + widths + 2, lo), n)
    result = _lanes_lower_bound(data, queries, lo, hi)
    violated = (result == lo) & (lo > 0)
    violated |= (result == hi) & (hi < n)
    if violated.any():
        result[violated] = np.searchsorted(
            data, queries[violated], side="left"
        )
    out[:] = result
    return out


# ----------------------------------------------------------------------
# predict (array mirrors of the model classes' predict_pos_batch)
# ----------------------------------------------------------------------
def predict_interpolation(keys, kmin, scale, out):
    out[:] = (keys.astype(np.float64) - kmin) * scale
    return out


def predict_affine(keys, slope, intercept, out):
    out[:] = slope * keys.astype(np.float64) + intercept
    return out


def predict_rmi_linear(keys, a, b, slopes, intercepts, nleaves, leaf, out):
    x = keys.astype(np.float64)
    leaf[:] = np.clip(a * x + b, 0, nleaves - 1).astype(np.int64)
    out[:] = slopes[leaf] * x + intercepts[leaf]
    return out


def predict_rmi_cubic(keys, c3, c2, c1, c0, kmin, span, slopes, intercepts,
                      nleaves, leaf, out):
    x = keys.astype(np.float64)
    t = (x - kmin) / span
    raw = ((c3 * t + c2) * t + c1) * t + c0
    leaf[:] = np.clip(raw, 0, nleaves - 1).astype(np.int64)
    out[:] = slopes[leaf] * x + intercepts[leaf]
    return out


def predict_rmi_radix_signed(keys, base, shift, slopes, intercepts, nleaves,
                             leaf, out):
    raw = (
        (np.maximum(keys.astype(np.int64) - base, 0)) >> shift
    ).astype(np.float64)
    leaf[:] = np.clip(raw, 0, nleaves - 1).astype(np.int64)
    out[:] = slopes[leaf] * keys.astype(np.float64) + intercepts[leaf]
    return out


def predict_rmi_radix_unsigned(keys, base, shift, slopes, intercepts,
                               nleaves, leaf, out):
    # stay in uint64: keys >= 2^63 would wrap through int64
    k = keys.astype(np.uint64)
    b = np.uint64(base)
    diff = np.where(k > b, k - b, np.uint64(0))
    leaf[:] = np.minimum(
        diff >> np.uint64(shift), np.uint64(nleaves - 1)
    ).astype(np.int64)
    out[:] = slopes[leaf] * keys.astype(np.float64) + intercepts[leaf]
    return out


def predict_radix_spline(keys, sp_keys, sp_pos, out):
    k = keys.astype(np.float64)
    npts = len(sp_keys)
    right = np.searchsorted(sp_keys, k, side="left")
    right = np.clip(right, 1, npts - 1)
    x0 = sp_keys[right - 1]
    x1 = sp_keys[right]
    y0 = sp_pos[right - 1]
    y1 = sp_pos[right]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(x1 > x0, (k - x0) / (x1 - x0), 1.0)
    pred = y0 + np.clip(frac, 0.0, 1.0) * (y1 - y0)
    pred = np.where(k <= sp_keys[0], 0.0, pred)
    out[:] = np.where(k >= sp_keys[-1], sp_pos[-1], pred)
    return out


# ----------------------------------------------------------------------
# fused correct + search (array mirrors of layer.window_batch /
# layer.correct_batch composed with the validated search)
# ----------------------------------------------------------------------
def _predicted(pred, n):
    """``predicted_index_batch``: clamp in float space, then cast."""
    return np.minimum(np.maximum(pred, 0), n - 1).astype(np.int64)


def _partition(pred, same, ratio, m):
    """``partition_index_batch`` with the pre-rounded build ratio."""
    scaled = pred if same else pred * ratio
    return np.minimum(np.maximum(scaled, 0), m - 1).astype(np.int64)


def fused_window_search(keys, queries, pred, deltas, widths, same, ratio, m,
                        out):
    n = len(keys)
    j = _partition(pred, same, ratio, m)
    predi = _predicted(pred, n)
    return validated_search(
        keys, queries, predi + deltas[j].astype(np.int64),
        widths[j].astype(np.int64), out
    )


def fused_point_search(keys, queries, pred, drifts, same, ratio, m, radius,
                       out):
    n = len(keys)
    j = _partition(pred, same, ratio, m)
    corrected = np.clip(_predicted(pred, n) + drifts[j], 0, n - 1)
    widths = np.full(queries.shape, 2 * radius, dtype=np.int64)
    return validated_search(keys, queries, corrected - radius, widths, out)


def fused_leaf_bounds_search(keys, queries, pred, leaf, err_lo, err_hi, out):
    e_lo = err_lo[leaf]
    starts = _predicted(pred, len(keys)) + e_lo
    return validated_search(keys, queries, starts, err_hi[leaf] - e_lo, out)


def fused_const_bounds_search(keys, queries, pred, e_lo, e_hi, out):
    starts = _predicted(pred, len(keys)) + e_lo
    widths = np.full(queries.shape, e_hi - e_lo, dtype=np.int64)
    return validated_search(keys, queries, starts, widths, out)
