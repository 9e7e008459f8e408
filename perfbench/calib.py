"""Machine-speed reference, so times from a shared host can be compared.

On a shared host the speed of one core can change by a factor of two for
seconds or minutes at a time, as other tenants come and go.  Medians over
a run do not remove a change that lasts the whole run, so every timed
figure is rescaled by a reference measured next to it in time:

    normalized = measured * REFERENCE_MS / (local time of one reference call)

which reads as "the time on a host where one reference call takes
REFERENCE_MS".  One reference call runs four small kernels in the shapes
of the work l4norm does: a trigonometric-series product, truncated
polynomial products that build and filter many small dicts, a series
product over a wide term table, and small numpy eigenvalue problems.  A
shared host does not slow every kind of work alike, and the mix tracks
the workloads better than any one kernel: on a 2-vCPU Xeon host, over
four minutes of repeated fixed ops, the 15-second medians of a sweep op's
rescaled time spread by 2.2 to 2.5% (interquartile range over median)
with the mix and by 6.0 to 6.5% with the series product alone, and those
of a pipeline run by 1.3 to 1.9% against 2.7 to 3.6%.  Nothing here
imports l4norm, so no change to the program can move the reference.
"""

from __future__ import annotations

import statistics
import time

# About the time of one reference call on a host where the series
# product alone takes 1 ms, so that the figures keep that scale.
REFERENCE_MS = 3.75
# Reference calls averaged around each op: the op's own and two each side.
WINDOW = 5

_TERMS = {(i % 4, i % 3, i - 20, (i * 7) % 9 - 4): (0.5 + i, 0.25 * i)
          for i in range(40)}
_WIDE = {(i % 7, i % 5, i - 150, (i * 7) % 13 - 6): (0.5 + i, 0.25 * i)
         for i in range(300)}
_NARROW = dict(list(_WIDE.items())[:6])
_POLY = {(i % 5, i % 3, i % 4): 0.1 * i + 1.0 for i in range(60)}
_POLY_FACTOR = dict(list(_POLY.items())[:20])
_MATRIX = ((0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0),
           (0.75, 1.3, 0.0, 2.0), (1.3, 2.25, -2.0, 0.0))


def _series_product(left: dict, right: dict) -> dict:
    out = {}
    for (j1, m1, p1, q1), (c1, s1) in left.items():
        for (j2, m2, p2, q2), (c2, s2) in right.items():
            key = (j1 + j2, m1 + m2, p1 + p2, q1 + q2)
            oc, os_ = out.get(key, (0.0, 0.0))
            out[key] = (oc + 0.5 * (c1 * c2 - s1 * s2),
                        os_ + 0.5 * (c1 * s2 + s1 * c2))
    return out


def _poly_product() -> dict:
    acc = {}
    for k1, v1 in _POLY.items():
        for k2, v2 in _POLY_FACTOR.items():
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            acc[key] = acc.get(key, 0.0) + v1 * v2
    out = {k: v for k, v in acc.items() if abs(v) > 1e-300}
    if any(sum(k) > 12 for k in out):
        out = {k: v for k, v in out.items() if sum(k) <= 12}
    return out


def _eigenvalues() -> float:
    import numpy as np  # imported by l4norm before any reference call

    matrix = np.array(_MATRIX) + 1e-3
    total = 0.0
    for _ in range(40):
        total += float(np.abs(np.linalg.eigvals(matrix)).sum())
    return total


def reference_ms() -> float:
    """Wall time of one reference call, in ms."""
    start = time.perf_counter()
    _series_product(_TERMS, _TERMS)
    _poly_product()
    _series_product(_WIDE, _NARROW)
    _eigenvalues()
    return (time.perf_counter() - start) * 1e3


def factors(reference: list) -> list:
    """Per-op rescaling factors from one reference time taken after each op."""
    half = WINDOW // 2
    return [REFERENCE_MS / statistics.median(reference[max(0, i - half):i + half + 1])
            for i in range(len(reference))]
