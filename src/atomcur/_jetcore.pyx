# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for truncated jet arithmetic (float mode).

Hot inner loop of the whole engine: every covariant-derivative
evaluation bottoms out in truncated Cauchy products of dense
multivariate Taylor coefficient vectors.  Semantics must match
``atomcur._jetpure`` exactly.
"""

COMPILED = True


def cauchy_mul_f64(double[::1] a, double[::1] b, double[::1] out,
                   int[::1] oi, int[::1] ai, int[::1] bi):
    cdef Py_ssize_t t, m = oi.shape[0]
    for t in range(m):
        out[oi[t]] += a[ai[t]] * b[bi[t]]
