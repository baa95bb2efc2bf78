"""Pure-Python kernels for truncated jet arithmetic.

This is the fallback backend used when the compiled extension
``atomcur._jetcore`` is unavailable (or disabled via the environment
variable ``ATOMCUR_JET_BACKEND=pure``).  The functions here must stay
semantically identical to their compiled twins; the test suite runs
against whichever backend is selected at import.
"""

COMPILED = False


def cauchy_mul_f64(a, b, out, oi, ai, bi):
    """Accumulate the truncated Cauchy product of float coefficient vectors.

    ``oi``, ``ai``, ``bi`` are parallel index arrays: for each t,
    out[oi[t]] += a[ai[t]] * b[bi[t]].
    """
    for t in range(len(oi)):
        out[oi[t]] += a[ai[t]] * b[bi[t]]
