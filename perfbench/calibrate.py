"""A fixed kernel that measures how fast the machine runs right now.

On a shared machine the speed of the same pass drifts by a third and more
over minutes, as other tenants come and go, and it drifts alike for the
interpreter, sparse LU and dense LAPACK work. The kernel times a little of
each, with numpy and scipy only, so no change to `transmission` changes it.
The benchmark runs it right before and right after each pass's process and
rescales the pass's times to the speed at which the kernel takes
`REFERENCE_S`.

In two 6-7 minute trials of simulate-bounded passes on a 2-core VM, with the
kernel run in the pass's own process right before and after its `cli.main`
call, the mean of the two kernel times correlated 0.79 and 0.61 with the
pass time. Over 30-second windows the spread (interquartile range over
median) of the median pass fell from 16 % and 31 % raw to 7 % and 11 %
rescaled; the fastest raw pass spread 22 % and 20 %. A kernel looping on the
other core during the pass tracked it no better (correlation 0.47).
"""

from __future__ import annotations

import time

# seconds the kernel took on the 2-core VM the benchmark was defined on, in
# a quiet stretch. It only sets the scale of the rescaled times: change it
# and no result before the change compares with one after.
REFERENCE_S = 0.40


def kernel() -> float:
    """Seconds to run the fixed kernel once."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i % 7
    n = 90
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    a = (sp.kron(sp.eye(n), lap) + sp.kron(lap, sp.eye(n))).tocsc()
    b = np.ones(n * n)
    for _ in range(6):
        spla.splu(a).solve(b)
    m = np.random.default_rng(0).standard_normal((500, 500))
    for _ in range(3):
        np.linalg.eigh(m + m.T)
    return time.perf_counter() - start
