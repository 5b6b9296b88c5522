"""Property tests of the perturbed Dirichlet spectrum over random
sign-changing tables: 13 equally spaced knots on [-1.5, 1.5], zero ends,
interior values in [-20, 20] with at least one of each sign."""

import numpy as np
from hypothesis import given, strategies as st

from orthocat.core import potential_norms, table_potential
from orthocat.free import free_eigenvalue
from orthocat.perturbed import (
    bargmann_upper_bound,
    count_below,
    counting_lower_bound,
    perturbed_eigenvalues,
)

L = 5.25
KS = np.arange(1, 9)
KNOTS = np.linspace(-1.5, 1.5, 13)

tables = (st.lists(st.floats(-20.0, 20.0), min_size=11, max_size=11)
          .filter(lambda v: min(v) < 0.0 < max(v))
          .map(lambda v: table_potential(KNOTS, [0.0, *v, 0.0])))


@given(tables)
def test_spectrum_of_random_table(V):
    mus = perturbed_eigenvalues(KS, V, L)
    assert np.all(np.diff(mus) > 0.0)
    # min-max: each root lies within ||V||_inf of the free eigenvalue
    lam = np.array([free_eigenvalue(int(k), L) for k in KS])
    assert np.all(np.abs(mus - lam) <= V.sup_abs + 1e-9)
    # and one-sided, lambda_k + inf V <= mu_k <= lambda_k + sup V (0 included: V = 0 off the support)
    assert np.all(mus >= lam + min(V.vmin, 0.0) - 1e-9)
    assert np.all(mus <= lam + max(V.vmax, 0.0) + 1e-9)
    # |V_-| <= c_alpha / (1 + |x|)^2 on the samples that bargmann_upper_bound checks
    xs = np.linspace(-V.a, V.a, 4097)
    c_alpha = float(np.max(-np.clip(V(xs), None, 0.0) * (1.0 + np.abs(xs)) ** 2))
    lower_from = 2.0 * potential_norms(V).l1_plus / L
    for k, E in enumerate(0.5 * (mus[:-1] + mus[1:]), start=1):
        assert count_below(E, V, L) == k
        if E > 0.0:
            assert k <= bargmann_upper_bound(E, V, 1.0, c_alpha, L)
        if E >= lower_from:
            assert counting_lower_bound(E, V, L) <= k
