"""Reference master step on the flat variable, for the equivalence tests.

This is the cutting-plane master in its original form: the variable x
stacks vec(M[:, active]) and vec(N[active]) (d a + a d^2 entries) and
every plane or cut is a dense coefficient row over it.  The solver runs
the same iteration in plane coordinates (solver._master); the tests run
both on the same inputs.
"""

import numpy as np


def flat_row(s, V):
    """Coefficient row of the affine map (M, N) -> a' K a - a' X X' a.

    (s, V) is quad_factors' pair restricted to the active features.
    With x = [vec(M_active), vec(N_active)] the map is row . x, where
    the M block carries 2 s_k V[:, k] and the N block the outer
    products V[:, k] V[:, k]'.
    """
    coef_m = 2.0 * V * s[None, :]
    coef_n = np.einsum("rk,sk->krs", V, V)
    return np.concatenate([coef_m.ravel(), coef_n.ravel()])


def flat_master(x0, A0, CA, C0, CC, gamma, inner_steps, eps, dM):
    """Minimize max(A0 - CA x) s.t. C0 + CC x >= 0 over the two balls.

    dM is the length of the M block of x.  Returns the best cut-feasible
    iterate and its value, step for step as solver._master.
    """
    x = x0.copy()
    gamma2 = gamma * gamma
    best_val = np.inf
    best_x = x.copy()
    step_scale = None
    have_cuts = C0.size > 0

    for t in range(1, inner_steps + 1):
        viol = 0.0
        if have_cuts:
            cvals = C0 + CC @ x
            worst = int(np.argmin(cvals))
            viol = float(cvals[worst])

        if viol < -eps:
            g = CC[worst]
            gsq = float(g @ g)
            if gsq > 0.0:
                x = x + (-viol / gsq) * g
        else:
            phi = A0 - CA @ x
            top = int(np.argmax(phi))
            val = float(phi[top])
            if val < best_val:
                best_val = val
                best_x = x.copy()
            g = CA[top]
            gnorm = float(np.sqrt(g @ g))
            if gnorm <= 1e-14:
                break
            if step_scale is None:
                step_scale = gamma / (1.0 + gnorm)
            x = x + (step_scale / (np.sqrt(t) * gnorm)) * g

        nm = float(np.linalg.norm(x[:dM]))
        if nm > gamma:
            x[:dM] *= gamma / nm
        nn = float(np.linalg.norm(x[dM:]))
        if nn > gamma2:
            x[dM:] *= gamma2 / nn

    return best_x, best_val


def assert_rows_match(rows, flats, dM, rng):
    """solver._Rows against the flat rows of the same vectors, in its order.

    Its Grams must be the Frobenius products of the rows' M and N blocks,
    and the iterate it rebuilds from coefficients (cM, cN) the matching
    combination of those blocks.
    """
    F = np.asarray(flats)
    FM, FN = F[:, :dM], F[:, dM:]
    _assert_close(rows.GM, FM @ FM.T)
    _assert_close(rows.GN, FN @ FN.T)
    cM, cN = rng.standard_normal((2, len(F)))
    rows.cM, rows.cN = cM.copy(), cN.copy()
    Ma, Ns = rows.iterate(gamma=1e12)  # a ball too large to project
    _assert_close(Ma.ravel(), cM @ FM)
    _assert_close(Ns.ravel(), cN @ FN)


def _assert_close(got, want):
    scale = np.abs(want).max(initial=0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
