"""Gaussian integration by parts as a runnable diagnostic.

For V with mean mu, covariance C and smooth F, E[(V_i - mu_i) F(V)] equals
E[(C grad F(V))_i] coordinate by coordinate.  The per-draw difference of
the two sides is a mean-zero residual; its Monte Carlo average should sit
within a few standard errors of zero whenever sampling, gradients, and
covariance plumbing are all consistent with each other.
"""

import numpy as np

from sudfer import SmoothMaxParams, random_spec, stein_residuals, validate_spec


def main():
    spec = random_spec(5, seed=42, generator="wishart")
    params = SmoothMaxParams(2.0)
    residuals = stein_residuals(spec, params, 400_000, seed=1)
    print("smooth-max residuals, one per coordinate (target: 0 within 3 se):")
    for i, est in enumerate(residuals):
        z = est.value / est.stderr
        print(f"  i = {i}: {est.value:+.2e} +/- {est.stderr:.2e}  (z = {z:+.2f})")

    # Swapping in the linear functional F(v) = v_j turns the identity into
    # E[V_i V_j] = C[i, j], a direct check of the sampler's second moments.
    j = 2
    e = np.zeros(5)
    e[j] = 1.0
    hook = stein_residuals(
        spec,
        params,
        400_000,
        seed=2,
        functional=lambda rows: rows[:, j],
        gradient=lambda rows: np.broadcast_to(e, rows.shape),
    )
    print(f"\nlinear functional F(v) = v_{j} (checks E V_i V_{j} = cov[i, {j}]):")
    for i, est in enumerate(hook):
        print(f"  i = {i}: {est.value:+.2e} +/- {est.stderr:.2e}")

    # A zero-variance coordinate never moves, so its residual is exactly 0.
    frozen = validate_spec(
        np.zeros(3), np.diag([1.0, 0.0, 2.0])
    )
    exact = stein_residuals(frozen, params, 10_000, seed=3)[1]
    print(f"\nfrozen coordinate residual: {exact.value} +/- {exact.stderr} (exact)")


if __name__ == "__main__":
    main()
