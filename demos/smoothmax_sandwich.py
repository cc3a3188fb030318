"""The smooth max, its calculus, and the bias/variance tradeoff in beta.

F_b(x) = log(sum exp(b x_i)) / b replaces the max with something
differentiable.  It overshoots the true max by at most log(n)/b, its
gradient is the softmax weight vector, and pushing b up trades that
deterministic bias against the curvature term that appears in gap bounds.
"""

import numpy as np

from sudfer import (
    SmoothMaxParams,
    beta_tradeoff_bound,
    optimal_beta,
    sandwich_gap,
    sf_bound,
    smooth_max,
    smooth_max_hessian,
    softmax,
)


def main():
    x = np.array([0.3, -1.2, 0.9, 0.1])
    print(f"x = {x},  max = {x.max()}")
    for beta in (0.5, 2.0, 8.0, 32.0):
        params = SmoothMaxParams(beta)
        value = smooth_max(x, params)
        lower, upper = sandwich_gap(x, params)
        print(
            f"  beta = {beta:5.1f}: F_b = {value:.6f}, overshoot = {lower:.6f}"
            f" (cap log(n)/b = {np.log(x.size) / beta:.6f}, slack {upper:.2e})"
        )

    params = SmoothMaxParams(2.0)
    grad = softmax(x, params)
    print(f"\ngradient at beta = 2 is the softmax vector: {grad}")
    h = 1e-6
    fd = [(smooth_max(x + h * e, params) - smooth_max(x - h * e, params)) / (2 * h) for e in np.eye(x.size)]
    print(f"central differences of F_b match: {np.allclose(grad, fd)}")
    hess = smooth_max_hessian(x, params)
    print(f"hessian rows sum to zero: {np.abs(hess.sum(axis=1)).max():.2e}")

    # The gap bound optimizes T(b) = log(n)/b + b * gamma / 4 over b.  The
    # minimizer is 2 sqrt(ln n / gamma) and the minimum is sqrt(gamma ln n).
    gamma, n = 0.8, 16
    best = optimal_beta(gamma, n)
    print(f"\ntradeoff for gamma = {gamma}, n = {n}:")
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        beta = scale * best
        print(f"  T({beta:7.4f}) = {beta_tradeoff_bound(beta, gamma, n):.6f}")
    print(f"minimum sits at beta* = {best:.4f} with value {sf_bound(gamma, n):.6f}")


if __name__ == "__main__":
    main()
