"""Differentiating the expected smooth max along a variance interpolation.

Z_t blends two Gaussian laws by mixing covariances linearly and means like
sqrt(t).  The derivative of phi(t) = E F_b(Z_t) has a closed form as an
expectation of softmax weights against the increment discrepancy, which a
finite difference with shared random numbers should reproduce.  When the
increments of one law dominate the other entrywise, the derivative is
provably nonnegative, so phi is monotone and the two expected maxima are
ordered.
"""

from sudfer import (
    SmoothMaxParams,
    certify,
    dominated_pair,
    phi,
    phi_derivative,
)


def main():
    n, samples = 6, 200_000
    spec_x, spec_y = dominated_pair(n, seed=7, generator="wishart")
    cert = certify(spec_x, spec_y)
    beta = cert.optimal_beta
    params = SmoothMaxParams(beta)
    print(f"dominated pair with n = {n}: gamma = {cert.gamma:.4f}, beta = {beta:.4f}")

    p0 = phi(spec_x, spec_y, params, 0.0, samples, seed=11)
    p1 = phi(spec_x, spec_y, params, 1.0, samples, seed=11)
    print(f"phi(0) = {p0.value:.5f} +/- {p0.stderr:.5f}")
    print(f"phi(1) = {p1.value:.5f} +/- {p1.stderr:.5f}")

    print("\nexplicit formula vs central difference (common random numbers):")
    flagged = []
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        d = phi_derivative(spec_x, spec_y, params, t, samples, seed=13)
        ex, fd = d.explicit, d.finite_difference
        print(
            f"  t = {t}: explicit {ex.value:+.5f} +/- {ex.stderr:.5f},"
            f"  fd {fd.value:+.5f} +/- {fd.stderr:.5f}"
        )
        if ex.value < -3.0 * ex.stderr:
            flagged.append(t)

    # The integrand is bounded by beta * gamma / 4 pointwise.
    print(f"\npointwise derivative cap beta * gamma / 4 = {beta * cert.gamma / 4.0:.5f}")
    print(
        f"increments dominated: {cert.dominates_xy},"
        f" grid points with explicit < -3 stderr: {flagged} (none expected)"
    )


if __name__ == "__main__":
    main()
