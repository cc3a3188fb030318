"""Increment matrices and gap certificates for pairs of Gaussian vectors.

The quantity that controls how far apart two expected maxima can drift is
not the covariance itself but the matrix of pairwise increments
g[i, j] = E (V_i - V_j)^2.  This script builds a few covariance structures,
prints their increments, and certifies the gap bound sqrt(gamma ln n) where
gamma is the largest entrywise increment discrepancy.
"""

import numpy as np

from sudfer import certify, increment_matrix, validate_spec


def main():
    n = 4
    rho = 0.6
    equi = (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))
    diag = np.eye(n)

    spec_x = validate_spec(np.zeros(n), equi)
    spec_y = validate_spec(np.zeros(n), diag)

    g_x = increment_matrix(spec_x)
    g_y = increment_matrix(spec_y)
    print("increments of an equicorrelated law (rho = 0.6):")
    print(g_x)
    print("increments of independent standard coordinates:")
    print(g_y)

    cert = certify(spec_x, spec_y)
    print(f"\ngamma = max |g_x - g_y| = {cert.gamma:.6f}")
    print(f"certified gap bound sqrt(gamma ln n) = {cert.bound:.6f}")
    print(f"best smoothing parameter for that bound: {cert.optimal_beta:.6f}")

    # Increments see only differences of coordinates, so a common additive
    # shift of the covariance (c * ones) is invisible to the certificate.
    shifted = validate_spec(np.zeros(n), equi + 2.5 * np.ones((n, n)))
    print(
        "\nafter adding 2.5 * ones to the covariance, gamma =",
        f"{certify(shifted, spec_y).gamma:.6f} (unchanged)",
    )

    # Mean differences do enter: E (V_i - V_j)^2 picks up (mu_i - mu_j)^2,
    # so a tilted copy of the same covariance sits at gamma = 1 from itself.
    tilted = validate_spec([0.0, 1.0, 0.0, 0.0], equi)
    print(
        "tilting one mean by 1 puts gamma =",
        f"{certify(tilted, spec_x).gamma:.6f} between the tilted and untilted law",
    )

    # Entrywise ordering of increments is the hypothesis under which the
    # expected max is provably monotone along the interpolation path.
    print(f"\ng_x <= g_y entrywise: {cert.dominates_xy}, g_y <= g_x entrywise: {cert.dominates_yx}")


if __name__ == "__main__":
    main()
