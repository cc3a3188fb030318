"""How tight is sqrt(gamma ln n)?  Scan the worst-case family.

Independent standard normals against the zero vector give gamma = 2, so
the certificate reads sqrt(2 ln n), while the true gap is the expected
maximum of n iid standard normals.  Their ratio climbs toward 1 as n
grows, which is what it means for the bound to have the right rate.  At
n = 2 the gap is exactly 1/sqrt(pi), a closed form worth printing next to
the Monte Carlo number.
"""

import math

from sudfer import (
    empirical_gap,
    expected_max_bivariate_exact,
    iid_standard_spec,
    sf_bound,
    zero_spec,
)


def main():
    exact2 = expected_max_bivariate_exact(iid_standard_spec(2))
    print(f"n = 2 closed form: E max = {exact2:.10f} = 1/sqrt(pi) = {1.0 / math.sqrt(math.pi):.10f}")

    samples = 200_000
    print(f"\ngap / bound for iid standard normals vs the zero law ({samples} samples):")
    print(f"{'n':>6} {'gap':>10} {'se':>9} {'bound':>10} {'ratio':>8}")
    for k in range(1, 11):
        n = 2**k
        _, _, gap = empirical_gap(iid_standard_spec(n), zero_spec(n), samples, seed=100 + k)
        bound = sf_bound(2.0, n)
        print(
            f"{n:>6} {gap.value:>10.5f} {gap.stderr:>9.5f}"
            f" {bound:>10.5f} {gap.value / bound:>8.4f}"
        )
    print("\nthe ratio approaches 1 like 1 - O(log log n / log n): slowly, but surely")


if __name__ == "__main__":
    main()
