"""How tight is sqrt(gamma ln n)?  Scan the worst-case family.

Independent standard normals against the zero vector give gamma = 2, so
the certificate reads sqrt(2 ln n), while the true gap is the expected
maximum of n iid standard normals.  Their ratio climbs toward 1 as n
grows, which is what it means for the bound to have the right rate.  At
n = 2 the gap is exactly 1/sqrt(pi), a closed form worth printing next to
the Monte Carlo number.

Up to n = 2^20 gamma and the bound come from `certify` on the two laws
themselves, which store their variances and cost O(n) to build.  Past
that, where even the n variances would crowd memory, gamma = 2 is written
in by hand.  The scan runs to n = 2^40, where no n-vector could be drawn:
the maximum itself is drawn, one uniform per sample, by inverting its CDF
Phi^n (`iid_maxima`, the sampler `expected_max_mc` uses for iid laws).
"""

import math

from sudfer import certify, expected_max_bivariate_exact, iid_maxima, iid_standard_spec, sf_bound, zero_spec

LARGEST_LAW = 20  # log2 of the largest n whose laws are built and certified


def main():
    exact2 = expected_max_bivariate_exact(iid_standard_spec(2))
    print(f"n = 2 closed form: E max = {exact2:.10f} = 1/sqrt(pi) = {1.0 / math.sqrt(math.pi):.10f}")

    samples = 200_000
    print(f"\ngap / bound for iid standard normals vs the zero law ({samples} samples):")
    print(f"{'n':>6} {'gamma':>6} {'gap':>10} {'se':>9} {'bound':>10} {'ratio':>8}")
    for k in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32, 36, 40):
        if k <= LARGEST_LAW:
            cert = certify(iid_standard_spec(2**k), zero_spec(2**k))
            gamma, bound = cert.gamma, cert.bound
        else:
            gamma = 2.0
            bound = sf_bound(gamma, 2**k)
        maxima = iid_maxima(2**k, samples, seed=100 + k)  # the zero law's maximum is exactly 0
        gap = maxima.mean()
        se = maxima.std(ddof=1) / math.sqrt(samples)
        print(f"{'2^' + str(k):>6} {gamma:>6g} {gap:>10.5f} {se:>9.5f} {bound:>10.5f} {gap / bound:>8.4f}")
    print("\nthe ratio approaches 1 like 1 - O(log log n / log n): slowly, but surely")


if __name__ == "__main__":
    main()
