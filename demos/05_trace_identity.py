"""Check the trace identity that makes the whole method work.

The spectral side 2 f_hat(0) + 2 sum_j re f_hat(k_j / t) equals the Euler
characteristic plus a sum over periodic orbits of the graph, weighted by
scattering amplitudes and the test function evaluated at t times the orbit
length.  With a test function supported on [0, 1], any orbit of length at
least 1/t drops out, so below the shortest orbit the sum collapses to chi.
"""

from eulerchar import (
    cosine_power,
    orbit_side,
    preset,
    spectrum_with_count,
    summarize,
    trace_check,
    truncated_sum,
)


def main():
    lasso = preset("lasso")
    info = summarize(lasso)
    print(f"lasso: chi = {info.chi}, shortest periodic orbit length = {info.l_min}")

    print()
    print("= Both sides of the identity on the lasso, order-2 cosine power =")
    spectrum = spectrum_with_count(lasso, 80)
    f = cosine_power(2)
    print("t       orbit side       spectral side    gap        bound")
    for t in (0.005, 0.01, 0.3, 0.5, 0.8, 1.25):
        lhs, rhs, gap, bound = trace_check(lasso, f, t, spectrum)
        print(f"{t:5.3f}   {lhs:+.10f}    {rhs:+.10f}    {gap:.2e}   {bound:.2e}")
    print("(gap <= bound: the identity holds to the certified truncation and tol error)")

    print()
    print("= Orbit terms fade as the support shrinks past the shortest orbit =")
    for t in (0.9, 1.0, 1.2):
        rhs = orbit_side(lasso, f, t)
        note = "loop still inside the support" if t < 1.0 else "chi alone"
        print(f"t = {t:4.2f}: orbit side = {rhs:+.10f}  ({note})")

    print()
    print("= Spectral side alone at the recovery settings =")
    S = truncated_sum(spectrum, f, 1.0, 48)
    print(f"2 f_hat(0) + 2 sum re f_hat(k_j) at t=1, J=48: {S:+.10f} (chi = 0)")


if __name__ == "__main__":
    main()
