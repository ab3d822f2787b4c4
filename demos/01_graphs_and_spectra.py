"""Build the bundled graphs and compare their spectra from both listers and closed forms.

The secular solver works on any graph; the vertex-condition lift needs an
equilateral graph (arranged by subdividing into commensurable pieces); and
closed forms cover the interval, the loop, and the equilateral star.
The graph picks the lister `spectrum_with_count` uses, and the exact eigenvalue
count certifies each listing; the closed forms are the tests' oracles. Here the
listers are called directly, to show that they agree.
"""

import numpy as np

from eulerchar import (
    analytic_spectrum,
    equilateral_subdivision,
    interval_graph,
    loop_graph,
    preset,
    secular_spectrum,
    star_graph,
    summarize,
    von_below_spectrum,
)


def main():
    print("= Preset graphs =")
    for name in ("lasso", "k5", "k5-pendant", "k33"):
        info = summarize(preset(name))
        print(
            f"{name:11s} {info.M} vertices, {info.N:2d} edges, chi={info.chi:+d}, "
            f"total length {info.total_length:4.1f}, shortest orbit {info.l_min:.2f}"
        )

    print()
    print("= Secular solver vs closed forms =")
    for family, graph in (
        ("interval", interval_graph(1.0)),
        ("loop", loop_graph(1.0)),
        ("equilateral-star", star_graph(3)),
    ):
        exact = analytic_spectrum(family, 12)
        got = secular_spectrum(graph, exact.values[-1] + 0.3)
        n = min(len(got.values), 12)
        diff = np.max(np.abs(np.array(got.values[:n]) - np.array(exact.values[:n])))
        print(f"{family:17s} first {n} eigenfrequencies agree to {diff:.2e}")

    print()
    print("= Secular solver vs vertex-condition lift =")
    k5 = preset("k5")
    sec = secular_spectrum(k5, 8.0)
    vb = von_below_spectrum(k5, 8.0)
    n = min(len(sec.values), len(vb.values))
    diff = np.max(np.abs(np.array(sec.values[:n]) - np.array(vb.values[:n])))
    print(f"k5: {n} eigenfrequencies, max difference {diff:.2e}")

    lasso = preset("lasso")
    sub, piece = equilateral_subdivision(lasso)
    print(f"lasso subdivided into {len(sub.edges)} edges of length {piece}")
    sec = secular_spectrum(lasso, 10.0)
    vb = von_below_spectrum(sub, 10.0)
    n = min(len(sec.values), len(vb.values))
    diff = np.max(np.abs(np.array(sec.values[:n]) - np.array(vb.values[:n])))
    print(f"lasso: {n} eigenfrequencies, max difference {diff:.2e}")

    print()
    print("lasso eigenfrequencies:", " ".join(f"{k:.4f}" for k in sec.values[:8]), "...")


if __name__ == "__main__":
    main()
