"""End-to-end tests of the command line interface via main(argv)."""

import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import eulerchar
from eulerchar import (
    GraphError,
    Spectrum,
    SpectrumCountError,
    build_graph,
    cli,
    orbits,
    parse_graph,
    preset,
    read_spectrum_csv,
    spectrum,
    to_document,
    validate_spectrum,
    von_below_spectrum,
    write_spectrum_csv,
)
from eulerchar.cli import main
from eulerchar.estimator import Estimate
from eulerchar.graph import PRESET_NAMES
from eulerchar.planner import RecoveryPlan, optimal_plan
from test_graph import MALFORMED_DOCUMENTS

PLAN_BLOCK_LASSO = """\
eps_bar=0.25
M_bar=2
L_bar=6
lmin_lower=1
t=1
rho=12
alpha_star=1.288289240136656
d=1
J=48
beta=47.24287600227821
delta_max=0.002604166666666667
eps_value=0.2389897934478469
eps_prev=0.2536934813826548
"""


def test_plan_golden_block(capsys):
    code = main(["plan", "--M", "2", "--L", "6", "--lmin", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith(PLAN_BLOCK_LASSO)


def test_plan_block_prints_the_plan_fields_in_declared_order_then_eps_prev():
    block = cli.plan_block(optimal_plan(0.25, 2, 6, 1))
    keys = [line.partition("=")[0] for line in block.splitlines()]
    assert keys == [f.name for f in dataclasses.fields(RecoveryPlan)] + ["eps_prev"]


def test_plan_block_prints_a_large_J_whole(capsys):
    # Past 1e16 a float's 16 significant digits would round J; an int prints every digit.
    assert main(["plan", "--M", "1e17", "--L", "6", "--lmin", "1"]) == 0
    out = capsys.readouterr().out
    assert "M_bar=1e+17\n" in out and "J=100000000000000048\n" in out


@pytest.mark.parametrize("doc, reason", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS.keys())
def test_a_graph_document_with_a_wrong_json_type_exits_2(tmp_path, capsys, doc, reason):
    path = tmp_path / "bad.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["plan", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err
    assert "Traceback" not in captured.err


def test_plan_from_graph_priors(capsys):
    code = main(["plan", "--graph", "k5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "J=41" in out
    assert "t=0.5" in out


def test_plan_notes_an_order_boundary_only_near_one(capsys):
    assert main(["plan", "--M", "2", "--L", "6", "--lmin", "1", "--eps", "0.01"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "note=order boundary: d=3 needs J=83, within 2 of J=81; "
        "d* is sensitive to rounding in rho near this point")
    assert main(["plan", "--graph", "lasso"]) == 0
    assert "note=" not in capsys.readouterr().out


def test_plan_missing_arguments(capsys):
    code = main(["plan", "--M", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err.lower() or "--lmin" in err


def test_plan_bad_eps(capsys):
    code = main(["plan", "--M", "2", "--L", "6", "--lmin", "1", "--eps", "1.5"])
    assert code == 2


@pytest.mark.parametrize("argv, rho", [
    (["plan", "--M", "2", "--L", "1e300", "--lmin", "1"], "2e+300"),
    (["plan", "--M", "2", "--L", "6", "--lmin", "1e-300"], "1.1999999999999998e+301"),
    (["plan", "--graph", "long.json"], "2e+300"),
    (["plan", "--graph", "short.json"], "9.999999999999999e+299"),
    (["estimate", "--spectrum", "x.csv", "--graph", "long.json"], "2e+300"),
    (["estimate", "--spectrum", "x.csv", "--graph", "short.json"], "9.999999999999999e+299"),
], ids=["L", "lmin", "plan-long", "plan-short", "estimate-long", "estimate-short"])
def test_a_plan_whose_beta_overflows_exits_2(tmp_path, monkeypatch, capsys, argv, rho):
    # The lasso with its 5.0 edge at 1e300 or 1e-300: rho = 2 L / lmin is finite, beta is not.
    monkeypatch.chdir(tmp_path)
    for name, length in (("long.json", "1e300"), ("short.json", "1e-300")):
        (tmp_path / name).write_text(to_document(preset("lasso")).replace("5.0", length))
    (tmp_path / "x.csv").write_text("# method=external\n# tol=0\nj,k\n1,0.0\n2,0.5\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: beta overflows a float at rho = {rho}\n"


@pytest.mark.parametrize("argv", [
    ["plan", "--M", "2", "--L", "6", "--lmin", "1", "--eps", "1e-300"],
    ["estimate", "--spectrum", "x.csv", "--M", "2", "--L", "6", "--lmin", "1", "--eps", "1e-300"],
    ["experiment", "lasso", "--eps", "1e-300", "--out", "exp"],
    ["experiment", "lasso", "--eps", "1e-200", "--out", "exp"],
], ids=["plan", "estimate", "experiment-300", "experiment-200"])
def test_a_plan_whose_epsilon_overflows_exits_2(tmp_path, monkeypatch, capsys, argv):
    # alpha ** (2 alpha) overflows at the order that eps_bar = 1e-300 or 1e-200 asks for.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv").write_text("# method=external\n# tol=0\nj,k\n1,0.0\n2,0.5\n")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: epsilon overflows a float at mu = 2, gamma = 12, ")
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


def test_a_plan_whose_alpha_star_overflows_exits_2(capsys):
    # rho = 1e308 is finite, e^(1/6) rho / eps_bar is not.
    assert main(["plan", "--M", "2", "--L", "5e307", "--lmin", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: alpha_star needs 1 < e^(1/6) * rho / eps_bar < inf, got rho = 1e+308\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "lasso", "--seed", "1"],
    ["spectrum", "lasso", "--eps", "0.1"],
    ["plan", "--graph", "lasso", "--seed", "1"],
    ["plan", "--graph", "lasso", "--out", "no-such-dir/x"],
    ["estimate", "--spectrum", "x.csv", "--graph", "lasso", "--seed", "1"],
    ["estimate", "--spectrum", "x.csv", "--graph", "lasso", "-o", "y.csv"],
    ["perturb", "--spectrum", "x.csv", "--delta", "0.001", "--eps", "0.1"],
    ["verify-trace", "--graph", "lasso", "--t", "0.4", "--seed", "1"],
    ["verify-trace", "--graph", "lasso", "--t", "0.4", "--eps", "0.1"],
    ["verify-trace", "--graph", "lasso", "--t", "0.4", "--out", "y.csv"],
    ["spectrum", "lasso", "--count", "60", "--kmax", "3"],
    ["spectrum", "lasso", "--kmax", "3", "--count", "5"],
    ["verify-trace", "--graph", "lasso", "--t", "0.4", "--psi", "--d", "1"],
])
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "not allowed with argument" in err


@pytest.mark.parametrize("command", ["plan", "estimate"])
@pytest.mark.parametrize("priors, name", [
    (["--M", "2", "--L", "inf", "--lmin", "1"], "L_bar"),
    (["--M", "nan", "--L", "6", "--lmin", "1"], "M_bar"),
    (["--M", "inf", "--L", "6", "--lmin", "1"], "M_bar"),
    (["--M", "2", "--L", "6", "--lmin", "nan"], "lmin_lower"),
    (["--M", "2", "--L", "nan", "--lmin", "inf"], "L_bar"),
])
def test_nonfinite_priors_exit_2_naming_the_prior(tmp_path, capsys, command, priors, name):
    args = [command, *priors]
    if command == "estimate":
        csv = tmp_path / "spectrum.csv"
        csv.write_text("# method=external\n# tol=0\nj,k\n1,0.0\n2,0.5\n")
        args += ["--spectrum", str(csv)]
    assert main(args) == 2
    assert f"error: {name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("kmax", ["nan", "inf"])
def test_spectrum_von_below_rejects_nonfinite_kmax(kmax):
    # No option of `spectrum` reaches the lift with a k_max of its own, so it is called directly.
    with pytest.raises(ValueError, match="^k_max must be positive and finite$"):
        von_below_spectrum(preset("k5"), float(kmax))


def test_spectrum_has_no_method_option(capsys):
    # The graph alone picks the lister, so no option can choose an uncertified listing.
    assert main(["spectrum", "lasso", "--method", "auto"]) == 2
    assert "unrecognized arguments: --method auto" in capsys.readouterr().err


def lasso_with_incommensurate_lengths(tmp_path):
    """A graph file of the lasso with its edge 5.000000001 long, which has no subdivision
    the lift can use."""
    doc = tmp_path / "weird.json"
    doc.write_text(to_document(preset("lasso")).replace("5.0", "5.000000001"))
    return doc


@pytest.mark.parametrize("argv", [
    *([name, "--count", "60"] for name in PRESET_NAMES),
    *([name, "--kmax", "20"] for name in PRESET_NAMES),
    ["weird.json", "--count", "20"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_every_spectrum_listing_is_certified(tmp_path, monkeypatch, argv):
    # The lift at --count, the secular search at --kmax and where the subdivision is refused:
    # each file passes the check `estimate --graph` makes.
    monkeypatch.chdir(tmp_path)
    weird = lasso_with_incommensurate_lengths(tmp_path)
    assert main(["spectrum", *argv, "-o", "listed.csv"]) == 0
    s, _ = read_spectrum_csv(tmp_path / "listed.csv")
    g = parse_graph(weird.read_text()) if argv[0] == weird.name else preset(argv[0])
    assert s.method == ("secular" if argv[0] == weird.name or "--kmax" in argv else "von-below")
    assert validate_spectrum(s, g).ok


def test_spectrum_count_beyond_the_float_range_exits_2(capsys):
    count = 10**400
    assert main(["spectrum", "lasso", "--count", str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: count = {count} needs too many listed values to count in a "
                            "float, above the budget of 4194304\n")


def test_spectrum_to_fl_pi_lists_no_part_of_the_cluster_at_pi(capsys):
    # k5 has five eigenvalues at pi, just above fl(pi); a von Below cross-check that compared
    # only the values listed passed when one of the five was listed.
    assert main(["spectrum", "k5", "--kmax", repr(math.pi)]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith(("#", "j,"))]
    assert len(rows) == 5 and rows[-1].startswith("5,1.823")


def test_spectrum_csv_output(tmp_path, capsys):
    out = tmp_path / "lasso.csv"
    code = main(["spectrum", "lasso", "--count", "20", "-o", str(out)])
    assert code == 0
    assert "wrote 20 eigenfrequencies" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    notes = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    # The lasso's 12 pieces are lifted, and the listing certified by the cluster counts.
    assert notes[0] == "# method=von-below"
    assert notes[-1] == "# graph=lasso"
    assert len(notes) == 4
    assert data[0] == "j,k"
    assert data[1] == "1,0.0000000000000000e+00"
    assert len(data) == 21


def test_spectrum_stdout_when_no_output_file(capsys):
    code = main(["spectrum", "lasso", "--count", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "j,k" in out
    assert "1,0.0000000000000000e+00" in out


def test_spectrum_von_below_needs_equilateral(tmp_path, capsys):
    # A graph with incommensurable lengths cannot be subdivided; von Below
    # must fail while `spectrum` lists by the secular search.
    doc = lasso_with_incommensurate_lengths(tmp_path)
    with pytest.raises(GraphError):
        von_below_spectrum(parse_graph(doc.read_text()), 5.0)
    out_file = tmp_path / "weird.csv"
    code = main(["spectrum", str(doc), "--count", "5", "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text().startswith("# method=secular\n")


def test_spectrum_auto_lists_by_the_secular_search_beyond_the_subdivision_cap(tmp_path, monkeypatch):
    # 4-decimal lengths need 55,406 equal pieces: `spectrum` must not build them.
    g = build_graph(
        "r2",
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 0.8332), ("v1", "v2", 0.6381), ("v2", "v3", 1.7894),
         ("v1", "v1", 1.9432), ("v3", "v2", 0.3367)],
    )
    doc = tmp_path / "r2.json"
    doc.write_text(to_document(g))
    out_file = tmp_path / "r2.csv"
    refusals = []
    real = spectrum.equilateral_subdivision

    def subdivision(graph):
        try:
            return real(graph)
        except GraphError as exc:
            refusals.append(str(exc))
            raise

    monkeypatch.setattr(spectrum, "equilateral_subdivision", subdivision)
    assert main(["spectrum", str(doc), "--count", "73", "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("# method=secular\n")
    assert refusals == ["common divisor too small: 55406 pieces exceed the cap of 1000"]
    assert len([ln for ln in text.splitlines() if ln[0].isdigit()]) == 73


def test_spectrum_count_error_exits_1(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise SpectrumCountError("listing disagrees with the exact count")

    monkeypatch.setattr(cli, "spectrum_with_count", failing)
    assert main(["spectrum", "lasso", "--count", "5"]) == 1
    assert "exact count" in capsys.readouterr().err


def test_estimate_rejects_nonfinite_tol(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("# method=external\n# tol=nan\nj,k\n1,0.0\n2,0.5\n")
    assert main(["estimate", "--spectrum", str(csv), "--graph", "lasso"]) == 2
    assert "tol" in capsys.readouterr().err


def test_estimate_recovers_chi(tmp_path, capsys):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    code = main(["estimate", "--spectrum", str(csv), "--graph", "lasso"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chi_hat=0" in out
    s_line = next(ln for ln in out.splitlines() if ln.startswith("S="))
    assert float(s_line[2:]) == pytest.approx(0.008940398590236542, abs=1e-6)
    bound_line = next(ln for ln in out.splitlines() if ln.startswith("bound="))
    # tail_bound(1, 46, 6) plus the 2 tol J / t term for the secular tol.
    assert float(bound_line[6:]) == pytest.approx(0.237906360519373, abs=1e-12)


def test_estimate_notes_tol_beyond_the_plan(tmp_path, capsys):
    exact = tmp_path / "lasso.csv"
    noisy = tmp_path / "noisy.csv"
    noisier = tmp_path / "noisier.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(exact)]) == 0
    # The lasso plan certifies delta_max = 1/384 = 0.0026; 0.0027 exceeds it
    # while the bound stays below 1/2, so the estimate is certified and gets
    # no note. At 0.00305 the bound passes 1/2 and the estimate is noted.
    assert main(["perturb", "--spectrum", str(exact), "--delta", "0.0027", "-o", str(noisy)]) == 0
    assert main(["perturb", "--spectrum", str(exact), "--delta", "0.00305",
                 "-o", str(noisier)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(exact), "--graph", "lasso"]) == 0
    assert "note=" not in capsys.readouterr().out
    assert main(["estimate", "--spectrum", str(noisy), "--graph", "lasso"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "chi_hat=0"
    assert float(lines[2][len("bound="):]) < 0.5
    assert len(lines) == 3
    assert main(["estimate", "--spectrum", str(noisier), "--graph", "lasso"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "chi_hat=0"
    assert float(lines[2][len("bound="):]) >= 0.5
    assert lines[3:] == ["note=bound does not certify a unique integer"]


@pytest.mark.parametrize("dropped", [29, 39, 46])
def test_estimate_with_graph_rejects_missing_values(tmp_path, capsys, dropped):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "60", "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith(f"{dropped},"))
    csv.write_text("\n".join(lines[:row] + lines[row + 1:]) + "\n")
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(csv), "--graph", "lasso"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eigenfrequencies listed in (0, " in captured.err
    assert "the exact count gives" in captured.err


@pytest.mark.parametrize("covered", ["0.0", None], ids=["k-max-covered-0", "own"])
def test_estimate_with_graph_checks_every_listed_value(tmp_path, capsys, covered):
    # Lasso's first 60 values without k_11. With k_max_covered set to 0, the check skipped every
    # value, and estimate printed chi_hat=1 and exited 0; chi is 0. Metadata cannot switch the
    # check off: the count below the cluster at 2 pi finds the missing value either way.
    csv = tmp_path / "miss.csv"
    assert main(["spectrum", "lasso", "--count", "60", "-o", str(csv)]) == 0
    lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("11,")]
    if covered is not None:
        lines = [f"# k_max_covered={covered}" if ln.startswith("# k_max_covered=") else ln
                 for ln in lines]
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(csv), "--graph", "lasso"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 9 eigenfrequencies listed in (0, 6.28318530707], the exact "
                            "count gives 10, below the cluster k_11 to k_12 at 6.28318530718\n")


def test_a_graph_name_with_a_line_break_writes_no_spectrum(tmp_path, capsys):
    # The name went unchecked into the CSV's `# graph=` line, where its second line was a data
    # row: spectrum succeeded, and estimate then failed on the file.
    doc, csv = tmp_path / "nl.json", tmp_path / "nl.csv"
    doc.write_text(MALFORMED_DOCUMENTS["name-newline"][0], encoding="utf-8")
    assert main(["spectrum", str(doc), "--count", "3", "-o", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not csv.exists()
    assert captured.err == "error: graph 'name' must not hold a line break, got 'x\\n9,1.5'\n"


def test_estimate_with_graph_rejects_a_misplaced_value(tmp_path, capsys):
    # k_5 = pi / 2 of k33 moved to 3 pi / 4, halfway to k_6 = pi, keeps the number of values
    # below k_max_covered, so one count next to it passed the listing, and estimate printed
    # chi_hat=-4 and exited 0; chi is -3. The count above k_2 to k_4 finds four values there.
    csv = tmp_path / "k33.csv"
    assert main(["spectrum", "k33", "--count", "49", "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("5,"))
    lines[row] = f"5,{0.75 * math.pi:.16e}"
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(csv), "--graph", "k33"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 3 eigenfrequencies listed in (0, 1.5707963269], the exact "
                                   "count gives 4, above the cluster k_2 to k_4 at 1.57079632679")


@pytest.mark.parametrize("priors, message", [
    (["--J", "48", "--M", "nan", "--L", "6"], "error: M must be finite and nonnegative, got nan"),
    (["--J", "48", "--M", "2", "--L", "inf"], "error: L must be positive and finite, got inf"),
    (["--J", "14", "--M", "2", "--L", "6"], "error: tail bound needs J - M > 2 L t d = 12"),
    (["--J", str(10**300), "--M", "2", "--L", "6"], "error: tail bound overflows a float"),
    # The sum's own checks name a bad J before the tail does ("needs J - M > 12, got J - M = -2").
    (["--J", "0", "--graph", "lasso"], "error: J must be at least 1\n"),
    (["--J", "-5", "--M", "2", "--L", "6"], "error: J must be at least 1\n"),
    (["--J", "3", "--M", "2", "--L", "6"], "error: tail bound needs J - M > 2 L t d = 12, got J - M = 1\n"),
])
def test_estimate_explicit_priors_outside_the_bound_exit_2(tmp_path, capsys, priors, message):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    args = ["estimate", "--spectrum", str(csv), "--t", "1", "--d", "1", *priors]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_estimate_with_t_too_small_for_k_J_exits_2(tmp_path, capsys):
    # k_48 / 1e-320 overflows; the sum would be NaN.
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    args = ["estimate", "--spectrum", str(csv), "--t", "1e-320", "--J", "48", "--d", "1",
            "--M", "2", "--L", "6"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k_J / t overflows a float: t is too small for k_J = 25.1327\n"


def test_estimate_with_t_where_2_pi_times_the_product_overflows_is_silent(lasso_48, capsys):
    # k_48 / 1e-102 is about 2.5e103: the cosine power's product of factors is finite there
    # and 2 pi times it overflows, so the terms are 0 and nothing may warn on stderr.
    args = ["estimate", "--spectrum", lasso_48, "--t", "1e-102", "--J", "48", "--d", "1",
            "--M", "2", "--L", "6"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 0
    captured = capsys.readouterr()
    assert not caught and captured.err == ""
    assert captured.out.startswith("S=2\nchi_hat=2\n")


def test_spectrum_with_an_edge_below_pi_over_the_largest_float_is_silent(tmp_path, capsys):
    # The lasso with its 5.0 edge at 5e-324: the Dirichlet spacing pi / l of that edge overflows
    # to inf, so its candidate roots are NaN or inf, which the search drops without a warning.
    doc = tmp_path / "tiny.json"
    doc.write_text(to_document(preset("lasso")).replace("5.0", "5e-324"))
    out = tmp_path / "tiny.csv"
    assert main(["spectrum", str(doc), "--count", "20", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    s, _ = read_spectrum_csv(out)
    assert s.method == "secular" and len(s.values) == 20
    assert validate_spectrum(s, parse_graph(doc.read_text())).ok


@pytest.mark.parametrize("kmax", ["1e-300", "1e-20"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_spectrum_kmax_below_pi_over_L_lists_the_zero_mode_alone(name, kmax, capsys):
    # N is 0 below pi / L, where k_2 lies at the earliest; there every sine is tiny, no count
    # certifies, and counting the grid used to exit 1 with a false "eigensolver failed".
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", name, "--kmax", kmax]) == 0
    captured = capsys.readouterr()
    assert not caught and captured.err == ""
    assert captured.out.endswith("j,k\n1,0.0000000000000000e+00\n")


def test_verify_trace_with_a_tiny_kmax_refuses_the_one_value_tail(capsys):
    assert main(["verify-trace", "--graph", "lasso", "--t", "0.3", "--kmax", "1e-300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a 1-value listing up to k_max_covered = 1e-300: "
                            "tail bound needs J - M > 2 L t d = 3.6, got J - M = -1\n")


@pytest.mark.parametrize("argv, message", [
    (["--t", "1e300"], "error: a 202-value listing up to k_max_covered = 105.767: "
                       "tail bound needs J - M > 2 L t d = 1.2e+301, got J - M = 200\n"),
    (["--t", "0.3", "--psi", "--kmax", "1e-300"],
     "error: a 1-value listing up to k_max_covered = 1e-300: "
     "triangular tail needs J - M > 0, got J - M = -1\n"),
    # k_J / t overflows below about 6e-307: the sum refuses it before the walk budget can.
    (["--t", "1e-307"], "error: k_J / t overflows a float: t is too small for k_J = 105.733\n"),
])
def test_verify_trace_refusals_name_the_listing_and_the_sum(argv, message, capsys):
    assert main(["verify-trace", "--graph", "lasso", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_spectrum_kmax_over_the_grid_budget_exits_2(capsys):
    assert main(["spectrum", "lasso", "--kmax", "1e12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the budget of" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["lasso", "--kmax", "1e7"], "k_max = 1e+07 needs 7.63944e+07 grid points, times 2N = 4"),
    # The lift of the lasso's 12 pieces, asked for 10^9 values.
    (["lasso", "--count", "1000000000"], "k_max = 5.23599e+08 needs 1e+09 lifted values,"),
    (["lasso", "--kmax", "1e308"],
     "k_max = 1e+308 needs too many grid points to count in a float, times 2N = 4"),
], ids=["grid", "von-below", "grid-1e308"])
def test_spectrum_kmax_over_a_budget_names_its_size(capsys, argv, message):
    assert main(["spectrum", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} above the budget of 4194304\n"


def test_plan_refuses_eps_above_a_quarter(capsys):
    assert main(["plan", "--graph", "lasso", "--eps", "0.4"]) == 2
    assert "error: eps_bar must lie in (0, 1/4], got 0.4" in capsys.readouterr().err


def test_estimate_explicit_parameters(tmp_path, capsys):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    code = main(
        ["estimate", "--spectrum", str(csv), "--t", "1", "--J", "48", "--d", "1",
         "--M", "2", "--L", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "chi_hat=0" in out


def test_estimate_explicit_parameters_take_the_priors_from_the_graph(tmp_path, capsys):
    # Like the plan path, --graph supplies M = 2 and L = 6, so the bound is the one --M 2 --L 6 gives;
    # priors given explicitly as well are refused, not let override the graph.
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    explicit = ["estimate", "--spectrum", str(csv), "--t", "1", "--J", "48", "--d", "1"]
    assert main([*explicit, "--M", "2", "--L", "6"]) == 0
    from_priors = capsys.readouterr().out
    assert main([*explicit, "--graph", "lasso"]) == 0
    from_graph = capsys.readouterr().out
    assert from_graph == from_priors
    assert "bound=0.237906360519373\n" in from_graph
    assert "note=" not in from_graph
    assert main([*explicit, "--graph", "lasso", "--M", "20", "--L", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --graph and --M, --L cannot be given together: "
                            "the graph supplies M, L and lmin\n")


@pytest.fixture(scope="module")
def lasso_48(tmp_path_factory):
    csv = tmp_path_factory.mktemp("lasso") / "lasso-48.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    return str(csv)


EXPLICIT = ["--t", "1", "--J", "48", "--d", "1"]


@pytest.mark.parametrize("argv, reason", [
    (["plan", "--graph", "lasso", "--M", "100", "--lmin", "0.001"],
     "--graph and --M, --lmin cannot be given together: the graph supplies M, L and lmin"),
    (["estimate", "--graph", "lasso", "--M", "100"],
     "--graph and --M cannot be given together: the graph supplies M, L and lmin"),
    (["estimate", *EXPLICIT, "--graph", "lasso", "--M", "20", "--L", "6"],
     "--graph and --M, --L cannot be given together: the graph supplies M, L and lmin"),
    (["estimate", *EXPLICIT, "--graph", "lasso", "--M", "0", "--L", "1"],
     "--graph and --M, --L cannot be given together: the graph supplies M, L and lmin"),
    (["estimate", *EXPLICIT, "--M", "2", "--L", "6", "--lmin", "9"],
     "estimate with --t and --J does not read --lmin"),
    (["estimate", *EXPLICIT, "--M", "2", "--L", "6", "--eps", "0.1"],
     "estimate with --t and --J does not read --eps"),
], ids=["plan-graph-and-priors", "estimate-graph-and-M", "explicit-graph-and-wide-priors",
        "explicit-graph-and-tight-priors", "explicit-lmin", "explicit-eps"])
def test_priors_come_from_the_graph_or_the_options_never_both(lasso_48, capsys, argv, reason):
    if argv[0] == "estimate":
        argv = [*argv, "--spectrum", lasso_48]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"


@pytest.mark.parametrize("options", [
    ["--graph", "lasso", "--lmin", "1"],
    [*EXPLICIT, "--M", "2", "--L", "6", "--lmin", "1"],
    [*EXPLICIT, "--M", "2"],
    ["--t", "0.3"],
    ["--M", "2"],
])
def test_option_errors_exit_2_before_the_spectrum_is_read(tmp_path, capsys, options):
    # The file does not exist, so reading it first would exit 2 with another message.
    assert main(["estimate", "--spectrum", str(tmp_path / "none.csv"), *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "No such file" not in captured.err and "error: " in captured.err


@pytest.mark.parametrize("lone", [["--M", "2"], ["--L", "6"]])
def test_estimate_explicit_parameters_refuse_a_lone_prior(tmp_path, capsys, lone):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    args = ["estimate", "--spectrum", str(csv), "--t", "1", "--J", "48", "--d", "1", *lone]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --M and --L must be given together\n"


def test_estimate_without_a_bound_is_noted(tmp_path, capsys):
    # A NaN bound certifies nothing, so it carries the same note as a bound of 1/2 or more.
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "48", "-o", str(csv)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(csv), "--t", "1", "--J", "48", "--d", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("bound=nan\nnote=bound does not certify a unique integer\n")


@pytest.mark.parametrize("explicit", [["--t", "0.3"], ["--J", "10"], ["--d", "7"],
                                      ["--d", "1", "--J", "48"]])
def test_estimate_explicit_parameters_need_t_and_J(tmp_path, capsys, explicit):
    csv = tmp_path / "lasso60.csv"
    assert main(["spectrum", "lasso", "--count", "60", "-o", str(csv)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--spectrum", str(csv), "--graph", "lasso", *explicit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --t and --J must be given together" in captured.err


def test_estimate_bound_violation(tmp_path, capsys):
    # A comb shifted off any legal spectrum: the sum lands far from every
    # integer while the claimed priors certify a tight bound.
    values = (0.0,) + tuple((j - 1) * math.pi + 1.3 for j in range(2, 41))
    s = Spectrum(values=values, k_max_covered=values[-1] + 0.1,
                 method="external", tol=0.0)
    csv = tmp_path / "fake.csv"
    write_spectrum_csv(csv, s)
    code = main(
        ["estimate", "--spectrum", str(csv), "--t", "1", "--J", "40", "--d", "1",
         "--M", "2", "--L", "1"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "bound violation" in captured.err


def test_estimate_missing_file(tmp_path):
    assert main(["estimate", "--spectrum", str(tmp_path / "none.csv"),
                 "--graph", "lasso"]) == 2


def test_perturb_deterministic(tmp_path, capsys):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "10", "-o", str(csv)]) == 0
    a = tmp_path / "noisy-a.csv"
    b = tmp_path / "noisy-b.csv"
    for path in (a, b):
        code = main(["perturb", "--spectrum", str(csv), "--delta", "0.002",
                     "--seed", "7", "-o", str(path)])
        assert code == 0
    assert a.read_text() == b.read_text()
    assert "delta=0.002" in a.read_text()
    c = tmp_path / "noisy-c.csv"
    assert main(["perturb", "--spectrum", str(csv), "--delta", "0.002",
                 "--seed", "8", "-o", str(c)]) == 0
    assert c.read_text() != a.read_text()


def test_perturb_updates_tolerance(tmp_path):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "10", "-o", str(csv)]) == 0
    noisy = tmp_path / "noisy.csv"
    assert main(["perturb", "--spectrum", str(csv), "--delta", "0.002",
                 "-o", str(noisy)]) == 0
    text = noisy.read_text()
    assert "tol=2.0000001000000001e-03" in text  # secular tol 1e-10 plus delta


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_perturb_refuses_nonfinite_delta(tmp_path, capsys, delta):
    csv = tmp_path / "lasso.csv"
    assert main(["spectrum", "lasso", "--count", "10", "-o", str(csv)]) == 0
    capsys.readouterr()
    assert main(["perturb", "--spectrum", str(csv), "--delta", delta]) == 2
    assert "error: delta must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [0, 1])
def test_perturb_whose_delta_overflows_the_largest_value_exits_2_silently(tmp_path, seed):
    # 1.5e308 + 1e308 overflows a float. Seed 1's noise used to overflow the add, which warned
    # on stderr before the exit 2; seed 0's stayed below the largest float, and passed. Both are
    # refused before any noise is drawn, and stderr holds the reason alone.
    csv = tmp_path / "big.csv"
    csv.write_text("j,k\n1,0.0\n2,1.5e308\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eulerchar.__file__)))
    run = subprocess.run([sys.executable, "-c", "import sys; from eulerchar.cli import main; "
                          "sys.exit(main())", "perturb", "--spectrum", str(csv), "--delta", "1e308",
                          "--seed", str(seed)], capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 2
    assert run.stdout == "" and "RuntimeWarning" not in run.stderr
    assert run.stderr == "error: delta = 1e+308 overflows the largest value 1.5e+308 or tol\n"


def test_verify_trace_passes(capsys):
    code = main(["verify-trace", "--graph", "lasso", "--t", "0.4", "--d", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace identity holds" in out
    gap = float(next(ln for ln in out.splitlines() if ln.startswith("gap="))[4:])
    bound = float(
        next(ln for ln in out.splitlines() if ln.startswith("certified_bound="))[16:]
    )
    assert gap <= bound + 1e-9


def test_verify_trace_whose_walks_exceed_the_budget_exits_2(tmp_path):
    # The lasso with its 5.0 edge at 1e-300: length_units gives D = 10^300, so walks that differ
    # in the short edge have distinct lengths, and the orbit side reaches its walk budget. Each
    # pop used to scan every pending length, which ran for minutes; off a heap it takes seconds.
    doc = tmp_path / "short.json"
    doc.write_text(to_document(preset("lasso")).replace("5.0", "1e-300"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eulerchar.__file__)))
    run = subprocess.run([sys.executable, "-c", "import sys; from eulerchar.cli import main; "
                          "sys.exit(main())", "verify-trace", "--graph", str(doc), "--t", "0.3"],
                         capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "error: orbit side at t=0.3 exceeds 2000000 walk entries\n"


VERIFY_TRACE_K5 = """\
lhs=-1.856762745781209
rhs=-1.856784866050212
gap=2.212e-05
certified_bound=9.524e-04
trace identity holds within the certified bound
"""


def test_verify_trace_reads_counts_and_length_from_the_graph(monkeypatch, capsys):
    # summarize's shortest-cycle search is not needed: M, N and L come from the graph.
    def refuse(g):
        raise AssertionError("summarize called")

    for module in [m for key, m in sys.modules.items() if key.startswith("eulerchar")]:
        if getattr(module, "summarize", None) is not None:
            monkeypatch.setattr(module, "summarize", refuse)
    assert main(["verify-trace", "--graph", "k5", "--t", "0.3"]) == 0
    assert capsys.readouterr().out == VERIFY_TRACE_K5


def test_verify_trace_triangular(capsys):
    code = main(["verify-trace", "--graph", "loop.json", "--t", "0.5", "--psi"])
    assert code == 2  # unknown file
    code = main(["verify-trace", "--graph", "lasso", "--t", "0.5", "--psi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace identity holds" in out


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_verify_trace_rejects_nonfinite_t(t, capsys):
    assert main(["verify-trace", "--graph", "lasso", "--t", t]) == 2
    assert "error: t must be positive and finite" in capsys.readouterr().err


def test_verify_trace_gap_beyond_the_bound_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "trace_check", lambda g, tf, t, s: (1.0, 0.5, 0.5, 0.25))
    assert main(["verify-trace", "--graph", "lasso", "--t", "0.4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "lhs=1\nrhs=0.5\ngap=5.000e-01\ncertified_bound=2.500e-01\n"
    assert captured.err == "trace identity violated beyond the certified bound\n"


def test_verify_trace_walk_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "MAX_WALK_ENTRIES", 1000)
    assert main(["verify-trace", "--graph", "k5", "--t", "0.2"]) == 2
    assert "error: orbit side at t=0.2 exceeds 1000 walk entries" in capsys.readouterr().err


def test_experiment_table(tmp_path, capsys):
    code = main(["experiment", "table", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "rho,d,J_minus_M"
    assert table[1] == "2,1,5"
    assert table[2] == "15.6,1,65"
    assert table[3] == "16.5,2,70"
    assert table[4] == "421,2,2911"
    assert table[5] == "423,3,2926"
    assert table[6] == "10000,3,96360"
    assert "rho=2" in out


def test_experiment_eps_outside_the_plan_range_exit_2(tmp_path, capsys):
    assert main(["experiment", "lasso", "--eps", "1.5", "--seeds", "1", "--out", str(tmp_path)]) == 2
    assert "error: eps_bar must lie in (0, 1/4], got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["compare", "--eps", "0.2"], "experiment compare does not read --eps"),
    (["compare", "--seed", "1"], "experiment compare does not read --seed"),
    (["compare", "--seeds", "5"], "experiment compare does not read --seeds"),
    (["compare", "--delta", "0.001"], "experiment compare does not read --delta"),
    (["table", "--seed", "1"], "experiment table does not read --seed"),
    (["table", "--seeds", "5"], "experiment table does not read --seeds"),
    (["table", "--delta", "auto"], "experiment table does not read --delta"),
    (["table", "--eps", "1.5"], "eps_bar must lie in (0, 1/4], got 1.5"),
    (["lasso", "--eps", "1.5"], "eps_bar must lie in (0, 1/4], got 1.5"),
    (["lasso", "--delta", "nan"], "delta must be finite and nonnegative"),
    (["lasso", "--delta", "inf"], "delta must be finite and nonnegative"),
    (["lasso", "--delta", "-1"], "delta must be finite and nonnegative"),
    (["lasso", "--seeds", "0"], "seeds must be at least 1"),
])
def test_experiment_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert main(["experiment", *argv, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", ["5e307", "1e308"])
def test_experiment_whose_noisy_sweep_overflows_exits_2_silently_and_writes_nothing(
        tmp_path, capsys, delta):
    # The noisy rows reach about delta / 2 at J, and the t sweep divides them by t / 10.
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["experiment", "lasso", "--seeds", "3", "--delta", delta, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert not caught and captured.out == ""
    assert captured.err.startswith("error: k_J / t overflows a float: t is too small for k_J = ")
    assert not out.exists()


def test_experiment_with_a_huge_delta_runs_silently(tmp_path, capsys):
    # 2 tol J / t overflows to an infinite bound: no noisy estimate is certified, nothing warns.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["experiment", "lasso", "--seeds", "3", "--delta", "1e307", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert not caught and captured.err == ""
    assert "note=3/3 noisy bounds do not certify a unique integer" in captured.out


def test_experiment_seeds_over_the_budget_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch):
    # Each seed perturbs the J + 20 = 68 listed values of the lasso: --seeds 100 needs 6,800.
    out = tmp_path / "run"
    monkeypatch.setattr(cli, "_GRID_ENTRIES", 6799)
    assert main(["experiment", "lasso", "--seeds", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 100 seeds need 6800 noisy values, 68 per seed, above the budget of 6799\n"
    assert not out.exists()

    def listing_reached(*args):
        raise SpectrumCountError("listing reached")

    # At the budget the run passes the check and goes on to the listing.
    monkeypatch.setattr(cli, "_GRID_ENTRIES", 6800)
    monkeypatch.setattr(cli, "spectrum_with_count", listing_reached)
    assert main(["experiment", "lasso", "--seeds", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: listing reached\n"


def test_experiment_lasso_outputs(tmp_path, capsys):
    code = main(["experiment", "lasso", "--seeds", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 correct" in out
    for name in (
        "plan.txt",
        "spectrum.csv",
        "recovery.csv",
        "sweep_t.csv",
        "sweep_t.svg",
        "testfn_compare.csv",
        "testfn_compare.svg",
        "error_vs_t.csv",
        "error_vs_t.svg",
        "error_vs_J.csv",
        "error_vs_J.svg",
    ):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "recovery.csv").read_text().splitlines()
    echo = [ln for ln in lines if ln.startswith("#")]
    rows = [ln for ln in lines if not ln.startswith("#")]
    assert "# J=48" in echo
    assert rows[0] == "t,J,S,abs_err,bound,seed"
    assert len(rows) == 4  # header, exact row, two seeds
    assert rows[1].endswith(",-1")
    # Every SVG has a CSV twin.
    for svg in tmp_path.glob("*.svg"):
        assert svg.with_suffix(".csv").exists()


def test_experiment_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main(["experiment", "lasso", "--seeds", "2", "--out", str(a_dir)]) == 0
    assert main(["experiment", "lasso", "--seeds", "2", "--out", str(b_dir)]) == 0
    for name in ("recovery.csv", "sweep_t.csv", "sweep_t.svg", "error_vs_J.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name


# sha256 of the bench's two experiment runs: every output file by name, then stdout with
# the output directory masked. Every figure and recovery.csv adds truncated sums.
EXPERIMENT_DIGESTS = {
    ("lasso",): "1073ae8ab479f4024d733989f8f53117fd1e630da03c53b29bc771468c377a5d",
    ("k5", "--seed", "777"): "8109a9cbed2bfc77fb62bf2d1dddf20c65d436813861c981a455f12b5126b787",
}


@pytest.mark.parametrize("args", list(EXPERIMENT_DIGESTS))
def test_experiment_bytes_are_frozen(args, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["experiment", args[0], "--seeds", "100", *args[1:], "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    digest.update(capsys.readouterr().out.replace(str(out), "<out>").encode())
    assert digest.hexdigest() == EXPERIMENT_DIGESTS[args]


def test_experiment_uncertified_noisy_misses_exit_0_with_a_note(tmp_path, capsys):
    # delta = 0.5 is far beyond lasso's delta_max: every noisy bound is 48.2, so no miss is certified.
    code = main(["experiment", "lasso", "--delta", "0.5", "--seeds", "20", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "12/20 correct\nnote=20/20 noisy bounds do not certify a unique integer\n" in captured.out
    rows = [ln.split(",") for ln in (tmp_path / "recovery.csv").read_text().splitlines()
            if not ln.startswith("#")][2:]
    assert len(rows) == 20 and all(float(row[4]) >= 0.5 for row in rows)


def test_experiment_certified_miss_exits_1(tmp_path, capsys, monkeypatch):
    certify_perturbed = cli.certify_perturbed

    def one_wrong(*args):
        first, *rest = certify_perturbed(*args)
        assert first.certified
        return [Estimate(first.S, first.chi_hat + 1, first.bound)] + rest

    monkeypatch.setattr(cli, "certify_perturbed", one_wrong)
    code = main(["experiment", "lasso", "--seeds", "3", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "2/3 correct" in captured.out and "note=" not in captured.out
    assert "recovery failed inside its certified regime" in captured.err


def test_cached_parser_is_reentrant(tmp_path, capsys):
    out = tmp_path / "exp"
    runs = [(["experiment"], 2), (["--help"], 0),
            (["experiment", "lasso", "--seeds", "2", "--out", str(out)], 0),
            (["spectrum", "lasso", "--count", "5"], 0)]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
        return code, captured.out, captured.err, files

    first = []
    for argv, code in runs:
        cli._build_parser.cache_clear()
        first.append(run(argv))
        assert first[-1][0] == code
    shutil.rmtree(out)
    cli._build_parser.cache_clear()
    assert cli._build_parser() is cli._build_parser()
    assert [run(argv) for argv, _ in runs] == first


def test_experiment_compare(tmp_path, capsys):
    code = main(["experiment", "compare", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare.svg").exists()
    header = (tmp_path / "compare.csv").read_text().splitlines()
    data = [ln for ln in header if not ln.startswith("#")]
    assert data[0] == "t,k5,k5_pendant,k33"
    assert "k5: chi=-5" in out


def test_experiment_custom_graph(tmp_path, capsys):
    doc = tmp_path / "loop.json"
    doc.write_text(to_document(preset("lasso")))
    code = main(["experiment", str(doc), "--seeds", "1", "--out",
                 str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "recovery.csv").exists()


def test_experiment_graph_file_defaults_to_experiment_custom(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "loop.json"
    doc.write_text(to_document(preset("lasso")))
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", str(doc), "--seeds", "1"]) == 0
    assert "outputs in experiment-custom/" in capsys.readouterr().out
    assert (tmp_path / "experiment-custom" / "recovery.csv").exists()


def test_experiment_unknown_input(tmp_path):
    assert main(["experiment", str(tmp_path / "missing.json"), "--out",
                 str(tmp_path / "x")]) == 2


def test_spectrum_unknown_graph(tmp_path):
    assert main(["spectrum", str(tmp_path / "nope.json")]) == 2


def test_no_arguments_shows_usage(capsys):
    code = main([])
    assert code == 2
