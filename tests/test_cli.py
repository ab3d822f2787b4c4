"""End-to-end tests of the command line interface via main(argv)."""

import math
import shutil
import sys

import pytest

from eulerchar import (
    Spectrum,
    SpectrumCountError,
    build_graph,
    cli,
    orbits,
    preset,
    to_document,
    write_spectrum_csv,
)
from eulerchar.cli import main
from eulerchar.estimator import Estimate

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
def test_spectrum_von_below_rejects_nonfinite_kmax(capsys, kmax):
    assert main(["spectrum", "k5", "--kmax", kmax, "--method", "von-below"]) == 2
    assert "error: k_max must be positive and finite" in capsys.readouterr().err


def test_spectrum_to_fl_pi_lists_no_part_of_the_cluster_at_pi(capsys):
    # k5 has five eigenvalues at pi, just above fl(pi); the cross-check compares only the
    # values listed, so it passed when one of the five was listed.
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
    assert any("cross-validated against von Below" in ln for ln in notes)
    assert any("graph=lasso" in ln for ln in notes)
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
    # A graph with incommensurable lengths cannot be subdivided; explicit
    # von Below must fail while auto falls back to secular with a note.
    doc = tmp_path / "weird.json"
    g = preset("lasso")
    text = to_document(g).replace("5.0", "5.000000001")
    doc.write_text(text)
    code = main(["spectrum", str(doc), "--count", "5", "--method", "von-below"])
    assert code == 2
    out_file = tmp_path / "weird.csv"
    code = main(["spectrum", str(doc), "--count", "5", "-o", str(out_file)])
    assert code == 0
    assert "cross-check skipped" in out_file.read_text()


def test_spectrum_auto_skips_crosscheck_beyond_the_subdivision_cap(tmp_path):
    # 4-decimal lengths need 55,406 equal pieces: auto must not build them.
    g = build_graph(
        "r2",
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1", 0.8332), ("v1", "v2", 0.6381), ("v2", "v3", 1.7894),
         ("v1", "v1", 1.9432), ("v3", "v2", 0.3367)],
    )
    doc = tmp_path / "r2.json"
    doc.write_text(to_document(g))
    out_file = tmp_path / "r2.csv"
    assert main(["spectrum", str(doc), "--count", "73", "-o", str(out_file)]) == 0
    text = out_file.read_text()
    assert "cross-check skipped" in text
    assert "55406 pieces" in text
    assert len([ln for ln in text.splitlines() if ln[0].isdigit()]) == 73


def test_spectrum_count_error_exits_1(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise SpectrumCountError("listing disagrees with the exact count")

    monkeypatch.setattr(cli, "spectrum_with_count", failing)
    assert main(["spectrum", "lasso", "--count", "5", "--method", "secular"]) == 1
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


@pytest.mark.parametrize("priors, message", [
    (["--J", "48", "--M", "nan", "--L", "6"], "error: M must be finite and nonnegative, got nan"),
    (["--J", "48", "--M", "2", "--L", "inf"], "error: L must be positive and finite, got inf"),
    (["--J", "14", "--M", "2", "--L", "6"], "error: tail bound needs x > 2*Lt*d = 12"),
    (["--J", str(10**300), "--M", "2", "--L", "6"], "error: tail bound overflows a float"),
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


def test_spectrum_kmax_over_the_grid_budget_exits_2(capsys):
    assert main(["spectrum", "lasso", "--kmax", "1e12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "above the budget of" in captured.err


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
    # priors given explicitly still take precedence.
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
    assert main([*explicit, "--M", "20", "--L", "6"]) == 0
    from_wide_priors = capsys.readouterr().out
    assert main([*explicit, "--graph", "lasso", "--M", "20", "--L", "6"]) == 0
    assert capsys.readouterr().out == from_wide_priors != from_graph


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
