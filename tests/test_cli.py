"""End-to-end checks of the console entry point.

Everything runs in-process through cli.main(argv) so exit codes and stdout
can be asserted without subprocesses.
"""

import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from divopt import (Family, FormulationKind, GeneratorSpec, HistogramMode,
                    Instance, ObjectiveKind, enumerate_maxmin_optima, generate,
                    histogram, solve_bilevel, solve_model, write_instance)
from divopt.cli import _LP_KINDS, build_parser, main
from divopt.plots import histogram_svg


@pytest.fixture
def t4_file(t4, tmp_path):
    path = tmp_path / "t4.txt"
    path.write_text(write_instance(t4), encoding="utf-8")
    return str(path)


@pytest.fixture
def square_file(unit_square, tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text(write_instance(unit_square), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_maxmin_output(t4_file, capsys):
    code, out = run(capsys, "solve", t4_file, "--model", "maxmin", "--m", "3")
    assert code == 0
    lines = out.splitlines()
    assert "status optimal" in lines
    assert "value 4" in lines
    assert "subset 2,3,4" in lines  # 1-based labels


def test_solve_uses_file_default_m(t4, tmp_path, capsys):
    import dataclasses
    inst = dataclasses.replace(t4, default_m=3)
    path = tmp_path / "withm.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    code, out = run(capsys, "solve", str(path), "--model", "maxsum")
    assert code == 0
    assert "value 15" in out


def test_solve_missing_m_is_usage_error(t4_file, capsys):
    code = main(["solve", t4_file, "--model", "maxsum"])
    assert code == 1


def test_solve_maxmean_refuses_an_explicit_m(t4, tmp_path, capsys):
    # maxmean chooses its own subset size, so --m 3 once printed a 4-node
    # optimum and exited 0; the solver refuses it, while a file header m
    # stays ignored
    import dataclasses
    path = tmp_path / "withm.txt"
    path.write_text(write_instance(dataclasses.replace(t4, default_m=3)),
                    encoding="utf-8")
    code = main(["solve", str(path), "--model", "maxmean", "--m", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    code, out = run(capsys, "solve", str(path), "--model", "maxmean")
    assert code == 0
    assert "subset 1,2,3,4" in out.splitlines()


def test_solve_bilevel_output(t4_file, capsys):
    code, out = run(capsys, "solve", t4_file, "--model", "bilevel-maxsum",
                    "--m", "3")
    assert code == 0
    assert "d_star 4" in out
    assert "value 15" in out
    assert "truncated false" in out


@pytest.mark.parametrize("mode", ["enumerate", "exact"])
def test_solve_bilevel_prints_its_search_effort(t4, t4_file, capsys, mode):
    # explored counts the nodes of the whole call, the d* solve and the
    # walk, as the result's stats do
    code, out = run(capsys, "solve", t4_file, "--model", "bilevel-maxsum",
                    "--m", "3", "--mode", mode)
    want = solve_bilevel(t4, 3, ObjectiveKind.MAXSUM, mode=mode).stats
    assert code == 0
    assert want.subsets_or_nodes_explored > 0
    assert out.splitlines()[-1] == f"explored {want.subsets_or_nodes_explored}"


def test_solve_bilevel_truncated_is_feasible(square_file, capsys):
    # the unit square has two MaxMin-optimal pairs; a cap of 1 truncates
    argv = ["solve", square_file, "--model", "bilevel-maxsum", "--m", "2",
            "--cap", "1"]
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert "status feasible" in lines
    assert "truncated true" in lines
    assert run(capsys, *argv, "--strict")[0] == 2
    code, out = run(capsys, *argv[:-2], "--strict")
    assert code == 0
    assert "status optimal" in out.splitlines()


def test_solve_bilevel_labels_its_count_by_mode(square_file, capsys):
    # enumerate mode lists the two MaxMin-optimal pairs (the diagonals);
    # exact mode counts the leaves its bound scored, which are not optima
    argv = ["solve", square_file, "--model", "bilevel-maxsum", "--m", "2"]
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert "optima 2" in lines
    assert not any(line.startswith("leaves ") for line in lines)
    code, out = run(capsys, *argv, "--mode", "exact")
    assert code == 0
    lines = out.splitlines()
    assert "leaves 1" in lines
    assert not any(line.startswith("optima ") for line in lines)


def test_solve_rejects_a_nan_time_limit(t4_file, capsys):
    code = main(["solve", t4_file, "--model", "maxmin", "--m", "3",
                 "--time-limit", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "time_limit must be positive, got nan" in captured.err


def test_solve_original_method(t4_file, capsys):
    code, out = run(capsys, "solve", t4_file, "--model", "maxmin",
                    "--m", "3", "--method", "original")
    assert code == 0
    assert "value 4" in out
    assert "decision_solves" in out


def test_evaluate(t4_file, capsys):
    code, out = run(capsys, "evaluate", t4_file, "--model", "maxminsum",
                    "--subset", "2,3,4")
    assert code == 0
    assert out.strip() == "value 9"


def test_evaluate_rejects_bad_labels(t4_file, capsys):
    assert main(["evaluate", t4_file, "--model", "maxsum",
                 "--subset", "0,1"]) == 1
    assert main(["evaluate", t4_file, "--model", "maxsum",
                 "--subset", "1,5"]) == 1


def test_generate_manifest_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["generate", "--family", "som", "--n", "8", "--m", "3",
                     "--seed", "4", "--count", "2", "--out", str(out)])
        assert code == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["manifest.csv", "som_n8_m3_s4.txt", "som_n8_m3_s5.txt"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = (out1 / "manifest.csv").read_text()
    assert manifest.splitlines()[0] == "family,n,m,seed,filename"
    assert "som_n8_m3_s5.txt" in manifest


def test_generate_rejects_ignored_dim(tmp_path, capsys):
    out = tmp_path / "som"
    code = main(["generate", "--family", "som", "--n", "8", "--m", "3",
                 "--dim", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: dim not used by the som family")
    assert not out.exists()


def _refused_at_parse_time(capsys, out, *argv):
    # exit 1 with argparse's message for the flag, and nothing written
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "must be an integer of at least 1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "0", "two"])
def test_generate_rejects_a_count_below_one(tmp_path, capsys, count):
    # --count -1 once wrote an empty manifest and reported -1 instances
    _refused_at_parse_time(capsys, tmp_path / "gen", "generate", "--family",
                           "som", "--n", "8", "--m", "3", "--count", count)


def test_bench_rejects_a_count_below_one(tmp_path, capsys):
    # --count 0 once wrote results.csv before it failed
    _refused_at_parse_time(capsys, tmp_path / "bench", "bench", "--family",
                           "som", "--n", "8", "--m", "3", "--count", "0")


def test_analyze_and_solve_reject_a_cap_below_one(t4_file, tmp_path, capsys):
    # analyze --cap 0 once solved every model and wrote its CSVs first
    _refused_at_parse_time(capsys, tmp_path / "analysis", "analyze", t4_file,
                           "--m", "3", "--cap", "0")
    assert main(["solve", t4_file, "--model", "bilevel-maxsum", "--m", "3",
                 "--cap", "0"]) == 1
    assert "must be an integer of at least 1" in capsys.readouterr().err


def test_export_lp_stdout_and_file(t4_file, tmp_path, capsys):
    code, out = run(capsys, "export-lp", t4_file, "--kind", "maxminsum_tight",
                    "--m", "3")
    assert code == 0
    assert out.startswith("\\ instance:")
    assert out.endswith("End\n")
    target = tmp_path / "model.lp"
    code2, _ = run(capsys, "export-lp", t4_file, "--kind", "maxminsum_tight",
                   "--m", "3", "--out", str(target))
    assert code2 == 0
    assert target.read_text(encoding="utf-8") == out


def test_nan_threshold_exits_1(t4_file, tmp_path, capsys):
    code = main(["export-lp", t4_file, "--kind", "node_packing", "--l", "nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "NaN" in captured.err
    sol = tmp_path / "x.sol"
    sol.write_text("x_2 1\nx_3 1\n", encoding="utf-8")
    code = main(["verify", t4_file, "--kind", "node_packing", "--l", "nan",
                 "--solution", str(sol)])
    assert code == 1
    assert "NaN" in capsys.readouterr().err


def test_verify_roundtrip(t4_file, tmp_path, capsys):
    sol = tmp_path / "x.sol"
    sol.write_text("x_2 1\nx_3 1\nx_4 1\n", encoding="utf-8")
    code, out = run(capsys, "verify", t4_file, "--kind", "maxsum_kuo",
                    "--m", "3", "--solution", str(sol))
    assert code == 0
    assert "selected 2,3,4" in out
    assert "value 15" in out
    assert "valid true" in out


def test_verify_reports_violations(t4_file, tmp_path, capsys):
    sol = tmp_path / "x.sol"
    sol.write_text("x_1 1\nx_2 1\nx_3 1\n", encoding="utf-8")
    code, out = run(capsys, "verify", t4_file, "--kind",
                    "packing_feasibility", "--m", "3", "--l", "4.0",
                    "--solution", str(sol))
    assert code == 0  # a correctly parsed but invalid vector is not an error
    assert "valid false" in out
    assert out.count("violation ") == 2


def test_analyze_outputs(t4_file, square_file, tmp_path, capsys):
    rep = tmp_path / "rep"
    code, _ = run(capsys, "analyze", t4_file, square_file, "--m", "2",
                  "--out", str(rep))
    assert code == 0
    expected = {"solutions.csv", "geometry.csv", "cross_model.csv",
                "multiplicity.csv", "hist_maxsum.csv", "hist_maxmin.csv",
                "hist_maxminsum.csv", "hist_mindiff.csv"}
    assert expected <= {p.name for p in rep.iterdir()}
    solutions = (rep / "solutions.csv").read_text().splitlines()
    assert solutions[0] == "instance,model,status,value,subset"
    assert len(solutions) == 1 + 2 * 4


def test_analyze_byte_identical(t4_file, tmp_path, capsys):
    rep1, rep2 = tmp_path / "r1", tmp_path / "r2"
    for rep in (rep1, rep2):
        assert main(["analyze", t4_file, "--m", "3",
                     "--out", str(rep)]) == 0
    for p in sorted(rep1.iterdir()):
        assert p.read_bytes() == (rep2 / p.name).read_bytes()


def test_analyze_multiplicity_at_header_m(tmp_path, capsys):
    # without --m every output, multiplicity.csv included, uses each
    # file's header m
    insts = [generate(GeneratorSpec(Family.GKD_D, n=8, m=m, seed=s))
             for m, s in ((3, 0), (4, 1))]
    paths = []
    for inst in insts:
        path = tmp_path / f"{inst.name}.txt"
        path.write_text(write_instance(inst), encoding="utf-8")
        paths.append(str(path))
    rep = tmp_path / "rep"
    code, _ = run(capsys, "analyze", *paths, "--models", "maxmin",
                  "--out", str(rep))
    assert code == 0
    rows = (rep / "multiplicity.csv").read_text().splitlines()
    assert rows[1:] == [
        f"{inst.name},{len(enumerate_maxmin_optima(inst, inst.default_m))},"
        "false" for inst in insts]


def test_analyze_budget_stop_writes_na_multiplicity(tmp_path, capsys):
    # the budget stops the maxmin solve, so no d* is proven and the
    # enumeration stops too: the instance's row reads NA, and the run
    # still ends with its summary line
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=40, m=6, seed=0))
    path = tmp_path / f"{inst.name}.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    argv = ["analyze", str(path), "--models", "maxsum,maxmin",
            "--max-nodes", "5"]
    for rep, extra, want in (("rep", [], 0), ("strict", ["--strict"], 2)):
        code = main([*argv, *extra, "--out", str(tmp_path / rep)])
        captured = capsys.readouterr()
        assert code == want
        assert captured.out.startswith("analyzed 1 instance(s), 2 model(s)")
        assert "budget exhausted" in captured.err
        rows = (tmp_path / rep / "multiplicity.csv").read_text().splitlines()
        assert rows == ["instance,optima,truncated", f"{inst.name},NA,NA"]


def test_export_lp_kind_choices_are_the_formulations():
    assert _LP_KINDS == tuple(k.value for k in FormulationKind)


def test_plot_scatter(square_file, tmp_path, capsys):
    fig = tmp_path / "fig.svg"
    code, _ = run(capsys, "plot", square_file, "--style", "scatter",
                  "--models", "maxsum,maxmin", "--m", "2",
                  "--out", str(fig))
    assert code == 0
    root = ET.fromstring(fig.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    pts = [e for e in root.iter(f"{ns}circle") if e.get("class") == "pt"]
    sel = [e for e in root.iter(f"{ns}circle") if e.get("class") == "sel"]
    assert len(pts) == 4 and len(sel) == 4


def test_plot_histogram(t4_file, tmp_path, capsys):
    fig = tmp_path / "h.svg"
    code, _ = run(capsys, "plot", t4_file, "--style", "histogram",
                  "--models", "maxmin", "--m", "3", "--histmode",
                  "integer_bars", "--out", str(fig))
    assert code == 0
    ET.fromstring(fig.read_text(encoding="utf-8"))


def test_plot_histogram_of_bilevel_model(t4, t4_file, tmp_path, capsys):
    fig = tmp_path / "h.svg"
    code, _ = run(capsys, "plot", t4_file, "--style", "histogram",
                  "--models", "bilevel-maxsum", "--m", "3", "--out", str(fig))
    assert code == 0
    chosen = solve_bilevel(t4, 3, ObjectiveKind.MAXSUM).chosen
    hist = histogram([(t4, chosen)], HistogramMode.NORMALIZED10)
    assert fig.read_text(encoding="utf-8") == \
        histogram_svg(hist, title="t4 bilevel-maxsum")


def test_plot_maxmean_needs_no_m(t4, t4_file, tmp_path, capsys):
    fig = tmp_path / "h.svg"
    code, _ = run(capsys, "plot", t4_file, "--style", "histogram",
                  "--models", "maxmean", "--out", str(fig))
    assert code == 0
    chosen = solve_model(t4, None, ObjectiveKind.MAXMEAN).solution
    hist = histogram([(t4, chosen)], HistogramMode.NORMALIZED10)
    assert fig.read_text(encoding="utf-8") == \
        histogram_svg(hist, title="t4 maxmean")


@pytest.mark.parametrize("style", ["scatter", "histogram"])
def test_plot_maxmean_refuses_an_explicit_m(unit_square, tmp_path, capsys,
                                            style):
    # --m 3 once drew the 4-node maxmean optimum and exited 0; a file
    # header m stays ignored
    import dataclasses
    path = tmp_path / "withm.txt"
    path.write_text(write_instance(dataclasses.replace(unit_square,
                                                       default_m=3)),
                    encoding="utf-8")
    fig = tmp_path / "mm.svg"
    argv = ["plot", str(path), "--style", style, "--models", "maxmean",
            "--out", str(fig)]
    code = main(argv + ["--m", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "maxmean chooses its own subset size" in captured.err
    assert not fig.exists()
    code, _ = run(capsys, *argv)
    assert code == 0 and fig.exists()


@pytest.mark.parametrize("style", ["scatter", "histogram"])
def test_plot_budget_stop_draws_nothing(style, tmp_path, capsys):
    inst = generate(GeneratorSpec(family=Family.GKD_D, n=40, m=6, seed=3))
    path = tmp_path / "inst.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    fig = tmp_path / "stopped.svg"
    code = main(["plot", str(path), "--style", style, "--models", "maxsum",
                 "--max-nodes", "1", "--out", str(fig)])
    assert code == 0
    assert "budget exhausted" in capsys.readouterr().err
    assert not fig.exists()


def test_bench_outputs(tmp_path, capsys):
    out = tmp_path / "bench"
    code, _ = run(capsys, "bench", "--family", "som", "--n", "7", "--m", "3",
                  "--count", "2", "--seed", "1", "--out", str(out))
    assert code == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "set,instance,model,status,value"
    assert len(results) == 1 + 2 * 4
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary == ["set,model,count,solved"] + [
        f"som_n7_m3,{model},2,2"  # all optimal
        for model in ("maxmin", "maxminsum", "maxsum", "mindiff")]


@pytest.mark.parametrize("models", ["", " , ", "maxsum,maxsum"])
def test_bench_refuses_an_empty_or_repeated_model_list(models, tmp_path,
                                                       capsys):
    # an empty list once wrote results.csv before it failed; a repeated
    # name was solved and counted twice
    out = tmp_path / "bench"
    code = main(["bench", "--family", "som", "--n", "8", "--m", "3",
                 "--count", "1", "--models", models, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_analyze_and_plot_refuse_a_repeated_model(t4_file, tmp_path, capsys):
    rep = tmp_path / "rep"
    assert main(["analyze", t4_file, "--m", "3", "--models",
                 "maxsum,maxmin,maxsum", "--out", str(rep)]) == 1
    assert "model 'maxsum' listed twice" in capsys.readouterr().err
    assert not rep.exists()
    fig = tmp_path / "s.svg"
    assert main(["plot", t4_file, "--m", "3", "--models", "maxmin maxmin",
                 "--out", str(fig)]) == 1
    assert "model 'maxmin' listed twice" in capsys.readouterr().err
    assert not fig.exists()


def test_analyze_refuses_an_instance_with_no_positive_distance(
        t4_file, tmp_path, capsys):
    # deviations and the normalized histogram divide by distances; such an
    # instance once wrote solutions.csv and geometry.csv before it failed
    flat = Instance(name="flat", family=Family.CUSTOM,
                    distances=np.zeros((6, 6)))
    path = tmp_path / "flat.txt"
    path.write_text(write_instance(flat), encoding="utf-8")
    rep = tmp_path / "rep"
    code = main(["analyze", t4_file, str(path), "--m", "3",
                 "--out", str(rep)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: instance flat has no positive distance\n"
    assert not rep.exists()


def test_bench_budget_stopped_jobs_have_no_deviation(tmp_path, capsys):
    # one job per (instance, model) and none proven optimal: the summary
    # counts them and reports no deviation, for which no job has a
    # reference value
    out = tmp_path / "bench"
    code, _ = run(capsys, "bench", "--family", "mdg", "--n", "30", "--m", "6",
                  "--count", "2", "--models", "maxsum,maxmin",
                  "--max-nodes", "20", "--out", str(out))
    assert code == 0
    results = (out / "results.csv").read_text().splitlines()[1:]
    assert len(results) == 4
    assert all(line.split(",")[3] == "feasible" for line in results)
    summary = (out / "summary.csv").read_text().splitlines()[1:]
    assert summary == ["mdg_n30_m6,maxmin,2,0", "mdg_n30_m6,maxsum,2,0"]


def test_bench_counts_the_solved_jobs_of_a_mixed_row(tmp_path, capsys):
    # the budget proves one of four instances optimal and stops the other
    # three; the row says so, where a deviation column once read 0
    out = tmp_path / "bench"
    code, _ = run(capsys, "bench", "--family", "mdg", "--n", "30", "--m", "6",
                  "--count", "4", "--models", "maxsum", "--max-nodes", "2300",
                  "--out", str(out))
    assert code == 0
    statuses = [line.split(",")[3] for line in
                (out / "results.csv").read_text().splitlines()[1:]]
    assert statuses == ["optimal", "feasible", "feasible", "feasible"]
    assert (out / "summary.csv").read_text() == \
        "set,model,count,solved\nmdg_n30_m6,maxsum,4,1\n"


def test_only_bench_defaults_a_time_limit():
    # one parser: a default set on a shared parent's action would reach
    # every command built from that parent
    parser = build_parser()

    def limits(*argv):
        args = parser.parse_args(argv)
        return args.time_limit, args.max_nodes

    bench = ("bench", "--family", "som", "--n", "8", "--m", "3", "--out", "b")
    assert limits(*bench) == (60.0, None)
    assert limits(*bench, "--time-limit", "5", "--max-nodes", "7") == (5.0, 7)
    for argv in (("solve", "a.txt", "--model", "maxmin"),
                 ("analyze", "a.txt", "--out", "o"),
                 ("plot", "a.txt", "--out", "o.svg")):
        assert limits(*argv) == (None, None)


def test_brute_force_solve_obeys_max_nodes(tmp_path, capsys):
    # C(12, 4) = 495 subsets, more than the 5 nodes: refused unscored
    inst = generate(GeneratorSpec(family=Family.SOM, n=12, m=4, seed=0))
    path = tmp_path / f"{inst.name}.txt"
    path.write_text(write_instance(inst), encoding="utf-8")
    code, out = run(capsys, "solve", str(path), "--model", "maxminsum",
                    "--max-nodes", "5", "--strict")
    assert code == 2
    assert out.splitlines() == ["model maxminsum", "status budget_exceeded",
                                "explored 0"]
    code, out = run(capsys, "solve", str(path), "--model", "maxminsum",
                    "--max-nodes", "495", "--strict")
    assert code == 0
    assert "status optimal" in out and "explored 495" in out
    # the subset budget is gone with its flag
    assert main(["solve", str(path), "--model", "maxminsum",
                 "--max-subsets", "5"]) == 1


def test_exit_codes(t4_file):
    assert main(["solve", t4_file, "--model", "bogus"]) == 1
    assert main(["solve", "/does/not/exist.txt", "--model", "maxmin",
                 "--m", "2"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["--help"]) == 0
    # budget exhaustion: strict flips it to exit 2
    assert main(["solve", t4_file, "--model", "maxmin", "--m", "3",
                 "--max-nodes", "1"]) == 0
    assert main(["solve", t4_file, "--model", "maxmin", "--m", "3",
                 "--max-nodes", "1", "--strict"]) == 2
