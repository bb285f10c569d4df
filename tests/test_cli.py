"""CLI contract: JSON reports, exit codes, seed discipline."""

import json
import math
import os

import pytest

from mixvol import cli
from mixvol.errors import DivergenceError, EstimationError
from mixvol.estimates import MCEstimate
from mixvol.generators import cube, diamond
from mixvol.polytope import polytope_to_json
from mixvol.translative import TranslativeTable


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_oracle_report(capsys):
    code, out, _ = run_cli(capsys, "mixed-volume", "--gen", "cube,diamond",
                           "--dim", "2")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["method"] == "oracle"
    assert report["value"] == pytest.approx(2.0, abs=1e-8)
    assert report["passed"] is True


def test_kernel_eval_orthogonal_pair(capsys):
    code, out, _ = run_cli(capsys, "kernel-eval", "--mode", "n",
                           "--degrees", "1,1", "--dirs", "1,0;0,1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25, rel=1e-9)


def test_schneider_matches_oracle(capsys):
    code, out, _ = run_cli(capsys, "mixed-volume", "--gen", "cube,diamond",
                           "--dim", "2", "--method", "schneider",
                           "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["rel_delta"] <= 1e-6


def test_seed_required_for_mc(capsys):
    code, _, err = run_cli(capsys, "mixed-volume", "--gen", "cube,diamond",
                           "--dim", "2", "--method", "schneider")
    assert code == 2
    assert "seed" in err


def test_bad_generator(capsys):
    code, _, _ = run_cli(capsys, "mixed-volume", "--gen", "dodecahedron",
                         "--dim", "2")
    assert code == 2


def test_gen_requires_dim(capsys):
    code, _, _ = run_cli(capsys, "mixed-volume", "--gen", "cube,cube")
    assert code == 2


def test_body_and_gen_exclusive(capsys, tmp_path):
    f = tmp_path / "b.json"
    f.write_text(polytope_to_json(cube(2)))
    code, _, _ = run_cli(capsys, "mixed-volume", "--body", str(f),
                         "--gen", "cube", "--dim", "2")
    assert code == 2


def test_epsilon_method_needs_eps(capsys):
    code, _, _ = run_cli(capsys, "mixed-volume", "--gen", "cube,diamond",
                         "--dim", "2", "--method", "epsilon", "--seed", "1")
    assert code == 2


def test_missing_subcommand_is_input_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a parse error still exits 2 with
    # its usage message after a good call, and --threads keeps its default
    assert cli.build_parser() is cli.build_parser()
    for argv in (["verify", "--suite", "nope"], ["kernel-eval", "--mode", "n",
                                                  "--degrees", "1,1", "--dirs", "1,0;0,1"],
                 ["mixed-volume", "--method", "nope"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == (0 if argv[0] == "kernel-eval" else 2)
        assert ("invalid choice" in err) == (code == 2)
    args = cli.build_parser().parse_args(["verify"])
    assert args.threads == (os.cpu_count() or 1) and args.suite == "quick"
    assert cli.build_parser().parse_args(["--threads", "3", "verify"]).threads == 3
    assert cli.build_parser().parse_args(["verify"]).threads == (os.cpu_count() or 1)


def test_body_files(capsys, tmp_path):
    fq = tmp_path / "q.json"
    fd = tmp_path / "d.json"
    fq.write_text(polytope_to_json(cube(2)))
    fd.write_text(polytope_to_json(diamond(2)))
    code, out, _ = run_cli(capsys, "mixed-volume", "--body", str(fq),
                           "--body", str(fd))
    assert code == 0
    report = json.loads(out)
    assert report["value"] == pytest.approx(2.0, abs=1e-8)
    assert report["bodies"] == ["cube2", "diamond2"]


def test_reports_are_byte_identical(capsys):
    argv = ["mixed-volume", "--gen", "cube,diamond", "--dim", "2",
            "--method", "angle", "--seed", "11", "--samples", "2000"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_kernel_eval_k4_is_byte_identical(capsys):
    """A k = 4 kernel is Monte Carlo, and kernel-eval takes no seed: it
    seeds the draw itself, so two calls print the same bytes."""
    argv = ["kernel-eval", "--mode", "n", "--degrees", "1,1,0,0",
            "--dirs", "1,0;0,1;-1,0;0.6,0.8"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["value"] > 0.0


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "kernel-eval", "--mode", "n",
                           "--degrees", "1,1", "--dirs", "1,0;0,1",
                           "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_flag_check_divergence_exit(capsys):
    # parallel squares: the flag pairing hits antipodal directions
    code, _, err = run_cli(capsys, "flag-check", "--gen", "cube,cube",
                           "--dim", "2", "--degrees", "1,1", "--seed", "1")
    assert code == 3
    assert "divergence" in err


def test_translative_report(capsys):
    code, out, _ = run_cli(capsys, "translative", "--gen", "cube,diamond",
                           "--dim", "2", "--j", "0", "--seed", "2",
                           "--samples", "4000")
    assert code == 0
    report = json.loads(out)
    # the j = 0 pair integral is vol(Q + (-D)) = 7, computed exactly
    assert report["value"] == pytest.approx(7.0, rel=1e-12)
    assert report["std_error"] == 0.0


@pytest.mark.parametrize("dim,j", [(2, 0), (2, 1), (3, 1)],
                         ids=["0-exact-decomposition", "1-exact-decomposition",
                              "3-1-exact-decomposition"])
def test_decompose_route_label(capsys, dim, j):
    # every entry is exact, and the report says so
    code, out, _ = run_cli(capsys, "translative", "--gen", "cube,diamond",
                           "--dim", str(dim), "--j", str(j), "--seed", "2",
                           "--samples", "200", "--decompose")
    assert code == 0
    report = json.loads(out)
    assert report["route"] == "exact-decomposition"
    assert all(e["std_error"] == 0.0 for e in report["entries"].values())


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("extra", [[], ["--decompose"]], ids=["mc", "decompose"])
def test_one_draw_report_is_valid_json(capsys, monkeypatch, extra):
    # one draw has no sample spread: the API keeps std_error = inf, the
    # report prints null.  The translative subcommand is exact and the
    # sampling ones split their budget with a floor of 32 draws per face
    # tuple, so a one-draw estimate is fed in here
    one_draw = MCEstimate(2.0, math.inf, 1)
    monkeypatch.setattr(cli, "translative_integral_mc",
                        lambda *args, **kwargs: one_draw)
    monkeypatch.setattr(cli, "decompose_homogeneous", lambda *args, **kwargs:
                        TranslativeTable(3, 1, {(2, 2): 2.0}, "test",
                                         {(2, 2): math.inf},
                                         {"cond": 1.0, "samples": 1,
                                          "total_std_error": math.inf}))
    code, out, _ = run_cli(capsys, "translative", "--gen", "cube,diamond",
                           "--dim", "3", "--j", "1", "--seed", "2",
                           "--samples", "1", *extra)
    assert code == 0
    report = _strict_json(out)
    if extra:
        assert report["total"]["std_error"] is None
        assert all(e["std_error"] is None for e in report["entries"].values())
    else:
        assert report["std_error"] is None
        assert report["value"] > 0.0


def test_estimation_error_maps_to_4(capsys, monkeypatch):
    def boom(args):
        raise EstimationError("synthetic")
    monkeypatch.setitem(cli._DISPATCH, "kernel-eval", boom)
    code, _, err = run_cli(capsys, "kernel-eval", "--mode", "n",
                           "--degrees", "1,1", "--dirs", "1,0;0,1")
    assert code == 4
    assert "estimation failure" in err


def test_divergence_error_maps_to_3(capsys, monkeypatch):
    def boom(args):
        raise DivergenceError("synthetic")
    monkeypatch.setitem(cli._DISPATCH, "kernel-eval", boom)
    code, _, _ = run_cli(capsys, "kernel-eval", "--mode", "n",
                         "--degrees", "1,1", "--dirs", "1,0;0,1")
    assert code == 3


def test_verify_exit_tracks_suite_result(capsys, monkeypatch):
    monkeypatch.setattr(cli._verify, "run_suite",
                        lambda suite, seed: {"passed": True})
    assert cli.main(["verify", "--suite", "quick", "--seed", "7"]) == 0
    assert "suite quick: PASS" in capsys.readouterr().out
    monkeypatch.setattr(cli._verify, "run_suite",
                        lambda suite, seed: {"passed": False})
    assert cli.main(["verify", "--suite", "quick", "--seed", "7"]) == 1
    assert "suite quick: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # the oracle gives vol(cube) = 1 here; n_i = d is outside the rule
    ["mixed-volume", "--gen", "cube,simplex", "--dim", "3", "--method",
     "schneider", "--degrees", "3,0", "--seed", "1"],
    ["translative", "--gen", "cube,diamond", "--dim", "2", "--j", "1",
     "--seed", "1", "--samples", "0"],
    ["translative", "--gen", "cube,diamond", "--dim", "2", "--j", "1",
     "--seed", "1", "--samples", "0", "--decompose"],
    ["translative", "--gen", "cube,diamond", "--dim", "2", "--j", "1",
     "--seed", "1", "--samples", "-5"],
], ids=["schneider-n_i=d", "samples-0", "decompose-samples-0", "samples-neg"])
def test_invalid_degrees_and_samples_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("input error:")


def test_flag_functional_reference_outside_curvature_scope(capsys):
    # d = 4, (2, 2) pairs two arcs, which the curvature route does not
    # evaluate: the flag estimate is reported without a reference
    code, out, _ = run_cli(capsys, "flag-check", "--gen", "cube,diamond",
                           "--dim", "4", "--degrees", "2,2", "--functional",
                           "--seed", "1", "--samples", "1")
    assert code == 0
    report = json.loads(out)
    assert report["reference"] is None and "passed" not in report
    assert report["value"] > 0.0
