import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contraprox.bench import INSTANCE_KEYS, build_instance
from contraprox.cli import EXIT_OK, EXIT_SOLVER, EXIT_USAGE, EXIT_VALIDATION, main


def test_solve_then_validate_round_trip(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "lse", "--n", "20", "--mu", "1", "--l2", "2",
                 "--method", "cptm-p2", "--out", str(out)]) == EXIT_OK
    trace, instance = out / "cptm-p2.csv", out / "instance.json"
    assert main(["validate", "--trace", str(trace), "--instance", str(instance)]) == EXIT_OK

    # the first line is the JSON header, the second the column names; the
    # last row's s_norm is within three orders of magnitude of its delta
    lines = trace.read_text().splitlines(keepends=True)
    columns = next(csv.reader([lines[1]]))
    row = next(csv.reader([lines[-1]]))
    i = columns.index("s_norm")
    row[i] = repr(float(row[i]) * 1e3)
    lines[-1] = ",".join(row) + "\n"
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("".join(lines))
    assert main(["validate", "--trace", str(tampered),
                 "--instance", str(instance)]) == EXIT_VALIDATION


@pytest.mark.parametrize("flag", [["--q", "0.01"], ["--alpha", "3"]], ids=["q", "alpha"])
def test_validate_rebuilds_the_f_star_of_a_q_or_an_alpha_descriptor(tmp_path, flag):
    # a --q descriptor records q beside the alpha it gives, and build_instance
    # takes that pair; the rebuilt f* is the solved instance's, bit for bit
    out = tmp_path / "run"
    assert main(["solve", "--problem", "quadratic", "--n", "10", *flag, "--method", "cptm-p1",
                 "--out", str(out)]) == EXIT_OK
    descriptor = json.loads((out / "instance.json").read_text())
    assert ("q" in descriptor) == (flag[0] == "--q")
    rebuilt = build_instance(**{k: descriptor[k] for k in INSTANCE_KEYS if k in descriptor})
    assert repr(rebuilt.fstar) == repr(descriptor["fstar"])
    assert main(["validate", "--trace", str(out / "cptm-p1.csv"),
                 "--instance", str(out / "instance.json")]) == EXIT_OK


def test_solve_with_psi_then_validate_against_the_rebuilt_instance(tmp_path):
    # the descriptor records sigma, so the rebuilt instance has psi and its f*;
    # rebuilt without psi, 42 honest outer_certificate checks fail against f's optimum
    out = tmp_path / "run"
    assert main(["solve", "--problem", "quadratic", "--n", "20", "--q", "0.01",
                 "--sigma", "1e-3", "--method", "cptm-p1", "--out", str(out)]) == EXIT_OK
    assert main(["validate", "--trace", str(out / "cptm-p1.csv"),
                 "--instance", str(out / "instance.json")]) == EXIT_OK


def test_lse_without_mu_is_a_usage_error(tmp_path):
    assert main(["solve", "--problem", "lse", "--n", "20", "--method", "cn",
                 "--out", str(tmp_path)]) == EXIT_USAGE


def test_validate_of_a_missing_trace_is_a_usage_error(tmp_path):
    assert main(["validate", "--trace", str(tmp_path / "missing.csv")]) == EXIT_USAGE


def _header(change):
    """A trace edit that applies ``change`` to the JSON header."""
    def edit(lines):
        header = json.loads(lines[0][2:])
        change(header)
        return ["# " + json.dumps(header) + "\n", *lines[1:]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["# [1, 2]\n", *lines[1:]], "the first line is not '# ' and a JSON object"),
    (_header(lambda h: h.pop("sigma_uniform")),
     "the trace header has sigma_uniform = None, but p must be"),
    (_header(lambda h: h.pop("gamma0")), "the trace header has gamma0 = None, but p must be"),
    (_header(lambda h: h["schedule"].pop("c")),
     "the trace header has schedule c = None, but p must be"),
    (_header(lambda h: h.update(p="2")), "the trace header has p = '2', but p must be"),
    (_header(lambda h: h.update(lipschitz="1")),
     "the trace header has lipschitz = '1', but p must be"),
    (lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0] + "\n"],
     "a row of 14 fields under 15 columns"),
], ids=["header-list", "no-sigma_uniform", "no-gamma0", "sublinear-without-c", "p-text",
        "lipschitz-text", "narrow-row"])
def test_validate_of_a_malformed_trace_is_a_usage_error(tmp_path, capsys, edit, message):
    # exit 1 means failed checks; a trace the checks cannot read is a usage
    # error, reported on one line
    out = tmp_path / "run"
    assert main(["solve", "--problem", "quadratic", "--n", "10", "--q", "0.01",
                 "--method", "cptm-p1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "cptm-p1.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(edit(lines)))
    assert main(["validate", "--trace", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("validate: malformed input: ") and message in err
    assert err.count("\n") == 1


def test_solve_that_hits_its_cap_is_a_solver_failure(tmp_path):
    assert main(["solve", "--problem", "lse", "--n", "20", "--mu", "1", "--method", "cn",
                 "--cap-outer", "2", "--out", str(tmp_path)]) == EXIT_SOLVER


@pytest.mark.parametrize("argv, order", [
    (["--problem", "quadratic", "--q", "0.01", "--method", "cptm-p1", "--gamma0", "1e160"], 1),
    (["--problem", "lse", "--mu", "1", "--method", "cptm-p2", "--gamma0", "1e200"], 2),
], ids=["cptm-p1-1e160", "cptm-p2-1e200"])
def test_a_gamma0_that_overflows_the_contracted_constant_is_a_solver_failure(
        tmp_path, capsys, argv, order):
    # a ** (p + 1) leaves the float range: the method fails, the others would run
    assert main(["solve", "--n", "10", *argv, "--out", str(tmp_path)]) == EXIT_SOLVER
    out, err = capsys.readouterr()
    assert f"FAILED the contracted L_{order} overflows at a = " in out
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--sigma", "1e-4", "--method", "gm"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "bogus"],
    ["--problem", "quadratic", "--n", "1", "--q", "0.01", "--method", "gm"],
    ["--problem", "quadratic", "--n", "10", "--q", "2", "--method", "gm"],
    ["--problem", "lse", "--n", "10", "--mu", "-1", "--method", "cn"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm", "--eps", "nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm", "--eps", "inf"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm",
     "--cap-outer", "-1"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm", "--sigma", "-1"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "const:nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "power:1,nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "const:inf"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "power:inf,2"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "power:1,inf"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--gamma0", "nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--gamma0", "inf"],
])
def test_solve_of_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    assert main(["solve", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("solve: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--problem", "quadratic", "--q", "0.01", "--method", "cptm-p1", "--sigma", "inf"],
     "sigma must be finite, not inf"),
    (["--problem", "quadratic", "--alpha", "nan", "--method", "gm"],
     "alpha must be finite, not nan"),
    (["--problem", "quadratic", "--alpha", "-1", "--method", "gm"], "alpha must be positive"),
    (["--problem", "quadratic", "--q", "1e-300", "--method", "gm"],
     "condition ratio q must lie in (1.8e-35, …), not 1e-300"),
    (["--problem", "quadratic", "--q", "nan", "--alpha", "3", "--method", "gm"],
     "condition ratio q must lie in (1.8e-35, …), not nan"),
    (["--problem", "lse", "--mu", "1e300", "--method", "cn"],
     "mu must be at most 1e+50, not 1e+300"),
    (["--problem", "lse", "--mu", "inf", "--method", "cn"], "mu must be finite, not inf"),
    (["--problem", "lse", "--mu", "1", "--l2", "nan", "--method", "cptm-p2"],
     "lipschitz_order2 must be finite, not nan"),
    (["--problem", "lse", "--mu", "1", "--l2", "-1", "--method", "cn"],
     "lipschitz_order2 must be positive"),
    (["--problem", "quadratic", "--q", "0.01", "--alpha", "3", "--method", "gm"],
     "quadratic instances need q or alpha, not q = 0.01 and alpha = 3.0"),
], ids=["sigma-inf", "alpha-nan", "alpha-negative", "q-tiny", "q-nan", "mu-huge", "mu-inf",
        "l2-nan", "l2-negative", "q-and-alpha"])
def test_solve_names_the_instance_parameter_it_refuses(tmp_path, capsys, argv, message):
    # each of these used to end in a warning, a solver failure or a message
    # about another quantity, or (l2 -1) to run; "…" stands for a bound
    # printed in full
    assert main(["solve", "--n", "6", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    head, _, tail = message.partition("…")
    assert err.startswith(f"solve: {head}") and err.endswith(f"{tail}\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("extra, code", [
    (["--sizes", "4"], EXIT_OK),
    (["--sizes", "4", "--cap-outer", "1"], EXIT_SOLVER),
    (["--sizes", "1"], EXIT_USAGE),
    (["--sizes", "4", "--eps", "inf"], EXIT_USAGE),
])
def test_bench_exit_codes(tmp_path, capsys, extra, code):
    # a sweep exits 0 when every cell converges, 3 when a cell fails and 2 on
    # an instance it cannot build (the quadratic spectrum needs n >= 2) or an
    # eps no run can stop on (eps = inf "converged" every cell at iteration 0)
    assert main(["bench", "--suite", "quadratic", "--seeds", "0", "--method", "gm",
                 *extra, "--out", str(tmp_path)]) == code
    assert (tmp_path / "bench_quadratic.json").exists() == (code != EXIT_USAGE)
    if code == EXIT_USAGE:
        assert capsys.readouterr().err.startswith("bench: ")


@pytest.mark.parametrize("argv, refused", [
    (["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p2"], "cptm-p2"),
    (["--problem", "lse", "--n", "10", "--mu", "1", "--method", "cptm-p2"], "cptm-p2"),
    (["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
      "--method", "gm", "--method", "agm", "--method", "ppa", "--method", "cn"],
     "gm, agm, ppa"),
    (["--problem", "lse", "--n", "10", "--mu", "1", "--method", "acn"], "acn"),
])
def test_solve_rejects_psi_for_methods_that_cannot_take_it(tmp_path, capsys, monkeypatch,
                                                           argv, refused):
    # the pair is refused before any instance is built, naming the methods
    def no_build(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("contraprox.bench.build_instance", no_build)
    assert main(["solve", *argv, "--sigma", "1e-4", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"solve: sigma > 0 adds an order-1 psi, which only cptm-p1 and cn take, not {refused}\n")


@pytest.mark.parametrize("descriptor, tail", [
    ("{}", "is a JSON object with problem, n and seed, not {}"),
    ("[1]", "is a JSON object with problem, n and seed, not [1]"),
    ('{"problem": "quadratic", "n": "10", "seed": 0, "q": 0.01}', "n must be an int, not '10'"),
    ('{"problem": "quadratic", "n": 10, "seed": 1.5, "q": 0.01}', "seed must be an int, not 1.5"),
    ('{"problem": "quadratic", "n": 10, "seed": 0, "q": "0.01"}',
     "q must be a number, not '0.01'"),
    ('{"problem": "lse", "n": 10, "seed": true, "mu": 1.0}', "seed must be an int, not True"),
    ('{"problem": "lse", "n": 10, "seed": 0, "mu": false}', "mu must be a number, not False"),
    ('{"problem": 1, "n": 10, "seed": 0, "mu": 1.0}', "problem must be a string, not 1"),
], ids=["empty", "list", "n-string", "seed-float", "q-string", "seed-bool", "mu-bool",
        "problem-int"])
def test_validate_against_a_malformed_descriptor_is_a_usage_error(tmp_path, capsys,
                                                                   descriptor, tail):
    # a mistyped field used to reach build_instance and end in a TypeError (exit 1)
    out = tmp_path / "run"
    assert main(["solve", "--problem", "lse", "--n", "10", "--mu", "1",
                 "--method", "cptm-p2", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    bad = tmp_path / "descriptor.json"
    bad.write_text(descriptor)
    assert main(["validate", "--trace", str(out / "cptm-p2.csv"),
                 "--instance", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("validate: malformed input: ") and err.endswith(tail + "\n")
    assert err.count("\n") == 1


def test_validate_refuses_a_baseline_trace_before_building_its_instance(tmp_path, capsys,
                                                                       monkeypatch):
    # the refusal used to come after the instance's reference solve
    out = tmp_path / "run"
    assert main(["solve", "--problem", "lse", "--n", "10", "--mu", "1",
                 "--method", "cn", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()

    def no_build(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr("contraprox.bench.build_instance", no_build)
    assert main(["validate", "--trace", str(out / "cn.csv"),
                 "--instance", str(out / "instance.json")]) == EXIT_USAGE
    assert capsys.readouterr().err == ("validate: malformed input: trace was not produced by "
                                       "the contracting solver; only its traces carry "
                                       "certificate columns\n")


@pytest.mark.parametrize("command", ["solve", "bench", "validate"])
def test_a_failed_reference_solve_is_a_solver_failure(tmp_path, capsys, command):
    # at n = 20, mu = 1e-5 the reference Newton stops at its iteration cap; a
    # failed factorization, a LinAlgError and so a ValueError, used to be
    # reported as bad input (exit 2)
    if command == "validate":
        run = tmp_path / "run"
        assert main(["solve", "--problem", "quadratic", "--n", "10", "--q", "0.01",
                     "--method", "cptm-p1", "--out", str(run)]) == EXIT_OK
        descriptor = tmp_path / "descriptor.json"
        descriptor.write_text('{"problem": "lse", "n": 20, "seed": 0, "mu": 1e-5}')
        argv = ["validate", "--trace", str(run / "cptm-p1.csv"), "--instance", str(descriptor)]
    elif command == "bench":
        argv = ["bench", "--suite", "lse", "--sizes", "20", "--conditionings", "1e-5",
                "--seeds", "0", "--out", str(tmp_path / "b")]
    else:
        argv = ["solve", "--problem", "lse", "--n", "20", "--mu", "1e-5", "--method", "gm",
                "--out", str(tmp_path / "s")]
    capsys.readouterr()
    assert main(argv) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: solver failure: reference Newton ")


@pytest.mark.parametrize("argv, refused", [
    (["--problem", "lse", "--mu", "1", "--q", "0.5"], "--q"),
    (["--problem", "lse", "--mu", "1", "--alpha", "2"], "--alpha"),
    (["--problem", "quadratic", "--q", "0.01", "--mu", "3"], "--mu"),
    (["--problem", "quadratic", "--q", "0.01", "--mu", "3", "--l2", "9"], "--mu, --l2"),
])
def test_solve_refuses_instance_flags_its_problem_ignores(tmp_path, capsys, argv, refused):
    assert main(["solve", *argv, "--n", "10", "--method", "cn",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    problem = argv[1]
    assert capsys.readouterr().err == f"solve: --problem {problem} takes no {refused}\n"
    assert not any(tmp_path.iterdir())


def test_plain_lse_solve_keeps_its_header(tmp_path):
    # --l2 defaults to no flag at all, and build_instance's L_2 = 1 fills it in
    plain, explicit = tmp_path / "plain", tmp_path / "explicit"
    for out, extra in ((plain, []), (explicit, ["--l2", "1"])):
        assert main(["solve", "--problem", "lse", "--n", "10", "--mu", "1", "--method", "cn",
                     *extra, "--out", str(out)]) == EXIT_OK
    header = (plain / "cn.csv").read_text().splitlines()[0]
    assert header == (explicit / "cn.csv").read_text().splitlines()[0]
    assert '"lipschitz_order2": 1.0' in header


# what `contraprox curves --p-min 1 --p-max 10` prints and writes, byte for byte
CURVES_1_TO_10 = """p,delta,K
1,0.125,6.656854249492381
2,0.01469815788859444,7.118946707966517
3,0.0018719036257215014,7.4401429338004235
4,0.000254213721851715,7.585628878642062
5,3.6190414542138366e-05,7.640573388529924
6,5.33673804292512e-06,7.650113631621336
7,8.085313311973846e-07,7.636654362715388
8,1.2513346500941816e-07,7.611623929713485
9,1.9702292785840452e-08,7.581054245134978
10,3.146309528993952e-09,7.548214878861645
"""


def test_curves_prints_and_writes_the_order_dependence_table(tmp_path):
    # run as the module's __main__, the way `python -m contraprox.cli` starts it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "curves" / "order.csv"
    run = subprocess.run([sys.executable, "-m", "contraprox.cli", "curves", "--p-min", "1",
                          "--p-max", "10", "--out", str(out)],
                         env=env, capture_output=True, text=True, check=False)
    assert (run.returncode, run.stdout, run.stderr) == (EXIT_OK, CURVES_1_TO_10, "")
    assert out.read_text() == CURVES_1_TO_10


@pytest.mark.parametrize("p_min, p_max", [(1, 127), (128, 128), (142, 142), (200, 300)])
def test_curves_past_the_float_range_is_a_usage_error(tmp_path, capsys, p_min, p_max):
    # K overflows to inf at p = 127, delta underflows to 0 from 128, and from
    # 142 the formula's integers no longer fit a float
    out = tmp_path / "curves.csv"
    assert main(["curves", "--p-min", str(p_min), "--p-max", str(p_max),
                 "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"curves: delta or K of order {max(p_min, 127)} leaves the float range\n")
    assert not out.exists()


def test_curves_up_to_order_126_keeps_its_rows(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--p-min", "125", "--p-max", "126", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ("p,delta,K\n125,2.17985093145436e-95,6.685769046300152\n"
                               "126,3.962079234029126e-96,6.684291822649526\n")


def test_curves_below_order_one_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["curves", "--p-min", "0", "--out", str(out)]) == EXIT_USAGE
    assert "need 1 <= p-min <= p-max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, taken", [
    (["solve", "--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cn"],
     Path.touch),
    (["bench", "--suite", "quadratic", "--sizes", "4", "--seeds", "0"], Path.touch),
    (["curves"], Path.mkdir),
], ids=["solve", "bench", "curves"])
def test_an_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, monkeypatch, argv,
                                                        taken):
    # an existing file where solve and bench make a directory, and a directory
    # where curves writes a file: solve and bench refuse it before any solve
    # runs, and none ends in a traceback
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")
    monkeypatch.setattr("contraprox.cli.solve_experiment", no_solve)
    monkeypatch.setattr("contraprox.cli.bench_sweep", no_solve)
    out = tmp_path / "taken"
    taken(out)
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith(f"{argv[0]}: cannot write --out {out}: ")


def test_solve_with_a_delta_whose_inner_budget_is_infinite_is_a_usage_error(tmp_path, capsys):
    # delta^2 underflows to 0 at 1e-200, which ended in a ZeroDivisionError traceback
    assert main(["solve", "--problem", "quadratic", "--n", "10", "--q", "1e-2",
                 "--method", "cptm-p1", "--delta-schedule", "const:1e-200",
                 "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("solve: delta_1 = 1e-200 leaves no finite inner budget")
    assert "Traceback" not in err
