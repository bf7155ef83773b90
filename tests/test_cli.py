import csv

import pytest

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


def test_lse_without_mu_is_a_usage_error(tmp_path):
    assert main(["solve", "--problem", "lse", "--n", "20", "--method", "cn",
                 "--out", str(tmp_path)]) == EXIT_USAGE


def test_validate_of_a_missing_trace_is_a_usage_error(tmp_path):
    assert main(["validate", "--trace", str(tmp_path / "missing.csv")]) == EXIT_USAGE


def test_solve_that_hits_its_cap_is_a_solver_failure(tmp_path):
    assert main(["solve", "--problem", "lse", "--n", "20", "--mu", "1", "--method", "cn",
                 "--cap-outer", "2", "--out", str(tmp_path)]) == EXIT_SOLVER


@pytest.mark.parametrize("argv", [
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--sigma", "1e-4", "--method", "gm"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "bogus"],
    ["--problem", "quadratic", "--n", "1", "--q", "0.01", "--method", "gm"],
    ["--problem", "quadratic", "--n", "10", "--q", "2", "--method", "gm"],
    ["--problem", "lse", "--n", "10", "--mu", "-1", "--method", "cn"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm", "--eps", "nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm",
     "--cap-outer", "-1"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "gm", "--sigma", "-1"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "const:nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--delta-schedule", "power:1,nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--gamma0", "nan"],
    ["--problem", "quadratic", "--n", "10", "--q", "0.01", "--method", "cptm-p1",
     "--cap-inner", "-3"],
])
def test_solve_of_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    assert main(["solve", *argv, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("solve: ") and "Traceback" not in err


@pytest.mark.parametrize("extra, code", [
    (["--sizes", "4"], EXIT_OK),
    (["--sizes", "4", "--cap-outer", "1"], EXIT_SOLVER),
    (["--sizes", "1"], EXIT_USAGE),
])
def test_bench_exit_codes(tmp_path, capsys, extra, code):
    # a sweep exits 0 when every cell converges, 3 when a cell fails and 2 on
    # an instance it cannot build (the quadratic spectrum needs n >= 2)
    assert main(["bench", "--suite", "quadratic", "--seeds", "0", "--method", "gm",
                 *extra, "--out", str(tmp_path)]) == code
    if code == EXIT_OK:
        assert (tmp_path / "bench_quadratic.json").exists()
    if code == EXIT_USAGE:
        assert capsys.readouterr().err.startswith("bench: ")
