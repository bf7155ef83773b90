import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from contraprox.bench import build_instance, run_method, validate_trace_file
from contraprox.bregman import PowerProx
from contraprox.contracting import (GeometricSchedule, SublinearSchedule,
                                    run_contracting_proximal)
from contraprox.objectives import (attach_reference, power_regularizer_component,
                                   quadratic_instance)
from contraprox.trace import CHUNK_ROWS, CSV_COLUMNS, FIELDS, STEP_FIELDS, drive
from contraprox.validate import validate_trace

# the checks a file replays: every check that reads only the CSV columns and the header
COLUMN_CHECKS = {"residual_consistent", "above_optimum", "outer_certificate", "gamma_telescope",
                 "coefficient_sum", "schedule_growth", "delta_honored", "inner_condition_ratio",
                 "inner_budget"}

# (in-memory, from-file) check counts of each honest run
RUN_CHECKS = {"sublinear": (2524, 1298), "geometric-psi": (19624, 12512), "lse-p2": (4420, 2873)}


def _solve(run):
    """cptm-p1 on quadratic n = 20, q = 1e-2 (with psi, sigma = 1e-4, on the geometric
    schedule), or cptm-p2 on lse n = 20, mu = 1, L_2 = 2; all at seed 0."""
    if run == "lse-p2":
        obj, method = build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=2.0), "cptm-p2"
    else:
        obj, method = build_instance("quadratic", 20, 0, q=1e-2), "cptm-p1"
        if run == "geometric-psi":
            psi = power_regularizer_component(1e-4, PowerProx(1, np.zeros(obj.dim), obj.metric))
            obj = attach_reference(obj.with_simple(psi))
    trace = run_method(method, obj, 1e-7)
    prox = PowerProx(trace.header["p"], np.zeros(obj.dim), obj.metric)
    sched = trace.header["schedule"]
    schedule = (GeometricSchedule(sched["omega"], sched["c"], sched["p"])
                if sched["kind"] == "geometric" else SublinearSchedule(sched["c"], sched["p"]))
    return obj, trace, prox, schedule


@pytest.fixture(scope="module")
def honest():
    return _solve("sublinear")


@pytest.fixture(scope="module", params=sorted(RUN_CHECKS))
def run(request, honest):
    return request.param, honest if request.param == "sublinear" else _solve(request.param)


def _validate(honest, trace):
    obj, _, prox, schedule = honest
    return validate_trace(trace, prox, obj.xstar, obj.fstar, schedule)


def _failed(report):
    return {(c.name, c.k) for c in report.failures()}


def test_honest_trace_passes_in_memory_and_from_file(honest, tmp_path):
    _, trace, _, _ = honest
    memory = _validate(honest, trace)
    path = tmp_path / "cptm.csv"
    trace.write_csv(path)
    from_file = validate_trace_file(str(path))
    assert len(memory.checks) == 2524 and memory.ok
    assert len(from_file.checks) == 1298 and from_file.ok


def test_file_report_replays_the_outer_checks_of_the_memory_report(run, tmp_path):
    # every check of the file report is the memory report's check of the same
    # name and k, passed alike and with a bitwise equal margin
    name, solved = run
    _, trace, _, _ = solved
    memory = _validate(solved, trace)
    path = tmp_path / "cptm.csv"
    trace.write_csv(path)
    from_file = validate_trace_file(str(path))
    assert (len(memory.checks), len(from_file.checks)) == RUN_CHECKS[name]
    assert memory.ok and from_file.ok
    key = lambda c: (c.name, c.k, c.passed, c.margin)
    assert (Counter(key(c) for c in from_file.checks)
            == Counter(key(c) for c in memory.checks if c.name in COLUMN_CHECKS))


@pytest.mark.parametrize("missing", ["x*", "f*", "x* and f*"])
def test_a_missing_optimum_is_refused(honest, missing):
    # a None x* used to make every D(v_k; x*) NaN, which skipped the outer
    # certificate and the inner budget and still reported ok; a None f* with
    # x* given ended in a TypeError
    obj, trace, prox, schedule = honest
    xstar = None if "x*" in missing else obj.xstar
    fstar = None if "f*" in missing else obj.fstar
    with pytest.raises(ValueError, match=re.escape(f"but {missing} not given")):
        validate_trace(trace, prox, xstar, fstar, schedule)


@pytest.mark.parametrize("xstar", [np.zeros(19), np.zeros((20, 1)), np.full(20, np.nan),
                                   np.r_[np.zeros(19), np.inf]],
                         ids=["short", "column", "nan", "inf"])
def test_an_optimum_that_is_not_a_finite_vector_of_the_trace_dimension_is_refused(honest,
                                                                                   xstar):
    obj, trace, prox, schedule = honest
    with pytest.raises(ValueError, match="finite vector of the trace's dimension 20"):
        validate_trace(trace, prox, xstar, obj.fstar, schedule)


# the fields a solver yields in a row, besides F(x_k), x, v and the step rows
YIELDED = ("A", "gamma", "a", "delta_requested", "s_norm", "t_inner", "bregman_step",
           "bregman_vstar")


def _replay(honest, tamper, with_steps=True):
    """The trace ``drive`` records, at the honest run's eps and cap, when it is
    fed the honest run's rows, row 50 changed by ``tamper`` first, as a solver
    that yields a wrong value makes it; without ``with_steps`` no row carries
    its inner steps."""
    obj, trace, _, _ = honest
    steps = trace.steps

    def iterates():
        for rec in trace.records:
            row = {name: getattr(rec, name) for name in YIELDED}
            row = {name: value for name, value in row.items() if not math.isnan(value)}
            row.update(f_value=rec.f_value, x=rec.x, v=rec.v)
            if with_steps:
                row["steps"] = [tuple(step)[1:] for step in steps[steps.k == rec.k]]
            if rec.k == 50:
                tamper(row)
            yield row.pop("f_value"), row

    return drive(obj, trace.header, trace.header["eps"], trace.header["cap"], iterates())


def test_an_untouched_replay_records_the_honest_trace(honest):
    _, trace, _, _ = honest
    replay = _replay(honest, lambda row: None)
    got, want = replay.columns(), trace.columns()
    for name in set(want) - {"oracle_f", "oracle_g", "oracle_h", "matvec"}:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert [rec.x.tobytes() for rec in replay] == [rec.x.tobytes() for rec in trace]
    assert [rec.v.tobytes() for rec in replay] == [rec.v.tobytes() for rec in trace]
    assert replay.steps.tobytes() == trace.steps.tobytes()
    assert _failed(_validate(honest, replay)) == set()


def _set(name, value):
    """Change one field of the row yielded at k = 50."""
    def tamper(row):
        row[name] = value(row[name])
    return tamper


def test_moved_point_fails_contraction_combination(honest):
    tampered = _replay(honest, _set("v", lambda v: v + 1e-3))
    assert ("contraction_combination", 50) in _failed(_validate(honest, tampered))


def test_inflated_subgradient_fails_delta_honored(honest):
    tampered = _replay(honest, _set("s_norm", lambda s: s * 1e3))
    assert ("delta_honored", 50) in _failed(_validate(honest, tampered))


def _stored(**values):
    """Set fields of row 50 after ``drive`` recorded it, each to value(f*), as a trace
    written otherwise than by ``drive`` may hold them."""
    def tamper(trace):
        row = trace._blocks["scalars"][50 // CHUNK_ROWS][50 % CHUNK_ROWS]
        for name, value in values.items():
            row[FIELDS.index(name)] = value(trace.header["fstar"])
    tamper.stored = True
    return tamper


def _first_step(name, value):
    """Change one field of the first inner step yielded with row 50."""
    def tamper(row):
        step = dict(zip(STEP_FIELDS[1:], row["steps"][0]))
        step[name] = value(step)
        row["steps"][0] = tuple(step.values())
    return tamper


# L_p(g) of a row follows from its a and A, so a tampered A also moves the L that
# prices the gradient progress of the row's inner steps
@pytest.mark.parametrize("tamper, failed", [
    (_set("A", lambda A: A * 10),
     {("schedule_growth", 50), ("contraction_combination", 50), ("contraction_combination", 51),
      ("inner_gradient_progress", 50), ("coefficient_sum", 50), ("coefficient_sum", 51)}),
    (_set("gamma", lambda g: g + 1e-6), {("gamma_telescope", 50)}),
    (_set("t_inner", lambda t: t * 100), {("inner_budget", 50)}),
    (_set("x", lambda x: x + 1e-3),
     {("contraction_combination", 50), ("contraction_combination", 51)}),
    (_set("a", lambda a: a * 2), {("inner_condition_ratio", 50), ("contraction_combination", 50),
                                  ("coefficient_sum", 50)}),
    (_set("f_value", lambda f: f + 1.0), {("outer_certificate", 50)}),
    (_first_step("h_after", lambda s: s["h_before"] + 1.0), {("inner_descent", 50)}),
    (_first_step("decrease_pairing", lambda _: -1.0), {("inner_gradient_progress", 50)}),
    (_stored(f_value=lambda fstar: fstar - 1e-3, residual=lambda fstar: fstar - 1e-3 - fstar),
     {("above_optimum", 50)}),
    (_stored(residual=lambda _: 123.0), {("residual_consistent", 50)}),
], ids=["A", "gamma", "t_inner", "x", "a", "f_value", "h_after", "decrease_pairing",
        "f_value-below-optimum", "residual"])
def test_tampered_record_fails_exactly_its_checks(honest, tamper, failed):
    if getattr(tamper, "stored", False):
        trace = _replay(honest, lambda row: None)
        tamper(trace)
    else:
        trace = _replay(honest, tamper)
    assert _failed(_validate(honest, trace)) == failed


def _tampered_file(honest, tmp_path, edit):
    """The honest run's CSV file, its lines changed by ``edit``, validated."""
    path = tmp_path / "cptm.csv"
    honest[1].write_csv(path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return validate_trace_file(str(path))


def _set_cell(row, column, value):
    """A file edit that changes one cell of the row at k = ``row``."""
    def edit(lines):
        cells = lines[2 + row].split(",")
        assert cells[0] == str(row)
        j = lines[1].split(",").index(column)
        cells[j] = repr(value(float(cells[j])))
        lines[2 + row] = ",".join(cells)
    return edit


def _set_F(value):
    """A file edit that sets F = value(F, f*) at k = 50 and its residual to F - f*,
    f* being the header's."""
    def edit(lines):
        fstar = json.loads(lines[0][2:])["fstar"]
        F = value(float(lines[52].split(",")[CSV_COLUMNS.index("F")]), fstar)
        _set_cell(50, "F", lambda _: F)(lines)
        _set_cell(50, "residual", lambda _: F - fstar)(lines)
    return edit


@pytest.mark.parametrize("edit, failed", [
    # a changed A_k also breaks A_k = A_{k-1} + a_k at k and at k + 1
    (_set_cell(50, "A_k", lambda A: A * 10),
     {("schedule_growth", 50), ("coefficient_sum", 50), ("coefficient_sum", 51)}),
    (_set_cell(50, "gamma_k", lambda g: g + 1e-6), {("gamma_telescope", 50)}),
    (_set_F(lambda F, _: F + 1.0), {("outer_certificate", 50)}),
    # F alone no longer matches its residual
    (_set_cell(50, "F", lambda F: F + 1.0),
     {("outer_certificate", 50), ("residual_consistent", 50)}),
    # F below f*, with its residual, only loosens the certificate's inequalities
    (_set_F(lambda _, fstar: fstar - 1e-3), {("above_optimum", 50)}),
    (_set_cell(50, "residual", lambda _: 123.0), {("residual_consistent", 50)}),
], ids=["A_k", "gamma_k", "F", "F-alone", "F-below-optimum", "residual"])
def test_tampered_file_cell_fails_exactly_its_outer_check(honest, tmp_path, edit, failed):
    assert _failed(_tampered_file(honest, tmp_path, edit)) == failed


# a file replays the inner condition ratio and the inner budget too: L_p(g) and
# ell/mu come from the header's L_p(f) and the row's a_k, A_k and gamma_k
@pytest.mark.parametrize("column, value, check", [
    ("t_k", lambda t: t * 100, "inner_budget"),
    ("a_k", lambda a: a * 2, "inner_condition_ratio"),
    ("a_k", lambda a: 1e200, "inner_condition_ratio"),
], ids=["t_k-x100", "a_k-x2", "a_k-1e200"])
def test_tampered_file_cell_fails_exactly_its_inner_check(honest, tmp_path, column, value, check):
    # a changed a_k also breaks A_k = A_{k-1} + a_k
    also = {("coefficient_sum", 50)} if column == "a_k" else set()
    report = _tampered_file(honest, tmp_path, _set_cell(50, column, value))
    assert _failed(report) == {(check, 50)} | also


@pytest.mark.parametrize("solved, column, failed", [
    ("sublinear", "gamma_k", {("gamma_telescope", 50), ("inner_condition_ratio", 50)}),
    ("lse-p2", "a_k", {("inner_condition_ratio", 50), ("coefficient_sum", 50)}),
], ids=["p1-gamma_k", "p2-a_k"])
def test_a_file_row_whose_ratio_is_undefined_fails_it(honest, tmp_path, solved, column, failed):
    # ell/mu takes p-th roots of (p + 1) L_p(g) / p! and of gamma_k sigma, which a
    # negated gamma_k, or a negated a_k at p = 2, makes negative
    solved = honest if solved == "sublinear" else _solve(solved)
    report = _tampered_file(solved, tmp_path, _set_cell(50, column, lambda value: -value))
    assert _failed(report) == failed


def test_a_file_whose_header_raises_the_lipschitz_constant_fails_every_ratio(honest, tmp_path):
    def edit(lines):
        header = json.loads(lines[0][2:])
        header["lipschitz"] *= 10
        lines[0] = "# " + json.dumps(header)
    report = _tampered_file(honest, tmp_path, edit)
    assert _failed(report) == {("inner_condition_ratio", k) for k in range(1, 145)}


@pytest.mark.parametrize("edit", [
    lambda lines: lines.pop(2),
    _set_cell(0, "bregman_vstar", lambda _: math.nan),
    _set_cell(0, "bregman_vstar", lambda _: -1.0),
], ids=["row-0-deleted", "row-0-divergence-nan", "row-0-divergence-negative"])
def test_a_file_without_a_finite_row_0_divergence_fails_every_certificate(honest, tmp_path,
                                                                          edit):
    # the certificate's head term is gamma0 D(v_0; x*), which every honest
    # cptm trace carries; without it, or with a negative one, which made the
    # head complex, no row is certified
    report = _tampered_file(honest, tmp_path, edit)
    assert _failed(report) == {("outer_certificate", k) for k in range(1, 145)}


def _instance_file(obj, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj.descriptor))
    return str(path)


@pytest.mark.parametrize("value, failed", [
    (None, set()), (1e6, {("initial_divergence", 0)}), (-1.0, {("initial_divergence", 0)}),
], ids=["honest", "row-0-1e6", "row-0-negative"])
def test_a_rebuilt_instance_recomputes_the_row_0_divergence(honest, tmp_path, value, failed):
    # against the rebuilt instance D(x_0; x*) = d(x*) is recomputed from the
    # header's x_0: an honest row 0 matches it exactly, and the certificate
    # uses it, so a forged row 0 fails its own check and nothing else
    path = tmp_path / "cptm.csv"
    honest[1].write_csv(path)
    if value is not None:
        lines = path.read_text().splitlines()
        _set_cell(0, "bregman_vstar", lambda _: value)(lines)
        path.write_text("\n".join(lines) + "\n")
    report = validate_trace_file(str(path), _instance_file(honest[0], tmp_path))
    assert _failed(report) == failed
    (check,) = report.checks[report.checks.name == "initial_divergence"]
    assert check.k == 0 and (value is not None or check.margin == 1e-12)
    plain = validate_trace_file(str(path))
    key = lambda c: (c.name, c.k, c.passed, c.margin)
    assert (Counter(key(c) for c in report.checks if c.name != "outer_certificate")
            == Counter(key(c) for c in plain.checks if c.name != "outer_certificate")
            + Counter([key(check)]))


def test_a_negated_coefficient_fails_exactly_the_coefficient_sum(tmp_path):
    # a_k enters L_p(g) squared at p = 1, so before A_k = A_{k-1} + a_k was
    # checked a file with a_50 negated passed every check
    obj = build_instance("quadratic", 10, 0, q=1e-2)
    path = tmp_path / "cptm.csv"
    run_method("cptm-p1", obj, 1e-7).write_csv(path)
    assert validate_trace_file(str(path)).ok
    lines = path.read_text().splitlines()
    _set_cell(50, "a_k", lambda a: -a)(lines)
    path.write_text("\n".join(lines) + "\n")
    assert _failed(validate_trace_file(str(path))) == {("coefficient_sum", 50)}


def test_a_file_delta_whose_inner_budget_is_infinite_is_reported(honest, tmp_path):
    # delta_50^2 underflows to 0, which made the budget a ZeroDivisionError;
    # the budget is now infinite and s_norm still cannot meet delta_50
    report = _tampered_file(honest, tmp_path, _set_cell(50, "delta_req", lambda _: 1e-200))
    assert _failed(report) == {("delta_honored", 50)}
    (budget,) = report.checks[(report.checks.name == "inner_budget") & (report.checks.k == 50)]
    assert budget.margin == math.inf


def test_rows_without_steps_make_an_empty_step_table_that_passes(honest):
    # rows that carry no step rows, as inner loops that start with a
    # delta-small subgradient yield them: an empty table with every field,
    # and no per-step checks
    _, trace, _, _ = honest
    replay = _replay(honest, lambda row: None, with_steps=False)
    assert replay.status == "converged" and len(replay) == len(trace)
    assert len(replay.steps) == 0 and replay.steps.dtype.names == STEP_FIELDS
    report = _validate(honest, replay)
    assert report.ok and len(report.checks) == 2524 - 2 * len(trace.steps)
    assert not {"inner_descent", "inner_gradient_progress"} & set(report.checks.name)


def test_a_schedule_neither_sublinear_nor_geometric_skips_the_growth_check():
    # validate_trace read such a schedule's omega as if it were geometric and
    # raised AttributeError; the header path already skipped the check
    obj = quadratic_instance(10, 2.0, 5)
    L = obj.smooth.lipschitz[1]

    class QuadraticEquationSchedule:
        kind, p = "quadratic-equation", 1

        def next_a(self, k, A):
            return (1.0 + math.sqrt(1.0 + 4.0 * L * A)) / (2.0 * L)

        def describe(self):
            return {"kind": self.kind, "p": self.p}

    sched = QuadraticEquationSchedule()
    prox = PowerProx(1, np.zeros(10), obj.metric)
    trace = run_contracting_proximal(obj, prox, sched, "power:1.0,2.0", 1e-7, cap_outer=5000,
                                     gamma0=1.0)
    report = validate_trace(trace, prox, obj.xstar, obj.fstar, sched)
    assert "schedule_growth" not in set(report.checks.name)
