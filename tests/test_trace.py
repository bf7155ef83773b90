import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from contraprox import baselines, contracting
from contraprox.bench import BENCH_LSE_LIPSCHITZ2, build_instance, run_method
from contraprox.objectives import CompositeObjective
from contraprox.tensor_steps import inner_loop
from contraprox.trace import CHUNK_ROWS, CSV_COLUMNS, STEP_FIELDS, drive
from tests.step_reference import reference_write_csv

# the quadratic has no order-2 Lipschitz constant, so cptm-p2 runs on lse only
RUNS = ([("quadratic", m) for m in ("gm", "agm", "ppa", "cptm-p1", "cn", "acn")]
        + [("lse", m) for m in ("gm", "agm", "ppa", "cptm-p1", "cn", "acn", "cptm-p2")])
OPTIONAL = ("A", "gamma", "a", "delta_requested", "s_norm", "t_inner", "bregman_step",
            "bregman_vstar")


def _instance(problem):
    if problem == "quadratic":
        return build_instance("quadratic", 12, 0, q=1e-2)
    return build_instance("lse", 12, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.fixture(scope="module", params=RUNS, ids=["-".join(r) for r in RUNS])
def recorded(request):
    """A run's trace, every row its iterates yielded, with x and v copied at
    yield time and the oracle counters as they stood then, and the step rows
    of each ``inner_loop`` return in call order."""
    problem, method = request.param
    yielded, inner = [], []

    def tapped_inner_loop(*args):
        point, s_norm, steps = inner_loop(*args)
        inner.append(list(steps))
        return point, s_norm, steps

    def tapped_drive(obj, header, eps, cap, iterates):
        def tap():
            for f, row in iterates:
                c = obj.counters
                yielded.append((f, dict(row, x=row["x"].copy(),
                                        v=None if row.get("v") is None else row["v"].copy()),
                                {"oracle_f": c.value, "oracle_g": c.grad,
                                 "oracle_h": c.hess, "matvec": c.matvec}))
                yield f, row
        return drive(obj, header, eps, cap, tap())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "drive", tapped_drive)
        mp.setattr(contracting, "drive", tapped_drive)
        mp.setattr(contracting, "inner_loop", tapped_inner_loop)
        obj = _instance(problem)
        trace = run_method(method, obj, 1e-7)
    return obj, trace, yielded, inner


def test_every_yielded_row_is_stored_bit_for_bit(recorded):
    obj, trace, yielded, _ = recorded
    assert len(trace.records) == len(yielded) > 1
    for k, (rec, (f, row, counters)) in enumerate(zip(trace.records, yielded)):
        assert rec.k == k
        assert _bits(rec.f_value) == _bits(f)
        assert _bits(rec.residual) == _bits(f - obj.fstar)
        for name in OPTIONAL:
            want = row.get(name, 0 if name == "t_inner" else math.nan)
            assert _bits(getattr(rec, name)) == _bits(want), (k, name)
        assert rec.counters == counters
        assert rec.x.tobytes() == row["x"].tobytes()
        if row["v"] is None:
            assert rec.v is None
        else:
            assert rec.v.tobytes() == row["v"].tobytes()
        steps = trace.steps[trace.steps.k == k]
        assert len(steps) == len(row.get("steps", []))
        for got, want in zip(steps.tolist(), row.get("steps", [])):
            assert [_bits(value) for value in got] == [_bits(value) for value in (k, *want)]


def test_the_step_table_holds_every_inner_step_bit_for_bit(recorded):
    _, trace, _, inner = recorded
    steps = trace.steps
    assert steps.dtype.names == STEP_FIELDS
    if not trace.header["method"].startswith("cptm"):
        assert len(steps) == 0 and inner == []
        return
    assert len(inner) == trace.iterations
    assert len(steps) == sum(rec.t_inner for rec in trace.records) > 0
    order = np.lexsort((steps.t, steps.k))
    assert np.array_equal(order, np.arange(len(steps)))
    # outer step k is made by the k-th inner_loop call
    want = [(k, *row) for k, rows in enumerate(inner, start=1) for row in rows]
    assert [[_bits(value) for value in row] for row in steps.tolist()] == \
        [[_bits(value) for value in row] for row in want]


def test_write_csv_matches_the_row_by_row_writer(recorded, tmp_path):
    _, trace, _, _ = recorded
    trace.write_csv(tmp_path / "columns.csv")
    reference_write_csv(trace, tmp_path / "rows.csv")
    written = (tmp_path / "columns.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert len(written.splitlines()) == 2 + len(trace.records)


@pytest.mark.parametrize("method", ["gm", "agm", "ppa", "cptm-p1", "cn", "acn", "cptm-p2"])
def test_a_run_without_the_optimum_is_refused_before_any_query(method, monkeypatch):
    # the one stop rule is F(x_k) - f* <= eps, so drive refuses an instance
    # without a finite f* or without x*, and an eps that is not a finite
    # positive number, before the method's first query; cptm's theorem delta
    # reads eps before drive does, and refuses it as early
    obj = _instance("lse")
    made = []    # the fresh copy each run makes, which every query of the run hits
    fresh = CompositeObjective.fresh
    monkeypatch.setattr(CompositeObjective, "fresh",
                        lambda self: made.append(fresh(self)) or made[-1])
    bad_eps = (math.inf, math.nan, 0.0, -1.0, None, True)
    cases = [(dataclasses.replace(obj, fstar=fstar, xstar=xstar), 1e-7, "power:1.0,2.0",
              f"^{method} needs the instance's optimum, a finite f. and x., as attach_reference")
             for fstar, xstar in ((None, obj.xstar), (math.nan, obj.xstar), (obj.fstar, None))]
    cases += [(obj, eps, "power:1.0,2.0", f"^{method} needs a finite positive eps, not {eps!r}$")
              for eps in bad_eps]
    if method.startswith("cptm"):
        # True reads as 1.0 there, so drive refuses it
        cases += [(obj, eps, "theorem", f"^eps must be positive and finite, not {eps!r}$")
                  for eps in bad_eps[:-1]]
        cases += [(obj, True, "theorem", f"^{method} needs a finite positive eps, not True$")]
    for instance, eps, schedule, message in cases:
        with pytest.raises(ValueError, match=message):
            run_method(method, instance, eps, delta_schedule=schedule)
        assert dataclasses.astuple(made[-1].counters) == (0, 0, 0, 0)
    assert len(made) == len(cases)


@pytest.fixture(scope="module")
def cptm():
    trace = run_method("cptm-p1", build_instance("quadratic", 12, 0, q=1e-2), 1e-7)
    assert len(trace.records) > CHUNK_ROWS + 1
    return trace


def test_records_is_a_sequence_of_row_views(cptm):
    records = cptm.records
    n = len(records)
    assert [rec.k for rec in records] == list(range(n))
    assert records[-1].k == cptm.final.k == cptm.iterations == n - 1
    assert records[-n].k == 0 and [rec.k for rec in records[1:4]] == [1, 2, 3]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            records[i]
    assert cptm.columns()["A_k"].tobytes() == np.array([rec.A for rec in records]).tobytes()
    assert cptm.oracle_total("matvec") == records[-1].counters["matvec"]


@pytest.mark.parametrize("i", [CHUNK_ROWS - 1, CHUNK_ROWS])
def test_rows_and_the_step_table_are_read_only(cptm, i):
    rec = cptm.records[i]
    before = (rec.A, rec.t_inner, rec.x.tobytes(), rec.v.tobytes(), cptm.steps.tobytes())
    for name, value in (("A", 7.5), ("t_inner", 42), ("x", rec.x + 1.0), ("v", None)):
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    for name in ("x", "v"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(rec, name)[0] += 1.0
    assert not cptm.steps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cptm.steps.h_after[0] += 1.0
    again = cptm.records[i]
    assert (again.A, again.t_inner, again.x.tobytes(), again.v.tobytes(),
            cptm.steps.tobytes()) == before


def test_rows_without_v_read_none():
    obj = build_instance("lse", 12, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)
    acn = run_method("acn", obj, 1e-7)
    assert acn.records[0].v is None
    assert all(rec.v is not None for rec in acn.records[1:])
    gm = run_method("gm", obj, 1e-7)
    assert all(rec.v is None for rec in gm.records)


def test_counters_and_int_fields_read_as_int(cptm):
    for rec in (cptm.records[0], cptm.records[-1]):
        assert all(type(value) is int for value in rec.counters.values())
        assert type(rec.k) is int and type(rec.t_inner) is int
    assert list(cptm.records[0].counters) == CSV_COLUMNS[9:13]


def test_a_row_holds_its_x_and_scalars_and_little_else():
    # gm keeps no v and no inner steps: 8n bytes of x and 19 float64 per row
    n = 100
    obj = build_instance("quadratic", n, 1, q=1e-4)
    run_method("gm", build_instance("quadratic", 20, 0, q=1e-2), 1e-7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_method("gm", obj, 1e-7, cap_outer=200000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 7788
    assert held / len(trace.records) <= 1.15 * (8 * n + 160)
