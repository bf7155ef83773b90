"""Per-iteration run records and their serialized form.

A trace is one solver run: a JSON header (instance descriptor, schedule,
seeds, solver knobs) plus one record per outer iteration.  Serialized traces
are CSV files whose first line is ``# <json header>``; the column order is
fixed so files from different methods stay comparable.  In-memory traces
additionally keep iterate points and per-inner-step records, which the
lemma-level validator needs but the wire format does not carry.

Oracle counters (``oracle_f``, ``oracle_g``, ``oracle_h``, ``matvec``) have
one meaning for every method: the counters on row k are cumulative over the
whole run up to and including the queries that produced x_k.  Row 0 is
charged the query that the method makes at every later iterate: acn, for
instance, queries grad f at x_0 as at every x_k, so its row k shows
``oracle_g = 2k + 1``.  The per-method charges, cptm's included, are listed
in ``baselines``.

Every method, the contracting solver and the five baselines alike, is
recorded, stopped and capped by :func:`drive`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import SolverError

CSV_COLUMNS = [
    "k", "A_k", "gamma_k", "a_k", "F", "residual", "delta_req", "s_norm",
    "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec",
    "bregman_step", "bregman_vstar",
]

_INT_COLUMNS = {"k", "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec"}


@dataclass
class IterationRecord:
    k: int
    A: float
    gamma: float
    a: float
    f_value: float
    residual: float
    delta_requested: float
    s_norm: float
    t_inner: int
    counters: dict
    bregman_step: float = math.nan
    bregman_vstar: float = math.nan
    # in-memory extras (never serialized)
    x: np.ndarray | None = None
    v: np.ndarray | None = None
    inner_steps: list = field(default_factory=list)
    lipschitz_g: float = math.nan
    M: float = math.nan
    ell_mu: float = math.nan

    def row(self):
        return [self.k, self.A, self.gamma, self.a, self.f_value, self.residual,
                self.delta_requested, self.s_norm, self.t_inner,
                self.counters.get("oracle_f", 0), self.counters.get("oracle_g", 0),
                self.counters.get("oracle_h", 0), self.counters.get("matvec", 0),
                self.bregman_step, self.bregman_vstar]


@dataclass
class RunTrace:
    header: dict
    records: list = field(default_factory=list)
    status: str = "running"

    def append(self, record):
        self.records.append(record)

    @property
    def final(self):
        return self.records[-1]

    def column(self, name):
        idx = CSV_COLUMNS.index(name)
        return np.array([rec.row()[idx] for rec in self.records], dtype=float)

    @property
    def iterations(self):
        """Number of outer iterations actually performed (k=0 row excluded)."""
        return int(self.final.k) if self.records else 0

    def oracle_total(self, kind):
        return int(self.final.counters.get(kind, 0))

    def write_csv(self, path):
        header = dict(self.header)
        header["status"] = self.status
        lines = ["# " + json.dumps(header, sort_keys=True)]
        lines.append(",".join(CSV_COLUMNS))
        for rec in self.records:
            cells = []
            for name, value in zip(CSV_COLUMNS, rec.row()):
                if name in _INT_COLUMNS:
                    cells.append(str(int(value)))
                else:
                    cells.append(repr(float(value)))
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


_ROW_DEFAULTS = {"A": math.nan, "gamma": math.nan, "a": math.nan,
                 "delta_requested": math.nan, "s_norm": math.nan, "t_inner": 0}


def drive(obj, header, eps, cap, iterates):
    """Record, stop and cap one run; returns its trace.

    ``iterates`` yields ``(F(x_k), stop_norm, row)`` for k = 0, 1, ...: row k
    is recorded with the counters as they stand when it is yielded, and
    fields missing from ``row`` are NaN (``t_inner`` 0).  ``header`` names
    the method and its settings; eps, cap, the instance and f* are added.

    Stop rule, tested after each row: F(x_k) - f* <= eps when the instance
    knows f*, and otherwise ``stop_norm() <= eps``.  ``stop_norm`` is called
    only when f* is unknown, so a method can defer the query behind it until
    its next step needs that query anyway; one that returns NaN never stops
    the run.  Cap rule: a run that has not stopped after row ``cap`` raises
    :class:`SolverError`.  With ``eps=None`` nothing is tested and the run
    returns after row ``cap`` with status "cap".
    """
    fstar = obj.fstar
    trace = RunTrace({**header, "eps": eps, "cap": cap,
                      "instance": dict(obj.descriptor), "fstar": fstar})
    for k, (f, stop_norm, row) in enumerate(iterates):
        residual = f - fstar if fstar is not None else math.nan
        trace.append(IterationRecord(k=k, f_value=f, residual=residual,
                                     counters=obj.counters.as_dict(),
                                     **{**_ROW_DEFAULTS, **row}))
        if eps is not None and (
                (residual <= eps) if fstar is not None else (stop_norm() <= eps)):
            trace.status = "converged"
            return trace
        if k >= cap:
            trace.status = "cap"
            if eps is None:
                return trace
            raise SolverError(f"{header['method']} exhausted {cap} iterations "
                              f"(residual {residual:.3e})")


def read_csv(path):
    """Parse a serialized trace into (header dict, {column: ndarray})."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{path}: missing JSON header line")
        header = json.loads(first[2:])
        names = fh.readline().strip().split(",")
        if names[:len(CSV_COLUMNS)] != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected column layout {names}")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return header, columns
