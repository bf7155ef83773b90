"""Per-iteration run records and their serialized form.

A trace is one solver run: a JSON header (instance descriptor, schedule,
seeds, solver knobs) plus one row per outer iteration.  Serialized traces
are CSV files whose first line is ``# <json header>``; the column order is
fixed so files from different methods stay comparable.  In-memory traces
additionally keep iterate points and one table of every inner step, which the
lemma-level validator needs but the wire format does not carry.

In memory a row keeps what its CSV line keeps: 16 float64 scalars (the CSV
columns and a has-v flag), and 8n bytes of x and of v if it has one, in blocks
of ``CHUNK_ROWS`` rows made with ``np.empty`` as the last fills and never
copied.  A trace is the sequence of its rows as read-only :class:`IterationRecord`
views, and only :func:`drive` writes to it.

Oracle counters (``oracle_f``, ``oracle_g``, ``oracle_h``, ``matvec``) have
one meaning for every method: the counters on row k are cumulative over the
whole run up to and including the queries that produced x_k.  Row 0 is
charged the query that the method makes at every later iterate: acn, for
instance, queries grad f at x_0 as at every x_k, so its row k shows
``oracle_g = 2k + 1``.  The per-method charges, cptm's included, are listed
in ``baselines``.

Every method, the contracting solver and the five baselines alike, is
recorded, stopped and capped by :func:`drive`, the one place that checks a
run's stop target: a finite eps > 0 and the instance's f* and x*.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from math import inf, isfinite, nan

import numpy as np

from .objectives import SolverError

CSV_COLUMNS = [
    "k", "A_k", "gamma_k", "a_k", "F", "residual", "delta_req", "s_norm",
    "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec",
    "bregman_step", "bregman_vstar",
]
FIELDS = ("k", "A", "gamma", "a", "f_value", "residual", "delta_requested", "s_norm",
          "t_inner", "oracle_f", "oracle_g", "oracle_h", "matvec", "bregman_step",
          "bregman_vstar", "has_v")
_COLUMN = {name: j for j, name in enumerate(FIELDS)}
_INT = [name in ("k", "t_inner", *FIELDS[9:13]) for name in FIELDS]
CHUNK_ROWS = 64
STEP_FIELDS = ("k", "t", "h_before", "h_after", "step_norm", "s_dual", "sub_residual",
               "decrease_pairing")
_STEP_DTYPE = [(name, np.int64 if name in ("k", "t") else float) for name in STEP_FIELDS]


class IterationRecord:
    """Row i of a trace, read-only: x and v are read-only views into its blocks."""

    __slots__ = ("_trace", "_i")

    def __init__(self, trace, i):
        self._trace, self._i = trace, i

    def __getattr__(self, name):
        trace, (c, j) = self._trace, divmod(self._i, CHUNK_ROWS)
        row = trace._blocks["scalars"][c][j]
        if name in _COLUMN:
            return (int if _INT[_COLUMN[name]] else float)(row[_COLUMN[name]])
        if name == "counters":
            return {key: int(row[_COLUMN[key]]) for key in FIELDS[9:13]}
        if name == "x" or (name == "v" and row[-1]):
            view = trace._blocks[name][c][j]
            view.flags.writeable = False
            return view
        if name == "v":
            return None
        raise AttributeError(name)


class RunTrace(Sequence):
    """One run: header, rows as a sequence of read-only views, and its inner steps."""

    status = "converged"    # drive raises on any other ending; CSV headers and perfbench read it

    def __init__(self, header):
        self.header, self.size = header, 0
        self._blocks, self._step_rows, self._steps = {"scalars": [], "x": [], "v": []}, [], None

    def __len__(self):
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.size))]
        return IterationRecord(self, range(self.size)[i])

    def _append(self, scalars, x, v, steps):
        c, j = divmod(self.size, CHUNK_ROWS)
        if j == 0:
            self._blocks["scalars"].append(np.empty((CHUNK_ROWS, len(FIELDS))))
            self._blocks["x"].append(np.empty((CHUNK_ROWS, np.size(x))))
            self._blocks["v"].append(None)
        self._blocks["scalars"][c][j] = (*scalars, v is not None)
        self._blocks["x"][c][j] = x
        if v is not None:
            if self._blocks["v"][c] is None:
                self._blocks["v"][c] = np.empty_like(self._blocks["x"][c])
            self._blocks["v"][c][j] = v
        if steps:
            self._step_rows += [(self.size, *step) for step in steps]
        self.size += 1

    @property
    def records(self):
        return self

    @property
    def final(self):
        return self[-1]

    @property
    def steps(self):
        """Every inner step, sorted by (k, t), as one read-only record array with
        fields :data:`STEP_FIELDS`, built from the stored rows on first read."""
        if self._steps is None or len(self._steps) < len(self._step_rows):
            self._steps = np.rec.fromrecords(self._step_rows, dtype=_STEP_DTYPE)
            self._steps.flags.writeable = False
        return self._steps

    def columns(self):
        """The CSV columns and ``has_v`` by name (copies)."""
        table = np.concatenate([np.empty((0, len(FIELDS))), *self._blocks["scalars"]])
        return dict(zip(CSV_COLUMNS + list(FIELDS[len(CSV_COLUMNS):]), table[:self.size].T))

    @property
    def iterations(self):
        """Number of outer iterations actually performed (k=0 row excluded)."""
        return self.final.k if self.size else 0

    def oracle_total(self, kind):
        return self.final.counters[kind]

    def write_csv(self, path):
        header = dict(self.header)
        header["status"] = self.status
        lines = ["# " + json.dumps(header, sort_keys=True)]
        lines.append(",".join(CSV_COLUMNS))
        columns = self.columns()
        for row in np.column_stack([columns[name] for name in CSV_COLUMNS]).tolist():
            lines.append(",".join(str(int(value)) if is_int else repr(value)
                                  for value, is_int in zip(row, _INT)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def drive(obj, header, eps, cap, iterates):
    """Record, stop and cap one run; returns its trace.

    ``iterates`` yields ``(F(x_k), row)`` for k = 0, 1, ...: row k is
    recorded with the counters as they stand when it is yielded, and fields
    missing from ``row`` are NaN (``t_inner`` 0).  Every row carries ``x``;
    ``v`` and ``steps`` (the step rows of ``inner_loop``, which join
    ``RunTrace.steps`` under k) are optional.  ``header`` names the method
    and its settings; eps, cap, the instance and f* are added.

    Stop rule, tested after each row: F(x_k) - f* <= eps, so an eps that is
    not a finite positive number, and an instance without a finite f* or
    without x*, raise ``ValueError`` before any query.  A non-finite F(x_k),
    or ``s_norm`` where a row has one, raises :class:`SolverError` at once, so
    a NaN or a divergence never spins to the cap.  Cap rule: a run that has
    not stopped after row ``cap`` raises :class:`SolverError`.
    """
    if isinstance(eps, bool) or not (isinstance(eps, (int, float)) and 0 < eps < inf):
        raise ValueError(f"{header['method']} needs a finite positive eps, not {eps!r}")
    fstar = obj.fstar
    if fstar is None or not isfinite(fstar) or obj.xstar is None:
        raise ValueError(f"{header['method']} needs the instance's optimum, a finite f* "
                         "and x*, as attach_reference computes them")
    trace = RunTrace({**header, "eps": eps, "cap": cap,
                      "instance": dict(obj.descriptor), "fstar": fstar})
    for k, (f, row) in enumerate(iterates):
        if not (isfinite(f) and isfinite(row.get("s_norm", 0.0))):
            raise SolverError(f"{header['method']} reached a non-finite value at "
                              f"iteration {k} (F = {f!r}, s_norm = {row.get('s_norm')!r})")
        residual = f - fstar
        c, get = obj.counters, row.get
        trace._append((k, get("A", nan), get("gamma", nan), get("a", nan), f, residual,
                       get("delta_requested", nan), get("s_norm", nan), get("t_inner", 0),
                       c.value, c.grad, c.hess, c.matvec, get("bregman_step", nan),
                       get("bregman_vstar", nan)), row["x"], get("v"), get("steps"))
        if residual <= eps:
            return trace
        if k >= cap:
            raise SolverError(f"{header['method']} exhausted {cap} iterations "
                              f"(residual {residual:.3e})")


def read_csv(path):
    """Parse a serialized trace into (header dict, {column: ndarray}); ValueError unless
    line 1 is ``# `` and a JSON object and every row is as wide as line 2."""
    with open(path) as fh:
        first = fh.readline()
        header = json.loads(first[2:]) if first.startswith("# ") else None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: the first line is not '# ' and a JSON object")
        names = fh.readline().strip().split(",")
        if names[:len(CSV_COLUMNS)] != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected column layout {names}")
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
                if len(rows[-1]) != len(names):
                    raise ValueError(f"{path}: a row of {len(rows[-1])} fields under "
                                     f"{len(names)} columns")
    data = np.array(rows, dtype=float) if rows else np.zeros((0, len(names)))
    columns = {name: data[:, j] for j, name in enumerate(names)}
    return header, columns
