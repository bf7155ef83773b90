"""One SHA-256 per output part of a fixed set of runs and CLI commands.

Run from the repository root against any tree's sources:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<tree>/src python -m tests.fingerprint

It prints one digest per part and one over all parts.  Two trees whose
digests agree produce the same bytes:

- ``traces``: each run's in-memory trace (header, columns, x, v, step table);
- ``counts``: each run's iteration count and integer columns (``k``, ``t_k``,
  which is ``t_inner``, ``oracle_f``, ``oracle_g``, ``oracle_h``, ``matvec``),
  so a change that moves only the last bits of the iterates shows ``counts``
  the same while ``traces``, ``csv`` and ``cli`` differ;
- ``csv``: each run's CSV file;
- ``validate_memory``: each cptm run's in-memory validator rows, margins as hex;
- ``validate_file``: the validator rows of each run's CSV file, or the error
  a baseline's file raises;
- ``cli``: each command's exit code, stdout, stderr and every file it writes
  but ``report.json``;
- ``reports``: the ``report.json`` of each ``solve``.

A run or command that raises contributes its exception type and text.  The
pytest suite does not collect this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from contraprox.bench import build_instance, run_method, validate_trace_file
from contraprox.bregman import PowerProx
from contraprox.objectives import SolverError
from contraprox import cli
from contraprox.validate import _header_schedule, validate_trace

EPS = 1e-7
CAP_OUTER = 200000
QUAD = {"problem": "quadratic", "n": 50, "seed": 0, "q": 1e-2}
LSE = {"problem": "lse", "n": 100, "seed": 0, "mu": 0.1, "lipschitz_order2": 0.005}
COUNT_COLUMNS = ("k", "t_k", "oracle_f", "oracle_g", "oracle_h", "matvec")
# (instance keywords of build_instance, methods run on it)
RUNS = (
    (QUAD, ("gm", "agm", "ppa", "cptm-p1", "cn")),
    ({**QUAD, "sigma": 1e-4}, ("cptm-p1", "cn")),
    ({"problem": "lse", "n": 50, "seed": 0, "mu": 0.1, "lipschitz_order2": 200.0}, ("cptm-p2",)),
    (LSE, ("cn", "acn", "cptm-p2")),
    ({"problem": "lse", "n": 50, "seed": 0, "mu": 1.0, "sigma": 0.5}, ("cptm-p1", "cn")),
)
QUAD_CLI = ["--problem", "quadratic", "--n", "10", "--q", "0.01"]
LSE_CLI = ["--problem", "lse", "--n", "10", "--mu", "1"]
# argv of each command; {out} is the command set's scratch directory
COMMANDS = (
    ["solve", *QUAD_CLI, *(f"--method={m}" for m in ("gm", "agm", "ppa", "cptm-p1", "cn")),
     "--out", "{out}/q"],
    ["solve", *QUAD_CLI, "--seed", "1", "--sigma", "1e-3", "--method", "cptm-p1",
     "--method", "cn", "--out", "{out}/qs"],
    ["solve", *LSE_CLI, "--l2", "0.005", *(f"--method={m}" for m in ("cn", "acn", "cptm-p2")),
     "--out", "{out}/l"],
    ["solve", *LSE_CLI, "--l2", "2", "--delta-schedule", "theorem", "--method", "cptm-p2",
     "--out", "{out}/lt"],
    ["solve", *QUAD_CLI, "--method", "gm", "--eps", "inf", "--out", "{out}/bad"],
    ["solve", *QUAD_CLI, "--method", "cptm-p1", "--delta-schedule", "const:nan",
     "--out", "{out}/bad"],
    ["validate", "--trace", "{out}/q/cptm-p1.csv", "--instance", "{out}/q/instance.json"],
    ["validate", "--trace", "{out}/qs/cptm-p1.csv", "--instance", "{out}/qs/instance.json"],
    ["validate", "--trace", "{out}/lt/cptm-p2.csv"],
    ["validate", "--trace", "{out}/q/gm.csv"],
    ["bench", "--suite", "quadratic", "--sizes", "4", "--conditionings", "1e-2", "--seeds", "0",
     "--out", "{out}/bq"],
    ["bench", "--suite", "lse", "--sizes", "6", "--seeds", "0", "--out", "{out}/bl"],
    ["curves", "--p-min", "1", "--p-max", "10", "--out", "{out}/curves.csv"],
    ["curves", "--p-min", "0", "--out", "{out}/curves0.csv"],
)


def _feed(h, *items):
    """Hash each item, bytes or text, with a separator after it."""
    for item in items:
        h.update(item if isinstance(item, bytes) else str(item).encode())
        h.update(b"\0")


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _rows(report):
    return [(c.name, int(c.k), int(c.t), bool(c.passed), float(c.margin).hex())
            for c in report.checks]


def counts(trace):
    """The items the ``counts`` part hashes for one trace."""
    columns = trace.columns()
    return [trace.iterations, *(columns[name].tobytes() for name in COUNT_COLUMNS)]


def _runs():
    """[(label, instance, trace or exception)] over RUNS, in order."""
    out = []
    for problem, methods in RUNS:
        obj = build_instance(**problem)
        for method in methods:
            label = f"{method} on {json.dumps(problem, sort_keys=True)}"
            try:
                out.append((label, obj, run_method(method, obj, EPS, cap_outer=CAP_OUTER)))
            except (SolverError, ValueError) as exc:  # a failing run is compared too
                out.append((label, obj, exc))
    return out


def trace_parts():
    """The digests of the five parts that RUNS produce."""
    h = {name: hashlib.sha256() for name in ("traces", "counts", "csv", "validate_memory",
                                             "validate_file")}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, obj, trace) in enumerate(_runs()):
            for part in h.values():
                _feed(part, label)
            if isinstance(trace, Exception):
                for part in h.values():
                    _feed(part, _error(trace))
                continue
            columns = trace.columns()
            _feed(h["traces"], json.dumps(trace.header, sort_keys=True), trace.status,
                  *(name.encode() + columns[name].tobytes() for name in sorted(columns)),
                  *(row.x.tobytes() + (b"" if row.v is None else row.v.tobytes())
                    for row in trace), trace.steps.tobytes())
            _feed(h["counts"], *counts(trace))
            path = os.path.join(tmp, f"{i}.csv")
            trace.write_csv(path)
            with open(path, "rb") as fh:
                _feed(h["csv"], fh.read())
            if "p" in trace.header:
                prox = PowerProx(trace.header["p"], np.zeros(obj.dim), obj.metric)
                report = validate_trace(trace, prox, obj.xstar, obj.fstar,
                                        _header_schedule(trace.header))
                _feed(h["validate_memory"], *_rows(report))
            try:
                _feed(h["validate_file"], *_rows(validate_trace_file(path)))
            except ValueError as exc:  # a baseline's file is refused
                _feed(h["validate_file"], _error(exc))
    return {name: part.hexdigest() for name, part in h.items()}


def cli_parts():
    """The digests of the ``cli`` and ``reports`` parts that COMMANDS produce."""
    out, reports = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for argv in COMMANDS:
            argv = [arg.replace("{out}", tmp) for arg in argv]
            before = _files(tmp)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a traceback is an output too
                    code = _error(exc)
            _feed(out, *(arg.replace(tmp, "{out}") for arg in argv), code,
                  stdout.getvalue().replace(tmp, "{out}"), stderr.getvalue().replace(tmp, "{out}"))
            for name, data in sorted(_files(tmp).items()):
                if before.get(name) != data:
                    _feed(reports if name.endswith("report.json") else out, name, data)
    return {"cli": out.hexdigest(), "reports": reports.hexdigest()}


def _files(root):
    """{path relative to root: bytes} of every file under root."""
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def main():
    digests = {**trace_parts(), **cli_parts()}
    overall = hashlib.sha256()
    for name, digest in digests.items():
        print(f"{name:<16}{digest}")
        _feed(overall, name, digest)
    print(f"{'overall':<16}{overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
