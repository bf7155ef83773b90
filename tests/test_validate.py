import copy
from collections import Counter

import numpy as np
import pytest

from contraprox.bench import build_instance, run_method, validate_trace_file
from contraprox.bregman import PowerProx
from contraprox.contracting import SublinearSchedule
from contraprox.validate import validate_trace

OUTER_CHECKS = {"outer_certificate", "gamma_telescope", "schedule_growth", "delta_honored"}


@pytest.fixture(scope="module")
def honest():
    obj = build_instance("quadratic", 20, 0, q=1e-2)
    trace = run_method("cptm-p1", obj, 1e-7)
    prox = PowerProx(1, np.zeros(obj.dim), obj.metric)
    sched = trace.header["schedule"]
    return obj, trace, prox, SublinearSchedule(sched["c"], sched["p"])


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
    assert len(memory.checks) == 2090 and memory.ok
    assert len(from_file.checks) == 576 and from_file.ok


def test_file_report_replays_the_outer_checks_of_the_memory_report(honest, tmp_path):
    _, trace, _, _ = honest
    memory = _validate(honest, trace)
    path = tmp_path / "cptm.csv"
    trace.write_csv(path)
    from_file = validate_trace_file(str(path))
    key = lambda c: (c.name, c.k, c.passed, c.margin)
    assert (Counter(key(c) for c in from_file.checks)
            == Counter(key(c) for c in memory.checks if c.name in OUTER_CHECKS))


def test_moved_point_fails_contraction_combination(honest):
    tampered = copy.deepcopy(honest[1])
    tampered.records[50].v = tampered.records[50].v + 1e-3
    assert ("contraction_combination", 50) in _failed(_validate(honest, tampered))


def test_inflated_subgradient_fails_delta_honored(honest):
    tampered = copy.deepcopy(honest[1])
    tampered.records[50].s_norm *= 1e3
    assert ("delta_honored", 50) in _failed(_validate(honest, tampered))
