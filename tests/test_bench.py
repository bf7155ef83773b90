import pytest

from contraprox.bench import BENCH_LSE_LIPSCHITZ2, build_instance, run_method

# Iterations and final (oracle_f, oracle_g, oracle_h, matvec) of every method
# name at eps = 1e-7, as the trace's last row records them.
EXPECTED = {
    "quadratic": {
        "gm": (149, (297, 149, 0, 446)),
        "agm": (98, (99, 98, 0, 197)),
        "ppa": (476, (4743, 2609, 0, 6876)),
        "cptm-p1": (144, (830, 685, 0, 830)),
    },
    "lse": {
        "cn": (57, (58, 58, 58, 0)),
        "acn": (31, (63, 63, 31, 0)),
        "cptm-p2": (25, (94, 68, 68, 0)),
    },
}


def _instance(problem):
    if problem == "quadratic":
        return build_instance("quadratic", 20, 0, q=1e-2)
    return build_instance("lse", 20, 0, mu=1.0, lipschitz_order2=BENCH_LSE_LIPSCHITZ2)


@pytest.mark.parametrize("problem", sorted(EXPECTED))
def test_run_method_dispatches_every_name(problem):
    obj = _instance(problem)
    for name, (iterations, counters) in EXPECTED[problem].items():
        tr = run_method(name, obj, 1e-7)
        assert tr.status == "converged"
        assert tr.header["method"] == name
        assert (tr.iterations, tuple(tr.final.counters.values())) == (iterations, counters)


@pytest.mark.parametrize("name", ["cpm-p1", "newton"])
def test_run_method_rejects_unknown_names(name):
    with pytest.raises(ValueError):
        run_method(name, _instance("quadratic"), 1e-7)
