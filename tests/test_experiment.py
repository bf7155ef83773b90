import json
import statistics

import numpy as np
import pytest

from contraprox.bench import (BENCH_LSE_LIPSCHITZ2, INSTANCE_KEYS, SUITE_METHODS,
                              bench_sweep, build_instance, run_method, solve_experiment)

SUITE_CELLS = {"quadratic": {"q": 1e-2},
               "lse": {"mu": 1.0, "lipschitz_order2": BENCH_LSE_LIPSCHITZ2}}


@pytest.mark.parametrize("suite", sorted(SUITE_CELLS))
def test_bench_row_is_the_median_of_direct_runs(suite):
    cell = SUITE_CELLS[suite]
    cond = cell["q"] if suite == "quadratic" else cell["mu"]
    table = bench_sweep(suite, [6], [cond], 1e-7, [0, 1], methods=None,
                        delta_schedule="power:1.0,2.0", cap_outer=200000)
    assert table["suite"] == suite
    assert [row["method"] for row in table["rows"]] == list(SUITE_METHODS[suite])
    key = "matvec" if suite == "quadratic" else "oracle_g"
    for row in table["rows"]:
        traces = [run_method(row["method"], build_instance(suite, 6, seed, **cell), 1e-7,
                             cap_outer=200000) for seed in (0, 1)]
        assert row == {
            "n": 6, "cond": cond, "method": row["method"], "failures": 0, "seeds": [0, 1],
            "iterations": int(statistics.median(tr.iterations for tr in traces)),
            "oracle": int(statistics.median(tr.oracle_total(key) for tr in traces)),
        }


def test_bench_counts_a_failed_run_and_goes_on():
    # gm needs 109 and 122 iterations on seeds 0 and 1, agm 66 and 67
    table = bench_sweep("quadratic", [6], [1e-2], 1e-7, [0, 1], methods=["gm", "agm"],
                        delta_schedule="power:1.0,2.0", cap_outer=100)
    gm, agm = table["rows"]
    assert (gm["iterations"], gm["oracle"], gm["failures"]) == (-1, -1, 2)
    assert (agm["iterations"], agm["failures"]) == (66, 0)


def test_solve_runs_every_method_past_a_failure():
    # gm needs 149 iterations and agm 98 on this instance
    problem = {"problem": "quadratic", "n": 20, "seed": 0, "q": 1e-2}
    traces, report, all_ok = solve_experiment(
        problem, ["gm", "agm"], 1e-7, delta_schedule="power:1.0,2.0", gamma0=1.0,
        cap_outer=120)
    assert not all_ok and list(traces) == ["agm"]
    gm, agm = report["results"]
    assert not gm["converged"] and gm["error"].startswith("gm exhausted 120 iterations")
    assert agm["converged"] and agm["iterations"] == 98


@pytest.mark.parametrize("kwargs", [
    {"problem": "quadratic", "n": 8, "seed": 3, "q": 1e-3},
    {"problem": "quadratic", "n": 8, "seed": 3, "alpha": 2.5},
    {"problem": "lse", "n": 8, "seed": 3, "mu": 0.5, "lipschitz_order2": 0.25},
    {"problem": "quadratic", "n": 8, "seed": 3, "q": 1e-2, "sigma": 1e-3},
    {"problem": "lse", "n": 8, "seed": 3, "mu": 0.5, "sigma": 1e-2},
])
def test_descriptor_inputs_rebuild_the_instance(kwargs):
    obj = build_instance(**kwargs)
    descriptor = json.loads(json.dumps(obj.descriptor))  # as instance.json holds it
    assert ("sigma" in descriptor) == ("sigma" in kwargs)
    again = build_instance(**{k: descriptor[k] for k in INSTANCE_KEYS if k in descriptor})
    assert again.xstar.tobytes() == obj.xstar.tobytes()
    assert np.float64(again.fstar).tobytes() == np.float64(obj.fstar).tobytes()
    assert again.descriptor == obj.descriptor == descriptor


def test_build_instance_rejects_a_misspelled_keyword():
    with pytest.raises(TypeError):
        build_instance("quadratic", 8, 0, qq=1e-2)
