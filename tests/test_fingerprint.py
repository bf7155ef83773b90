import numpy as np

from contraprox import tensor_steps
from contraprox.baselines import cubic_newton
from contraprox.bench import build_instance
from tests import fingerprint


def test_the_cli_part_of_the_fingerprint_is_the_same_on_every_run():
    # trees are compared by their digests, so one tree must always give the
    # same digest; the cli part is the cheapest to compute
    first = fingerprint.cli_parts()
    assert sorted(first) == ["cli", "reports"]
    assert all(len(digest) == 64 for digest in first.values())
    assert fingerprint.cli_parts() == first


def test_the_counts_part_ignores_what_the_radius_hint_moves(monkeypatch):
    # cn's warm-started Newton moves the last bits of its iterates, not its
    # counts: the counts part must read the same where the traces part differs
    obj = build_instance("lse", 20, 0, mu=0.1, lipschitz_order2=0.005)
    warm = cubic_newton(obj, np.zeros(20), 1e-7, 200000)
    step = tensor_steps.tensor_step
    monkeypatch.setattr(tensor_steps, "tensor_step",
                        lambda sub, base, base_phi, tol, hint: step(sub, base, base_phi, tol, 0.0))
    cold = cubic_newton(obj, np.zeros(20), 1e-7, 200000)
    assert fingerprint.counts(warm) == fingerprint.counts(cold)
    assert any(a.x.tobytes() != b.x.tobytes() for a, b in zip(warm, cold))
