"""Tests of the finite-difference verification harness itself."""

import pytest

from fusegen import tensor as T
from fusegen import verify


@pytest.mark.parametrize("mode, seed", [("softmax", 2), ("softmax", 6),
                                        ("sigmoid", 2), ("sigmoid", 12)])
def test_end_to_end_check_resolves_small_gradients(mode, seed):
    # at these seeds a few sampled gradients are ~1e-7 to 1e-6, which a
    # 2-point central difference at h = 1e-5 cannot resolve to 1e-4
    assert verify.check_end_to_end(mode, seed) < verify.END_TO_END_THRESHOLD


def test_end_to_end_checks_fail_on_skewed_grads(monkeypatch):
    # negative control: analytic grads off by 0.5 must fail both end-to-end lines
    check = T.grad_check_params

    def skewed(loss_fn, params, grads=None, **kwargs):
        if grads is None:
            for p in params.values():
                p.grad = None
            loss_fn().backward()
            grads = {name: p.grad for name, p in params.items()}
        grads = {name: g + 0.5 for name, g in grads.items()}
        return check(loss_fn, params, grads=grads, **kwargs)

    monkeypatch.setattr(T, "grad_check_params", skewed)
    assert verify.check_end_to_end("softmax") > verify.END_TO_END_THRESHOLD
    assert (verify.check_end_to_end("softmax", float32=True)
            > verify.FLOAT32_END_TO_END_THRESHOLD)
