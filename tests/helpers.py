"""Shared test oracles: finite differences and gradient utilities, and
stand-ins for the two-way machinery of ``dftlab.parallel``.

The finite-difference oracles (``fd_gradients``, ``directional_fd``) stay
independent of the autodiff backward rules they check: they only call
forward code. ``analytic_gradients``, which gives the gradient under
test, is the one helper that calls ``backward``. The token-by-token
reference for the dynamic loss is ``theory.dft_token_reference_grad``.

``cpus`` makes the process look as if it may run on n CPUs;
``CountingHelper`` and ``RefusingHelper`` stand in for the helper thread
(``parallel._helper``), to record or to refuse the work handed to it.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from dftlab.autodiff import backward

FD_STEP = 1e-5
FD_FLOOR = 1e-8


def max_rel_err(a, b, floor=FD_FLOOR):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def vec_rel_err(a, b, floor=1e-12):
    """Max absolute difference relative to the reference vector's scale."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(b))), floor)
    return float(np.max(np.abs(a - b))) / scale


def fd_gradients(f, tensors, step=FD_STEP):
    """Central-difference gradient of the scalar f() w.r.t. every entry."""
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g.reshape(t.data.shape))
    return grads


def analytic_gradients(f, tensors):
    for t in tensors:
        t.zero_grad()
    backward(f())
    return [
        t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors
    ]


def directional_fd(f, tensors, directions, step=FD_STEP):
    """Central difference of f along a joint direction through all tensors."""
    for t, d in zip(tensors, directions):
        t.data += step * d
    hi = f().item()
    for t, d in zip(tensors, directions):
        t.data -= 2.0 * step * d
    lo = f().item()
    for t, d in zip(tensors, directions):
        t.data += step * d
    return (hi - lo) / (2.0 * step)


def check_gradients(f, tensors, rel_tol=1e-5, step=FD_STEP):
    fd = fd_gradients(f, tensors, step=step)
    an = analytic_gradients(f, tensors)
    errs = [max_rel_err(a, n) for a, n in zip(an, fd)]
    return max(errs) if errs else 0.0


def cpus(monkeypatch, n):
    """Runs as on an n-CPU box, whatever this one has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class CountingHelper:
    """A one-thread executor that records what each job it is given works on:
    a forward's row block by its shape, a backward's half by its index, 1."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.jobs = []

    def submit(self, fn, part):
        self.jobs.append(getattr(part, "shape", part))
        return self.pool.submit(fn, part)


class RefusingHelper:
    def submit(self, fn, part):
        raise AssertionError("reached the helper thread")
