"""Shared numerical kernel: stable link functions and a deterministic
full-batch L-BFGS minimizer.

The link functions are what every objective evaluation spends its time on.
``softplus_sigmoid`` returns softplus(z) = max(z, 0) + log1p(exp(-|z|)), about
4x cheaper than ``np.logaddexp(0, z)``, and sigmoid(z) from one shared
exp(-|z|), so a loss-and-gradient evaluation takes one exp per linear score;
a loss alone takes its first element. ``sigmoid`` is the same sigmoid on its
own, the link for predictions, weights and the simulator's true CVR, so the
package computes one sigmoid and imports no scipy here.

``dot`` is every dense vector product of a fit. OpenBLAS spreads a ``ddot``
of more than 10,000 elements over its threads: at two threads on a 2-core
machine such a product took 1-8 ms instead of a few µs, and its bits followed
the thread count. ``dot`` gives BLAS blocks of at most ``_DOT_CHUNK`` = 8192
elements, one thread each, and adds their products in order. The optimizer
picks its product once per fit (``_dot_of_size``), so a vector of one block
pays no Python call per product. A fit's parameter vector holds one
coefficient per hashed column its rows touch (``training._touched_columns``),
not one per hash bucket, so it passes one block only when the rows touch
8192 columns or more (4096 for dfm's two heads); a loss or validation product
passes one past 8192 rows.

``minimize_batch`` is limited-memory BFGS (Liu & Nocedal 1989): the
two-loop recursion over the last ``MEMORY`` curvature pairs gives the search
direction, and a backtracking Armijo line search tries the unit step first.
Every trial point costs one loss-and-gradient evaluation, so an accepted unit
step costs exactly one. The recursion writes its vector products into one
work vector allocated per fit, each curvature pair keeps its yᵀy, and scalar
checks run on Python floats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np


# the most elements one dot gives one BLAS call; x86-64 OpenBLAS runs a ddot
# of up to 10,000 on one thread
_DOT_CHUNK = 8192


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a·b of two vectors of one length, by a rule that reads no BLAS thread
    count.

    Up to ``_DOT_CHUNK`` elements it is the plain product ``float(a @ b)``.
    Beyond, the vectors are cut into blocks of ``_DOT_CHUNK`` elements from
    the front, the last block holding the remainder; each block's product is
    ``float(a_i @ b_i)``, and the products are added left to right, starting
    from 0.0. The full blocks' products are one batched ``matmul``, whose
    row products are the same BLAS calls as ``a_i @ b_i``.
    """
    n = len(a)
    if n <= _DOT_CHUNK:
        return float(a.dot(b))
    m = n - n % _DOT_CHUNK
    blocks = np.matmul(a[:m].reshape(-1, 1, _DOT_CHUNK), b[:m].reshape(-1, _DOT_CHUNK, 1))
    total = 0.0
    for part in blocks.ravel().tolist():
        total += part
    if m < n:
        total += float(a[m:].dot(b[m:]))
    return total


def _dot_of_size(n: int) -> Callable[[np.ndarray, np.ndarray], float]:
    """``dot`` for vectors of ``n`` elements, for a hot loop: up to one block,
    numpy's own ``ndarray.dot``, the same product without a Python call per
    product. It returns a numpy scalar there, so callers take its ``float``."""
    return np.ndarray.dot if n <= _DOT_CHUNK else dot


def sigmoid(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(z) from t = exp(-|z|), computed here unless given: 1/(1+t)
    for z >= 0 and t/(1+t) below, so neither branch overflows; ±inf map to
    the limits and nan stays nan."""
    if t is None:
        t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, t) / (1.0 + t)


def softplus_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and sigmoid(z), both from one t = exp(-|z|)."""
    t = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(t), sigmoid(z, t)


# curvature pairs (s, y) kept by L-BFGS
MEMORY = 10


@dataclass(frozen=True)
class OptConfig:
    max_iter: int = 500
    tol: float = 1e-9
    eval_every: int = 10
    patience: int = 5

    def __post_init__(self):
        for name, bad in (
            ("max_iter", self.max_iter < 1),
            ("tol", not 0 <= self.tol < np.inf),  # nan and inf fail too
            ("eval_every", self.eval_every < 1),
            ("patience", self.patience < 1),
        ):
            if bad:
                raise ValueError(f"bad optimizer config: {name} = {getattr(self, name)!r}")


@dataclass(frozen=True)
class TrainingMeta:
    """How a fit ended: its iterations, final loss, and whether it converged
    or stopped early on the validation score."""

    n_iter: int
    final_loss: float
    converged: bool
    stopped_early: bool = False


def _lbfgs_direction(grad: np.ndarray, pairs: deque, work: np.ndarray) -> np.ndarray:
    """-H·grad by the two-loop recursion, where H is the inverse-Hessian
    estimate of ``pairs`` (oldest first) scaled by sᵀy/yᵀy of the newest.
    A pair is (s, y, 1/sᵀy, yᵀy), its products kept from when it was made.
    Each α·y and β·s is written into ``work``, a vector of grad's size."""
    vdot = _dot_of_size(len(grad))
    q = grad.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        alpha = rho * float(vdot(s, q))
        q -= np.multiply(y, alpha, out=work)
        alphas.append(alpha)
    _, _, rho, yy = pairs[-1]
    q *= 1.0 / (rho * yy)  # sᵀy / yᵀy
    for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
        q += np.multiply(s, alpha - rho * float(vdot(y, q)), out=work)
    return np.negative(q, out=q)


def minimize_batch(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    theta0: np.ndarray,
    cfg: OptConfig,
    validation: Callable[[np.ndarray], float] | None = None,
) -> tuple[np.ndarray, TrainingMeta]:
    """Full-batch L-BFGS with a backtracking Armijo line search; returns the
    final iterate and a TrainingMeta of how the fit ended.

    The first step, and any step after the memory is cleared, is steepest
    descent of length 1/max(1, ||g||); later steps try the L-BFGS step at
    length 1. A trial whose loss is non-finite or fails the Armijo test
    (c = 1e-4) halves the step, at most 60 times; if none passes, no descent
    is left at machine-level steps and the fit counts as converged. A
    direction that does not descend clears the memory. A curvature pair is
    kept only when it is finite and sᵀy > 1e-12·yᵀy.

    Convergence is declared when the relative loss decrease over one
    iteration is at most cfg.tol, so ``tol: 0`` stops at the first accepted
    step that leaves the loss unchanged: the optimum to machine precision. A
    non-finite gradient gives no descent direction: the loop stops there with
    converged=False and keeps the last iterate, whose loss is finite.

    When ``validation`` is given, it is evaluated every cfg.eval_every
    iterations; after cfg.patience evaluations without improvement the best
    iterate seen (by validation score) is returned with stopped_early=True.
    Its final_loss is then the one recorded when that iterate was reached.
    """
    theta = np.array(theta0, dtype=np.float64)
    loss, grad = fun_grad(theta)
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite loss at the initial point")
    pairs: deque = deque(maxlen=MEMORY)
    work = np.empty_like(theta)  # the two-loop recursion's scratch vector
    vdot = _dot_of_size(theta.size)

    best_val = np.inf
    best_theta, best_loss = theta.copy(), loss
    strikes = 0
    stopped_early = False

    n_iter = 0
    converged = False
    for n_iter in range(1, cfg.max_iter + 1):
        if not np.isfinite(grad).all():
            break
        gnorm2 = float(vdot(grad, grad))
        if gnorm2 == 0.0:
            converged = True
            break
        direction = _lbfgs_direction(grad, pairs, work) if pairs else -grad
        slope = float(vdot(grad, direction))
        if not slope < 0.0:  # not a descent direction: restart from steepest descent
            pairs.clear()
            direction, slope = -grad, -gnorm2
        step = 1.0 if pairs else 1.0 / max(1.0, math.sqrt(gnorm2))
        accepted = False
        for _ in range(60):
            candidate = theta + step * direction
            new_loss, new_grad = fun_grad(candidate)
            if math.isfinite(new_loss) and new_loss <= loss + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent at machine-level steps: at a minimum
            break
        s, y = candidate - theta, new_grad - grad
        sy, yy = float(vdot(s, y)), float(vdot(y, y))
        if math.isfinite(sy) and math.isfinite(yy) and sy > 1e-12 * yy:
            pairs.append((s, y, 1.0 / sy, yy))
        rel_drop = (loss - new_loss) / max(1.0, abs(loss))
        theta, loss, grad = candidate, new_loss, new_grad

        if validation is not None and n_iter % cfg.eval_every == 0:
            score = validation(theta)
            if score < best_val - 1e-12:
                best_val = score
                best_theta, best_loss = theta.copy(), loss
                strikes = 0
            else:
                strikes += 1
                if strikes >= cfg.patience:
                    stopped_early = True
                    break

        if 0 <= rel_drop <= cfg.tol:
            converged = True
            break

    if validation is not None:
        if validation(theta) < best_val:
            best_theta, best_loss = theta.copy(), loss
        theta, loss = best_theta, best_loss
    return theta, TrainingMeta(
        n_iter=n_iter, final_loss=loss, converged=converged, stopped_early=stopped_early
    )
