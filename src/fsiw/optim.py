"""Shared numerical kernel: stable link functions and a deterministic
full-batch L-BFGS minimizer.

The link functions are what every objective evaluation spends its time on.
``softplus_sigmoid`` returns softplus(z) = max(z, 0) + log1p(exp(-|z|)), about
4x cheaper than ``np.logaddexp(0, z)``, and sigmoid(z) from one shared
exp(-|z|), so a loss-and-gradient evaluation takes one exp per linear score;
a loss alone takes its first element. ``sigmoid`` is the same sigmoid on its
own, the link for predictions, weights and the simulator's true CVR, so the
package computes one sigmoid and imports no scipy here.

``minimize_batch`` is limited-memory BFGS (Liu & Nocedal 1989): the
two-loop recursion over the last ``MEMORY`` curvature pairs gives the search
direction, and a backtracking Armijo line search tries the unit step first.
Every trial point costs one loss-and-gradient evaluation, so an accepted unit
step costs exactly one. The recursion writes its vector products into one
work vector allocated per fit, and scalar checks run on Python floats.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np


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
    Each α·y and β·s is written into ``work``, a vector of grad's size."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s.dot(q))
        q -= np.multiply(y, alpha, out=work)
        alphas.append(alpha)
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * float(y.dot(y)))  # sᵀy / yᵀy
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += np.multiply(s, alpha - rho * float(y.dot(q)), out=work)
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

    best_val = np.inf
    best_theta, best_loss = theta.copy(), loss
    strikes = 0
    stopped_early = False

    n_iter = 0
    converged = False
    for n_iter in range(1, cfg.max_iter + 1):
        if not np.isfinite(grad).all():
            break
        gnorm2 = float(grad.dot(grad))
        if gnorm2 == 0.0:
            converged = True
            break
        direction = _lbfgs_direction(grad, pairs, work) if pairs else -grad
        slope = float(grad.dot(direction))
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
        sy, yy = float(s.dot(y)), float(y.dot(y))
        if math.isfinite(sy) and math.isfinite(yy) and sy > 1e-12 * yy:
            pairs.append((s, y, 1.0 / sy))
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
