"""Shared numerical kernel: stable link functions, sparse design matrices,
and a deterministic gradient-descent minimizer with backtracking line search.

The link functions are what every objective evaluation spends its time on.
``softplus`` is max(z, 0) + log1p(exp(-|z|)), about 4x cheaper than
``np.logaddexp(0, z)``; ``softplus_sigmoid`` returns softplus(z) and sigmoid(z)
from one shared exp(-|z|), so a loss-and-gradient evaluation takes one exp
per linear score. ``sigmoid`` (scipy's ``expit``) stays the link for
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.special import expit as sigmoid  # noqa: F401  (re-exported)


def softplus(z: np.ndarray | float) -> np.ndarray:
    """log(1 + exp(z)) without overflow."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def softplus_sigmoid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(z) and sigmoid(z), both from one t = exp(-|z|).

    sigmoid is 1/(1+t) for z >= 0 and t/(1+t) below, so neither branch
    overflows; ±inf map to the limits and nan stays nan.
    """
    t = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(t), np.where(z >= 0, 1.0, t) / (1.0 + t)


def append_columns(x: sparse.csr_matrix, extra: np.ndarray) -> sparse.csr_matrix:
    """Append dense columns (e.g. an elapsed-time basis) to a CSR matrix."""
    if extra.ndim != 2 or extra.shape[0] != x.shape[0]:
        raise ValueError("extra columns must be 2-D with matching row count")
    return sparse.hstack([x, sparse.csr_matrix(extra)], format="csr")


@dataclass(frozen=True)
class OptConfig:
    max_iter: int = 500
    tol: float = 1e-9
    step0: float = 1.0
    eval_every: int = 10
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, bad in (
            ("max_iter", self.max_iter < 1),
            ("tol", self.tol < 0),
            ("step0", self.step0 <= 0),
            ("eval_every", self.eval_every < 1),
            ("patience", self.patience < 1),
        ):
            if bad:
                raise ValueError(f"bad optimizer config: {name} = {getattr(self, name)!r}")


@dataclass
class OptResult:
    theta: np.ndarray
    loss: float
    n_iter: int
    converged: bool
    stopped_early: bool = False


def minimize_batch(
    fun_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    fun: Callable[[np.ndarray], float],
    theta0: np.ndarray,
    cfg: OptConfig,
    validation: Callable[[np.ndarray], float] | None = None,
) -> OptResult:
    """Full-batch descent with Armijo backtracking.

    The step that passed the Armijo test is doubled for the next iteration,
    so the step size adapts in both directions. Convergence is declared when
    the relative loss decrease over one iteration drops below cfg.tol. A
    non-finite gradient gives no descent direction: the loop stops there with
    converged=False and keeps the last iterate, whose loss is finite.

    When ``validation`` is given, it is evaluated every cfg.eval_every
    iterations; after cfg.patience evaluations without improvement the best
    iterate seen (by validation score) is returned with stopped_early=True.
    """
    theta = np.array(theta0, dtype=np.float64)
    loss, grad = fun_grad(theta)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss at the initial point")
    step = cfg.step0

    best_val = np.inf
    best_theta = theta.copy()
    strikes = 0
    stopped_early = False

    n_iter = 0
    converged = False
    for n_iter in range(1, cfg.max_iter + 1):
        if not np.all(np.isfinite(grad)):
            break
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            converged = True
            break
        accepted = False
        for _ in range(60):
            candidate = theta - step * grad
            cand_loss = fun(candidate)
            if np.isfinite(cand_loss) and cand_loss <= loss - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True  # no descent at machine-level steps: at a minimum
            break
        new_loss, new_grad = fun_grad(candidate)
        rel_drop = (loss - new_loss) / max(1.0, abs(loss))
        theta, loss, grad = candidate, new_loss, new_grad
        step *= 2.0

        if validation is not None and n_iter % cfg.eval_every == 0:
            score = validation(theta)
            if score < best_val - 1e-12:
                best_val = score
                best_theta = theta.copy()
                strikes = 0
            else:
                strikes += 1
                if strikes >= cfg.patience:
                    stopped_early = True
                    break

        if 0 <= rel_drop < cfg.tol:
            converged = True
            break

    if validation is not None:
        final_val = validation(theta)
        if final_val < best_val:
            best_val = final_val
            best_theta = theta.copy()
        return OptResult(
            theta=best_theta,
            loss=fun(best_theta),
            n_iter=n_iter,
            converged=converged,
            stopped_early=stopped_early,
        )
    return OptResult(theta=theta, loss=loss, n_iter=n_iter, converged=converged)
