"""Logistic-regression end model trained on (possibly soft) pseudolabels.

Deterministic damped Newton, run to the optimum of mean cross-entropy plus an
L2 penalty (l2/2)*||w||^2 on the weights (not the bias). Soft targets in
[0, 1] are used directly as target probabilities, so training on {0, 1}
targets coincides exactly with hard-label training. Features are standardized
per column inside training (constant columns skipped); the standardization is
stored in the model and replayed at prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DataError, FeatureMatrix, LabelVector, NonFiniteLoss, ScoreVector,
                   sigmoid)


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-4
    max_iters: int = 5000
    tol: float = 1e-6

    def __post_init__(self):
        if not (np.isfinite(self.l2) and self.l2 >= 0.0):
            raise ValueError("l2 must be finite and >= 0")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    standardize_mean: np.ndarray
    standardize_std: np.ndarray
    training_meta: dict


def _as_targets(targets, n: int) -> np.ndarray:
    if isinstance(targets, ScoreVector):
        t = np.array(targets.scores)
    elif isinstance(targets, LabelVector):
        t = (targets.labels.astype(np.float64) + 1.0) / 2.0
    else:
        raise DataError(f"targets must be a ScoreVector or a LabelVector, not "
                        f"{type(targets).__name__}")
    if t.shape != (n,):
        raise DataError("targets length does not match features")
    return t


def _loss_grad_p(theta: np.ndarray, x: np.ndarray, targets: np.ndarray, l2: float):
    """(loss, grad, p) at theta = (w, b): mean cross-entropy with soft targets
    plus (l2/2)||w||^2, its gradient in theta, and p = sigmoid(z).

    Cross-entropy per row is softplus(z) - t*z with z = x.w + b, which is
    stable for large |z|.
    """
    w = theta[:-1]
    z = x @ w + theta[-1]
    loss = float(np.mean(np.logaddexp(0.0, z) - targets * z) + 0.5 * l2 * (w @ w))
    p = sigmoid(z)
    resid = p - targets
    return loss, np.append(x.T @ resid / x.shape[0] + l2 * w, resid.mean()), p


def _standardize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(x - mean) / std, with every term first scaled by 2^-e, 2^e near the
    larger of each column's max |x| and |mean|, so that no difference
    overflows; a power-of-two scale leaves the quotient's bits unchanged."""
    e = np.frexp(np.maximum(np.abs(x).max(axis=0, initial=0.0), np.abs(mean)))[1]
    return (np.ldexp(x, -e) - np.ldexp(mean, -e)) / np.ldexp(std, -e)


def train_logreg(x: FeatureMatrix, targets, config: TrainConfig = None) -> LogisticModel:
    """Fit by damped Newton steps on the (d+1)x(d+1) Hessian.

    H = X'diag(p(1-p))X/n + diag(l2, ..., l2, 0), X the standardized features
    with a ones column, is solved by least squares, so a singular H (l2 = 0 on
    separable data) still gives a step. Its length starts at 1 and halves until
    the loss does not rise. Stops when the sup norm of the gradient drops below
    tol or at max_iters.
    """
    cfg = config or TrainConfig()
    if x.n < 2:
        raise DataError("training needs at least 2 rows")
    t = _as_targets(targets, x.n)

    # moments of x / 2^e, 2^e near each column's max |x|: exact, and no square overflows
    e = np.frexp(np.abs(x.values).max(axis=0))[1]
    mean = np.ldexp(np.ldexp(x.values, -e).mean(axis=0), e)
    std = np.ldexp(np.ldexp(x.values, -e).std(axis=0), e)
    std = np.where(std == 0.0, 1.0, std)
    xs = _standardize(x.values, mean, std)
    xt = np.column_stack([xs, np.ones(x.n)])
    ridge = np.diag(np.append(np.full(x.d, cfg.l2), 0.0))

    theta = np.zeros(x.d + 1)          # (w, b)
    loss, grad, p = _loss_grad_p(theta, xs, t, cfg.l2)
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        if not np.isfinite(loss):
            raise NonFiniteLoss("training loss is not finite")
        if np.abs(grad).max() < cfg.tol:
            iters -= 1
            break
        hess = xt.T @ (xt * (p * (1.0 - p))[:, None]) / x.n + ridge
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        alpha = 1.0
        while True:
            theta_new = theta - alpha * step
            loss_new, grad_new, p_new = _loss_grad_p(theta_new, xs, t, cfg.l2)
            if np.isfinite(loss_new) and loss_new <= loss:
                break
            alpha /= 2.0
            if alpha < 1e-12:
                raise NonFiniteLoss("step size underflowed while backtracking")
        theta, loss, grad, p = theta_new, loss_new, grad_new, p_new
    return LogisticModel(weights=theta[:-1], bias=float(theta[-1]), standardize_mean=mean,
                         standardize_std=std,
                         training_meta={"iterations": iters, "final_loss": loss})


def predict_logreg(model: LogisticModel, x: FeatureMatrix) -> ScoreVector:
    """sigmoid(x.w + b) on standardized rows."""
    if x.d != model.weights.shape[0]:
        raise DataError(f"model is {model.weights.shape[0]}-d, features are {x.d}-d")
    xs = _standardize(x.values, model.standardize_mean, model.standardize_std)
    return ScoreVector(sigmoid(xs @ model.weights + model.bias))
