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
        t = np.asarray(targets, dtype=np.float64)
        if t.min(initial=0.0) < 0.0 or t.max(initial=0.0) > 1.0:
            raise DataError("targets must lie in [0, 1]")
    if t.shape != (n,):
        raise DataError("targets length does not match features")
    return t


def loss_and_grad(w: np.ndarray, b: float, x: np.ndarray, targets: np.ndarray,
                  l2: float):
    """Mean cross-entropy with soft targets plus (l2/2)||w||^2, and its gradient.

    Cross-entropy per row is softplus(z) - t*z with z = x.w + b, which is
    stable for large |z|.
    """
    z = x @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - targets * z) + 0.5 * l2 * (w @ w))
    resid = sigmoid(z) - targets
    grad_w = x.T @ resid / x.shape[0] + l2 * w
    grad_b = float(resid.mean())
    return loss, grad_w, grad_b


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
    scale = np.ldexp(1.0, np.frexp(np.abs(x.values).max(axis=0))[1])
    mean = (x.values / scale).mean(axis=0) * scale
    std = (x.values / scale).std(axis=0) * scale
    std = np.where(std == 0.0, 1.0, std)
    xs = (x.values - mean) / std
    xt = np.column_stack([xs, np.ones(x.n)])
    ridge = np.diag(np.append(np.full(x.d, cfg.l2), 0.0))

    w = np.zeros(x.d)
    b = 0.0
    loss, grad_w, grad_b = loss_and_grad(w, b, xs, t, cfg.l2)
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        if not np.isfinite(loss):
            raise NonFiniteLoss("training loss is not finite")
        if max(np.abs(grad_w).max(initial=0.0), abs(grad_b)) < cfg.tol:
            iters -= 1
            break
        p = sigmoid(xs @ w + b)
        hess = xt.T @ (xt * (p * (1.0 - p))[:, None]) / x.n + ridge
        step = np.linalg.lstsq(hess, np.append(grad_w, grad_b), rcond=None)[0]
        alpha = 1.0
        while True:
            w_new = w - alpha * step[:-1]
            b_new = b - alpha * step[-1]
            loss_new, gw_new, gb_new = loss_and_grad(w_new, b_new, xs, t, cfg.l2)
            if np.isfinite(loss_new) and loss_new <= loss:
                break
            alpha /= 2.0
            if alpha < 1e-12:
                raise NonFiniteLoss("step size underflowed while backtracking")
        w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
    return LogisticModel(weights=w, bias=float(b), standardize_mean=mean,
                         standardize_std=std,
                         training_meta={"iterations": iters, "final_loss": loss})


def predict_logreg(model: LogisticModel, x: FeatureMatrix) -> ScoreVector:
    """sigmoid(x.w + b) on standardized rows."""
    if x.d != model.weights.shape[0]:
        raise DataError(f"model is {model.weights.shape[0]}-d, features are {x.d}-d")
    xs = (x.values - model.standardize_mean) / model.standardize_std
    return ScoreVector(sigmoid(xs @ model.weights + model.bias))
