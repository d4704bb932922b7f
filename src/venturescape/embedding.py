"""Jointly regularized temporal embedding: factorize per-slice PPMI matrices
with ridge and adjacent-slice smoothing penalties."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .corpus import CsrMatrix


class SolverError(RuntimeError):
    """The sweeps cannot go on: a slice system is singular or not finite,
    or the objective became non-finite."""


@dataclass
class EmbeddingTensor:
    """T aligned n x k word-vector slices over a joint vocabulary."""

    slices: np.ndarray  # T x n x k
    years: list

    @property
    def T(self) -> int:
        return self.slices.shape[0]

    @property
    def n(self) -> int:
        return self.slices.shape[1]

    @property
    def k(self) -> int:
        return self.slices.shape[2]


def init_embeddings(n: int, k: int, T: int, seed: int) -> np.ndarray:
    """T x n x k uniform draws in [-0.5/k, 0.5/k]; all slices share one
    draw so the smoothing term starts at zero."""
    if n < 1 or k < 1 or T < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.5 / k, 0.5 / k, size=(n, k))
    return np.repeat(base[None, :, :], T, axis=0)


def _product(Y: CsrMatrix, W: np.ndarray) -> np.ndarray:
    """Y W, by scipy's CSR product over the record's own arrays."""
    import scipy.sparse as sp  # lazy: only train loads scipy

    return sp.csr_matrix((Y.data, Y.indices, Y.indptr), shape=(Y.n, Y.n)) @ W


def _fit_sq(Y: CsrMatrix, U: np.ndarray, W: np.ndarray) -> float:
    """||Y - U W'||_F^2 = ||Y||^2 - 2 sum((Y W) * U) + <U'U, W'W>, from the
    nonzeros of a canonical CSR Y in O(nnz k + n k^2), without forming any
    n x n array."""
    cross = float(np.sum(_product(Y, W) * U))
    gram = float(np.sum((U.T @ U) * (W.T @ W)))
    return float(Y.data @ Y.data) - 2.0 * cross + gram


def objective_value(Ys, U: EmbeddingTensor, cfg: TrainConfig) -> float:
    """Value of the joint objective:
    1/2 sum_t ||Y(t) - U(t)U(t)'||_F^2 + lam/2 sum_t ||U(t)||_F^2
    + tau/2 sum_{t>=2} ||U(t-1) - U(t)||_F^2
    """
    if U.T != len(Ys):
        raise ValueError("slice count mismatch between Y and U")
    total = 0.0
    for t, Y in enumerate(Ys):
        if Y.n != U.n:
            raise ValueError(f"dimension mismatch in slice {t}")
        Ut = U.slices[t]
        total += (0.5 * _fit_sq(Y, Ut, Ut)
                  + 0.5 * cfg.lam * float(np.sum(Ut * Ut)))
    for t in range(1, U.T):
        diff = U.slices[t - 1] - U.slices[t]
        total += 0.5 * cfg.tau * float(np.sum(diff * diff))
    return total


def splitting_objective(Ys, U: np.ndarray, W: np.ndarray, cfg: TrainConfig) -> float:
    """Variable-splitting surrogate minimized by the sweeps:
    1/2 sum_t ||Y - U W'||^2 + gamma/2 sum_t ||U - W||^2
    + lam/2 sum_t (||U||^2 + ||W||^2)
    + tau/2 sum_{t>=2} (||U(t-1)-U(t)||^2 + ||W(t-1)-W(t)||^2)
    """
    total = 0.0
    for t, Y in enumerate(Ys):
        total += 0.5 * _fit_sq(Y, U[t], W[t])
        diff = U[t] - W[t]
        total += 0.5 * cfg.gamma * float(np.sum(diff * diff))
        total += 0.5 * cfg.lam * (float(np.sum(U[t] * U[t])) + float(np.sum(W[t] * W[t])))
    for t in range(1, len(Ys)):
        du = U[t - 1] - U[t]
        dw = W[t - 1] - W[t]
        total += 0.5 * cfg.tau * (float(np.sum(du * du)) + float(np.sum(dw * dw)))
    return total


def solve_slice(t: int, Y: CsrMatrix, W: np.ndarray, U_prev, U_next,
                cfg: TrainConfig) -> np.ndarray:
    """Closed-form ridge update for one slice given the co-factor W and the
    previous iterate's temporal neighbors: U' = A^-1 B' for the symmetric
    positive definite A, through its Cholesky factor A = L L'. A system
    that is not positive definite raises SolverError; it gets no LU
    fallback, which would return finite values for a singular A."""
    b = int(U_prev is not None) + int(U_next is not None)
    k = W.shape[1]
    # an inf or NaN in A or B is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        A = W.T @ W + (cfg.gamma + cfg.lam + b * cfg.tau) * np.eye(k)
        B = _product(Y, W) + cfg.gamma * W
        if U_prev is not None:
            B = B + cfg.tau * U_prev
        if U_next is not None:
            B = B + cfg.tau * U_next
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise SolverError(f"system of slice {t}: array must not contain "
                          "infs or NaNs")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular system in slice {t}; use a nonzero "
                          "ridge weight lam") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, B.T)).T


def train(Ys, cfg: TrainConfig, years=None, callback=None) -> EmbeddingTensor:
    """Jacobi sweeps with variable splitting U ~ W over CsrMatrix slices Ys.

    Every new U(t) and W(t) in a sweep is computed from the previous iterate
    only, then the iterates are swapped. Stops at cfg.sweeps or when the
    relative change of the splitting objective drops below cfg.tol. The
    splitting is collapsed as (U + W) / 2 at the end.
    """
    T = len(Ys)
    U = init_embeddings(Ys[0].n, cfg.k, T, cfg.seed)
    W = U.copy()

    prev_obj = splitting_objective(Ys, U, W, cfg)
    for sweep in range(cfg.sweeps):
        newU = np.empty_like(U)
        newW = np.empty_like(W)
        for t in range(T):
            up = U[t - 1] if t > 0 else None
            un = U[t + 1] if t + 1 < T else None
            newU[t] = solve_slice(t, Ys[t], W[t], up, un, cfg)
            # Y is symmetric, so the co-factor update mirrors the U update
            wp = W[t - 1] if t > 0 else None
            wn = W[t + 1] if t + 1 < T else None
            newW[t] = solve_slice(t, Ys[t], U[t], wp, wn, cfg)
        U, W = newU, newW
        obj = splitting_objective(Ys, U, W, cfg)
        if not np.isfinite(obj):
            raise SolverError(f"objective diverged at sweep {sweep}")
        if callback is not None:
            callback(sweep, obj)
        if prev_obj > 0 and abs(prev_obj - obj) / prev_obj < cfg.tol:
            prev_obj = obj
            break
        prev_obj = obj

    final = (U + W) / 2.0
    return EmbeddingTensor(slices=final, years=list(years) if years is not None
                           else list(range(T)))


def cosine_matrix_row(U_slice: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Cosine similarity of one vector against every row of a slice."""
    norms = np.linalg.norm(U_slice, axis=1)
    vnorm = np.linalg.norm(vec)
    if vnorm == 0:
        raise ValueError("untrained/degenerate word: zero-norm vector")
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = (U_slice @ vec) / (norms * vnorm)
    sims[norms == 0] = -np.inf
    return sims


def top_cosine(X: np.ndarray, vec: np.ndarray, vocab, N: int,
               exclude=()) -> list:
    """The N words whose rows of X are most cosine-similar to vec, as
    (word, similarity), skipping ids in exclude and non-finite similarities;
    ties break by word id."""
    sims = cosine_matrix_row(X, vec)
    order = np.lexsort((np.arange(len(sims)), -sims))
    out = []
    for idx in order:
        if idx in exclude or not np.isfinite(sims[idx]):
            continue
        out.append((vocab.id_to_token[idx], float(sims[idx])))
        if len(out) == N:
            break
    return out


def nearest_neighbors(U: EmbeddingTensor, t: int, word: str, vocab,
                      N: int = 10) -> list:
    """Top-N cosine neighbors of a word in slice t, the word itself
    excluded; ties break by word id."""
    if word not in vocab.token_to_id:
        raise KeyError(f"word not in vocabulary: {word}")
    wid = vocab.token_to_id[word]
    return top_cosine(U.slices[t], U.slices[t][wid], vocab, N, exclude={wid})
