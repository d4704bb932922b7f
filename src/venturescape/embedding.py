"""Jointly regularized temporal embedding: factorize per-slice PPMI matrices
with ridge and adjacent-slice smoothing penalties."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import Failure, TrainConfig
from .corpus import CsrMatrix


class SolverError(Failure, RuntimeError):
    """The sweeps cannot go on: a slice system is singular or not finite,
    or the objective became non-finite."""

    code, label = 70, "solver failure"  # EX_SOFTWARE in sysexits.h


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


@functools.cache
def _csr_matvecs():
    """csr_matvecs from scipy's compiled scipy/sparse/_sparsetools
    extension: the loop that scipy.sparse runs for a CSR matrix times a
    dense block. The file is found without running any scipy code and
    loaded once per process; loading an extension module registers it in
    sys.modules, which is undone, so no scipy module is ever imported."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_sparsetools",
        [os.path.join(p, "sparse") for p in scipy.submodule_search_locations])
    if spec is None:
        raise ModuleNotFoundError("train needs scipy's compiled "
                                  "scipy/sparse/_sparsetools extension")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module.csr_matvecs


def _product(Y: CsrMatrix, W: np.ndarray) -> np.ndarray:
    """Y W, bit for bit as scipy.sparse.csr_matrix(Y) @ W computes it: by
    scipy's compiled csr_matvecs kernel over the record's own arrays. The
    kernel takes both index arrays in one dtype, int32 while nnz fits it, so
    a call copies only the n + 1 row pointers, never an O(nnz) array."""
    if W.shape[0] != Y.n:  # the kernel reads W without bounds checks
        raise ValueError(f"shape mismatch: {Y.n} x {Y.n} times {W.shape}")
    index = np.int32 if Y.nnz <= np.iinfo(np.int32).max else np.int64
    k = W.shape[1]
    out = np.zeros((Y.n, k))
    _csr_matvecs()(Y.n, Y.n, k, Y.indptr.astype(index, copy=False),
                   Y.indices.astype(index, copy=False), Y.data,
                   np.ravel(W), out.ravel())
    return out


def _fit_sq(Y: CsrMatrix, YW: np.ndarray, U: np.ndarray,
            W: np.ndarray) -> float:
    """||Y - U W'||_F^2 = ||Y||^2 - 2 sum((Y W) * U) + <U'U, W'W>, from the
    nonzeros of a canonical CSR Y and its product YW = Y W in
    O(nnz k + n k^2), without forming any n x n array."""
    cross = float(np.sum(YW * U))
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
        total += (0.5 * _fit_sq(Y, _product(Y, Ut), Ut, Ut)
                  + 0.5 * cfg.lam * float(np.sum(Ut * Ut)))
    for t in range(1, U.T):
        diff = U.slices[t - 1] - U.slices[t]
        total += 0.5 * cfg.tau * float(np.sum(diff * diff))
    return total


def splitting_objective(Ys, U: np.ndarray, cfg: TrainConfig,
                        products=None) -> float:
    """Variable-splitting surrogate minimized by the sweeps,
    1/2 sum_t ||Y - U W'||^2 + gamma/2 sum_t ||U - W||^2
    + lam/2 sum_t (||U||^2 + ||W||^2)
    + tau/2 sum_{t>=2} (||U(t-1)-U(t)||^2 + ||W(t-1)-W(t)||^2),
    at the co-factor W = U that train keeps: the splitting term is 0 and
    each W term equals its U term. The terms are added in the order of the
    two-factor form, so the value is bit for bit the same.

    Each Y(t) is read from Ys once and released before Y(t + 1) is read. A
    list of length T given as products receives each Y(t) U(t) it forms.
    """
    total = 0.0
    for t in range(len(Ys)):
        Y = Ys[t]
        YU = _product(Y, U[t])
        if products is not None:
            products[t] = YU
        total += 0.5 * _fit_sq(Y, YU, U[t], U[t])
        del Y
        sq = float(np.sum(U[t] * U[t]))
        total += 0.5 * cfg.lam * (sq + sq)
    for t in range(1, len(Ys)):
        du = U[t - 1] - U[t]
        sq = float(np.sum(du * du))
        total += 0.5 * cfg.tau * (sq + sq)
    return total


def solve_slice(t: int, Y: CsrMatrix, W: np.ndarray, U_prev, U_next,
                cfg: TrainConfig, YW=None) -> np.ndarray:
    """Closed-form ridge update for one slice given the co-factor W and the
    previous iterate's temporal neighbors: U' = A^-1 B' for the symmetric
    positive definite A, through its Cholesky factor A = L L'. B takes the
    product YW = Y W when the caller has it, and forms it otherwise; Y is
    read only then. A system that is not positive definite raises
    SolverError; it gets no LU fallback, which would return finite values
    for a singular A."""
    b = int(U_prev is not None) + int(U_next is not None)
    k = W.shape[1]
    # an inf or NaN in A or B is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        A = W.T @ W + (cfg.gamma + cfg.lam + b * cfg.tau) * np.eye(k)
        B = (_product(Y, W) if YW is None else YW) + cfg.gamma * W
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
    """Jacobi sweeps with variable splitting U ~ W over CsrMatrix slices Ys,
    any sequence that returns slice t for Ys[t].

    U and W start from one shared draw and Y is symmetric, so each sweep's
    W-update returns its U-update's bits and U = W after every sweep: one
    T x n x k iterate U stands for both, and the collapse (U + W) / 2 is U
    itself. Each sweep updates U in place, slice by slice; a one-slice
    buffer keeps the old U(t - 1), so every new U(t) still depends on the
    previous iterate only. Stops at cfg.sweeps or when the relative change
    of the splitting objective drops below cfg.tol.

    The objective keeps each product Y(t) U(t) it forms, and the next
    sweep's update of slice t takes it, so the update reads Y(t) only when
    no product was kept. A run of s sweeps does T s solves, forms
    T (s + 1) products and reads each slice s + 1 times.
    """
    T = len(Ys)
    U = init_embeddings(Ys[0].n, cfg.k, T, cfg.seed)
    old = np.empty_like(U[0])  # the previous iterate's U(t - 1)

    products = [None] * T
    prev_obj = splitting_objective(Ys, U, cfg, products)
    for sweep in range(cfg.sweeps):
        for t in range(T):
            YU, products[t] = products[t], None
            new = solve_slice(t, Ys[t] if YU is None else None, U[t],
                              old if t > 0 else None,
                              U[t + 1] if t + 1 < T else None, cfg, YU)
            old[...] = U[t]
            U[t] = new
        obj = splitting_objective(Ys, U, cfg, products)
        if not np.isfinite(obj):
            raise SolverError(f"objective diverged at sweep {sweep}")
        if callback is not None:
            callback(sweep, obj)
        if prev_obj > 0 and abs(prev_obj - obj) / prev_obj < cfg.tol:
            break
        prev_obj = obj

    return EmbeddingTensor(slices=U, years=list(years) if years is not None
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
