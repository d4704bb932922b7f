"""Discourse atoms: k-SVD sparse dictionary learning over word vectors, a
spherical k-means alternate, and hard word-to-atom assignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNASSIGNED = -1


@dataclass(frozen=True)
class AtomConfig:
    K: int = 200
    sparsity: int = 5
    iterations: int = 20
    method: str = "ksvd"  # or "kmeans"
    seed: int = 0

    def __post_init__(self):
        if not (1 <= self.sparsity <= self.K):
            raise ValueError("need 1 <= sparsity <= K")
        if self.method not in ("ksvd", "kmeans"):
            raise ValueError(f"unknown method: {self.method}")


@dataclass
class AtomDictionary:
    """Unit-norm atom vectors for one slice plus the word -> atom map."""

    atoms: np.ndarray  # K x k, rows unit-norm
    assignment: np.ndarray  # length n, atom index or UNASSIGNED
    scores: np.ndarray  # length n, cosine to the assigned atom
    error_trace: list

    @property
    def K(self) -> int:
        return self.atoms.shape[0]


def _normalize_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return M / norms


def omp_code(x: np.ndarray, atoms: np.ndarray, s: int) -> np.ndarray:
    """Orthogonal matching pursuit: code x over unit-norm atom rows with at
    most s nonzeros. Returns a dense length-K coefficient vector."""
    K = atoms.shape[0]
    code = np.zeros(K)
    residual = x.copy()
    support = []
    for _ in range(s):
        corr = atoms @ residual
        corr[support] = 0.0
        idx = int(np.argmax(np.abs(corr)))
        if abs(corr[idx]) < 1e-12:
            break
        support.append(idx)
        sub = atoms[support]
        coef, *_ = np.linalg.lstsq(sub.T, x, rcond=None)
        residual = x - sub.T @ coef
    if support:
        code[support] = coef
    return code


def _reconstruction_error(X: np.ndarray, atoms: np.ndarray, codes: np.ndarray) -> float:
    resid = X - codes @ atoms
    return float(np.sum(resid * resid))


def ksvd_train(U_slice: np.ndarray, cfg: AtomConfig) -> AtomDictionary:
    """k-SVD: alternate OMP sparse coding with rank-1 SVD atom updates.

    A new OMP code is kept per word only when it beats that word's previous
    code under the current dictionary, so the squared reconstruction error is
    nonincreasing across iterations. Dead atoms are reseeded from the worst
    reconstructed word vector.
    """
    X = np.asarray(U_slice, dtype=np.float64)
    n, k = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite word vectors")
    if cfg.K > n:
        raise ValueError(f"K={cfg.K} exceeds vocabulary size n={n}")

    rng = np.random.default_rng(cfg.seed)
    seed_rows = rng.choice(n, size=cfg.K, replace=False)
    atoms = _normalize_rows(X[seed_rows].copy())
    # guard against zero seed rows
    for i in range(cfg.K):
        if np.linalg.norm(atoms[i]) < 1e-12:
            atoms[i] = rng.normal(size=k)
            atoms[i] /= np.linalg.norm(atoms[i])

    codes = np.zeros((n, cfg.K))
    trace = []
    for it in range(cfg.iterations):
        # sparse coding, keeping the better of old and new codes
        for i in range(n):
            new = omp_code(X[i], atoms, cfg.sparsity)
            old_err = np.sum((X[i] - codes[i] @ atoms) ** 2)
            new_err = np.sum((X[i] - new @ atoms) ** 2)
            if it == 0 or new_err <= old_err:
                codes[i] = new

        # dictionary update, atom by atom
        for a in range(cfg.K):
            users = np.nonzero(np.abs(codes[:, a]) > 1e-12)[0]
            if users.size == 0:
                resid_all = X - codes @ atoms
                worst = int(np.argmax(np.sum(resid_all * resid_all, axis=1)))
                vec = X[worst]
                nv = np.linalg.norm(vec)
                if nv > 1e-12:
                    atoms[a] = vec / nv
                continue
            # residual restricted to this atom's support, without atom a
            E = X[users] - codes[users] @ atoms + np.outer(codes[users, a], atoms[a])
            try:
                Uv, sv, Vt = np.linalg.svd(E.T, full_matrices=False)
            except np.linalg.LinAlgError:
                continue
            # the pair's sign is arbitrary; orient the atom toward the
            # words it encodes, so their coefficients sum to >= 0
            if Vt[0].sum() < 0:
                Uv[:, 0], Vt[0] = -Uv[:, 0], -Vt[0]
            atoms[a] = Uv[:, 0]
            codes[users, a] = sv[0] * Vt[0, :]
        atoms = _normalize_rows(atoms)
        trace.append(_reconstruction_error(X, atoms, codes))

    assignment, scores = assign_words(atoms, X)
    return AtomDictionary(atoms=atoms, assignment=assignment, scores=scores,
                          error_trace=trace)


def kmeans_train(U_slice: np.ndarray, cfg: AtomConfig) -> AtomDictionary:
    """Spherical k-means on length-normalized vectors, k-means++ init."""
    X = np.asarray(U_slice, dtype=np.float64)
    n, k = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite word vectors")
    if cfg.K > n:
        raise ValueError(f"K={cfg.K} exceeds vocabulary size n={n}")

    Xn = _normalize_rows(X.copy())
    rng = np.random.default_rng(cfg.seed)

    # k-means++ seeding on cosine distance
    centers = np.empty((cfg.K, k))
    first = int(rng.integers(n))
    centers[0] = Xn[first]
    dist = 1.0 - Xn @ centers[0]
    dist = np.maximum(dist, 0.0)
    for c in range(1, cfg.K):
        total = dist.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=dist / total))
        centers[c] = Xn[idx]
        dist = np.minimum(dist, np.maximum(1.0 - Xn @ centers[c], 0.0))

    trace = []
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(cfg.iterations):
        sims = Xn @ centers.T
        labels = np.argmax(sims, axis=1)
        for c in range(cfg.K):
            members = np.nonzero(labels == c)[0]
            if members.size == 0:
                # reseed from the farthest point
                far = int(np.argmin(np.max(Xn @ centers.T, axis=1)))
                centers[c] = Xn[far]
                continue
            mean = Xn[members].sum(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 1e-12:
                centers[c] = mean / norm
        sims = Xn @ centers.T
        distortion = float(np.sum(1.0 - sims[np.arange(n), np.argmax(sims, axis=1)]))
        trace.append(distortion)

    assignment, scores = assign_words(centers, X)
    return AtomDictionary(atoms=centers, assignment=assignment,
                          scores=scores, error_trace=trace)


def train_atoms(U_slice: np.ndarray, cfg: AtomConfig) -> AtomDictionary:
    if cfg.method == "kmeans":
        return kmeans_train(U_slice, cfg)
    return ksvd_train(U_slice, cfg)


def assign_words(atoms: np.ndarray, U_slice: np.ndarray):
    """Each word -> argmax cosine atom; ties break to the lowest atom index;
    zero-norm words get the UNASSIGNED sentinel."""
    X = np.asarray(U_slice, dtype=np.float64)
    word_norms = np.linalg.norm(X, axis=1)
    atom_norms = np.linalg.norm(atoms, axis=1)
    atom_norms_safe = np.where(atom_norms == 0, 1.0, atom_norms)
    sims = (X @ atoms.T) / atom_norms_safe[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = sims / np.where(word_norms == 0, 1.0, word_norms)[:, None]
    # np.argmax returns the lowest index on exact ties
    best = np.argmax(sims, axis=1)
    scores = sims[np.arange(X.shape[0]), best]
    assignment = np.where(word_norms == 0, UNASSIGNED, best).astype(np.int64)
    scores = np.where(word_norms == 0, np.nan, scores)
    return assignment, scores
