"""Discourse atoms: k-SVD sparse dictionary learning over word vectors, a
spherical k-means alternate, and hard word-to-atom assignment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import AtomConfig

UNASSIGNED = -1


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


# rows coded per omp_code call in ksvd_train; bounds the coder's peak memory
_BLOCK = 128
# A support's newest atom counts as dependent on the earlier ones when the
# last diagonal entry of the inverse Gram block, 1/sin^2 of its angle to
# their span, exceeds this: the normal equations would then keep fewer than
# half the digits that least squares keeps.
_MAX_INV_DIAG = 1e8


def omp_code(X: np.ndarray, atoms: np.ndarray, s: int) -> np.ndarray:
    """Batch orthogonal matching pursuit (Rubinstein, Zibulevsky & Elad
    2008): code each row of X over unit-norm atom rows with at most s
    nonzeros. Returns the dense n x K codes.

    Every row takes each greedy step at once through the Gram matrix
    G = D D' and the correlations X D'. A row stops when its largest
    |correlation| off its support is below 1e-12. A row whose support turns
    numerically dependent takes the least-squares solution from then on.
    """
    n, K = X.shape[0], atoms.shape[0]
    G = atoms @ atoms.T
    alpha = X @ atoms.T
    corr = alpha.copy()
    codes = np.zeros((n, K))
    support = np.zeros((n, s), dtype=np.intp)
    dependent = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for j in range(1, s + 1):
        c = corr[active]
        at = np.arange(active.size)
        c[at[:, None], support[active, :j - 1]] = 0.0
        idx = np.argmax(np.abs(c), axis=1)
        go = np.abs(c[at, idx]) >= 1e-12
        active, idx = active[go], idx[go]
        if active.size == 0:
            break
        support[active, j - 1] = idx
        sup = support[active, :j]
        coef, inv_diag = _solve_blocks(G[sup[:, :, None], sup[:, None, :]],
                                       alpha[active[:, None], sup])
        dependent[active] |= ~((inv_diag > 0) & (inv_diag <= _MAX_INV_DIAG))
        for r in np.flatnonzero(dependent[active]):
            coef[r] = np.linalg.lstsq(atoms[sup[r]].T, X[active[r]],
                                      rcond=None)[0]
        codes[active[:, None], sup] = coef
        corr[active] = alpha[active] - codes[active] @ G
    return codes


def _solve_blocks(Gs: np.ndarray, rhs: np.ndarray):
    """Solve Gs[r] c = rhs[r] for each of the m j x j blocks, and return the
    last diagonal entry of each block's inverse too. A singular block gives
    NaN."""
    m, j = rhs.shape
    last = np.zeros((m, j))
    last[:, -1] = 1.0
    B = np.stack([rhs, last], axis=-1)
    try:
        sol = np.linalg.solve(Gs, B)
    except np.linalg.LinAlgError:
        sol = np.full(B.shape, np.nan)
        for r in range(m):
            try:
                sol[r] = np.linalg.solve(Gs[r], B[r])
            except np.linalg.LinAlgError:
                pass
    return sol[:, :, 0], sol[:, -1, 1]


def _rank1(E: np.ndarray, atom: np.ndarray):
    """Best rank-1 fit of the m x k residual E as (unit atom u, codes E u):
    u is E's leading right singular vector, and E u = sigma v. The pair is
    taken from the eigenvectors of the smaller Gram matrix, E E' when
    m <= k, else E'E. Its sign is arbitrary, so the atom is oriented toward
    the words it encodes: their codes sum to >= 0. An all-zero E keeps the
    atom and gives zero codes."""
    if not E.any():
        return atom, np.zeros(E.shape[0])
    if E.shape[0] <= E.shape[1]:
        u = E.T @ np.linalg.eigh(E @ E.T)[1][:, -1]
        u /= np.linalg.norm(u)
    else:
        u = np.linalg.eigh(E.T @ E)[1][:, -1]
    codes = E @ u
    if codes.sum() < 0:
        u, codes = -u, -codes
    return u, codes


def ksvd_train(U_slice: np.ndarray, cfg: AtomConfig) -> AtomDictionary:
    """k-SVD: alternate Batch-OMP sparse coding with rank-1 atom updates.

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
    R = X.copy()  # the residual X - codes @ atoms
    trace = []
    for it in range(cfg.iterations):
        # sparse coding in row blocks, keeping the better of old and new codes
        for lo in range(0, n, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            new = omp_code(X[rows], atoms, cfg.sparsity)
            new_R = X[rows] - new @ atoms
            better = (np.einsum("ij,ij->i", new_R, new_R)
                      <= np.einsum("ij,ij->i", R[rows], R[rows]))
            better |= it == 0
            codes[rows][better] = new[better]
            R[rows][better] = new_R[better]

        # dictionary update, atom by atom, keeping R current in place
        for a in range(cfg.K):
            nz = np.flatnonzero(codes[:, a])
            old_code, old_atom = codes[nz, a], atoms[a].copy()
            users = nz[np.abs(old_code) > 1e-12]
            if users.size == 0:
                worst = int(np.argmax(np.einsum("ij,ij->i", R, R)))
                vec = X[worst]
                nv = np.linalg.norm(vec)
                if nv > 1e-12:
                    atoms[a] = vec / nv
            else:
                # residual restricted to this atom's support, without atom a
                E = R[users] + np.outer(codes[users, a], atoms[a])
                try:
                    atoms[a], codes[users, a] = _rank1(E, atoms[a])
                except np.linalg.LinAlgError:
                    continue
            R[nz] += (np.outer(old_code, old_atom)
                      - np.outer(codes[nz, a], atoms[a]))
        atoms = _normalize_rows(atoms)
        R = X - codes @ atoms
        trace.append(float(np.sum(R * R)))

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
