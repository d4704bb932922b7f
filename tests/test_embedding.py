import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from venturescape.config import TrainConfig
from venturescape.embedding import (EmbeddingTensor, SolverError,
                                    cosine_matrix_row, init_embeddings,
                                    nearest_neighbors, objective_value,
                                    solve_slice, train)
from venturescape.embedding import splitting_objective
from conftest import make_vocab
from oracles import from_scipy, to_scipy


def random_instance(rng, n, T, k, density=0.3):
    Ys = []
    for _ in range(T):
        M = rng.random((n, n)) * (rng.random((n, n)) < density)
        Y = np.triu(M, 1)
        Ys.append(from_scipy(sp.csr_matrix(Y + Y.T)))
    return Ys


class TestObjective:
    def test_zero_factor(self):
        rng = np.random.default_rng(0)
        Ys = random_instance(rng, 8, 3, 2)
        U = EmbeddingTensor(np.zeros((3, 8, 2)), [0, 1, 2])
        cfg = TrainConfig(k=2, lam=0.0, tau=0.0)
        expected = 0.5 * sum(float(Y.multiply(Y).sum())
                             for Y in map(to_scipy, Ys))
        assert objective_value(Ys, U, cfg) == pytest.approx(expected, rel=1e-12)

    def test_single_slice_no_smoothing(self):
        rng = np.random.default_rng(1)
        Ys = random_instance(rng, 6, 1, 2)
        U = EmbeddingTensor(rng.random((1, 6, 2)), [0])
        lo = objective_value(Ys, U, TrainConfig(k=2, lam=1.0, tau=0.0))
        hi = objective_value(Ys, U, TrainConfig(k=2, lam=1.0, tau=100.0))
        assert lo == hi

    def test_dimension_mismatch(self):
        Ys = [from_scipy(sp.csr_matrix(np.zeros((4, 4))))]
        U = EmbeddingTensor(np.zeros((1, 5, 2)), [0])
        with pytest.raises(ValueError):
            objective_value(Ys, U, TrainConfig(k=2))

    def test_sparse_path_matches_dense(self):
        # force the no-residual path by monkeypatching the cutoff via big n? —
        # instead compare both formulas on the same small instance
        rng = np.random.default_rng(2)
        Ys = random_instance(rng, 10, 2, 3)
        U = EmbeddingTensor(rng.random((2, 10, 3)), [0, 1])
        cfg = TrainConfig(k=3, lam=0.7, tau=1.3)
        dense = objective_value(Ys, U, cfg)
        total = 0.0
        for t, Y in enumerate(map(to_scipy, Ys)):
            Ut = U.slices[t]
            gram = Ut.T @ Ut
            coo = Y.tocoo()
            cross = float(np.sum(coo.data * np.sum(Ut[coo.row] * Ut[coo.col],
                                                   axis=1)))
            fit = float(Y.multiply(Y).sum()) - 2 * cross + float(np.sum(gram * gram))
            total += 0.5 * fit + 0.5 * cfg.lam * float(np.sum(Ut * Ut))
        total += 0.5 * cfg.tau * float(np.sum((U.slices[0] - U.slices[1]) ** 2))
        assert dense == pytest.approx(total, abs=1e-10)


class TestSplittingObjective:
    @staticmethod
    def dense_reference(Ys, U, W, cfg):
        total = 0.0
        for t, Y in enumerate(Ys):
            resid = to_scipy(Y).toarray() - U[t] @ W[t].T
            total += 0.5 * float(np.sum(resid * resid))
            total += 0.5 * cfg.gamma * float(np.sum((U[t] - W[t]) ** 2))
            total += 0.5 * cfg.lam * float(np.sum(U[t] ** 2) + np.sum(W[t] ** 2))
        for t in range(1, len(Ys)):
            total += 0.5 * cfg.tau * float(np.sum((U[t - 1] - U[t]) ** 2)
                                           + np.sum((W[t - 1] - W[t]) ** 2))
        return total

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, T, k = int(rng.integers(3, 60)), int(rng.integers(1, 4)), \
            int(rng.integers(1, 8))
        Ys = random_instance(rng, n, T, k, density=float(rng.random()))
        U, W = rng.normal(size=(2, T, n, k))
        cfg = TrainConfig(k=k, lam=float(rng.random() * 3),
                          tau=float(rng.random() * 3),
                          gamma=float(rng.random() * 3))
        assert splitting_objective(Ys, U, W, cfg) == pytest.approx(
            self.dense_reference(Ys, U, W, cfg), abs=1e-10)

    def test_memory_scales_with_nnz_not_n_squared(self):
        import tracemalloc

        n, T, k = 8000, 2, 10
        rng = np.random.default_rng(0)
        Ys = []
        for _ in range(T):
            R = sp.random(n, n, density=1e-3, random_state=rng, format="csr")
            Ys.append(from_scipy(R + R.T))
        U, W = rng.normal(size=(2, T, n, k))
        cfg = TrainConfig(k=k)
        tracemalloc.start()
        try:
            value = splitting_objective(Ys, U, W, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        # one dense n x n float64 slice would be 512 MB
        assert peak < 50 * 2 ** 20


class TestInit:
    def test_deterministic(self):
        a = init_embeddings(5, 3, 2, seed=7)
        b = init_embeddings(5, 3, 2, seed=7)
        assert np.array_equal(a, b)

    def test_slices_identical(self):
        U = init_embeddings(6, 4, 3, seed=1)
        assert np.array_equal(U[0], U[1])
        assert np.array_equal(U[1], U[2])

    def test_range(self):
        U = init_embeddings(50, 4, 1, seed=2)
        assert np.all(np.abs(U) <= 0.5 / 4)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            init_embeddings(0, 3, 1, seed=0)


class TestSolveSlice:
    def test_pure_ridge_shrinkage(self):
        rng = np.random.default_rng(3)
        W = rng.random((5, 2))
        Y = from_scipy(sp.csr_matrix(np.zeros((5, 5))))
        cfg = TrainConfig(k=2, lam=1.0, tau=0.0, gamma=0.0)
        out = solve_slice(0, Y, W, None, None, cfg)
        assert np.allclose(out, 0.0)

    def test_hand_algebra_k1(self):
        # n=2, k=1: U = (YW + gW) / (W'W + g + l + b*tau), b=0
        Y = from_scipy(sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]])))
        W = np.array([[1.0], [3.0]])
        cfg = TrainConfig(k=1, lam=0.5, tau=0.0, gamma=0.25)
        out = solve_slice(0, Y, W, None, None, cfg)
        denom = 10.0 + 0.25 + 0.5
        expected = (to_scipy(Y).toarray() @ W + 0.25 * W) / denom
        assert np.allclose(out, expected, atol=1e-12)

    def test_large_tau_averages_neighbors(self):
        rng = np.random.default_rng(4)
        Y = from_scipy(sp.csr_matrix(np.abs(rng.random((6, 6)))))
        W = rng.random((6, 2))
        up, un = rng.random((6, 2)), rng.random((6, 2))
        avg = (up + un) / 2.0
        prev = None
        for tau in (1.0, 10.0, 100.0, 1000.0):
            cfg = TrainConfig(k=2, lam=0.1, tau=tau, gamma=0.1)
            out = solve_slice(0, Y, W, up, un, cfg)
            resid = float(np.linalg.norm(out - avg))
            if prev is not None:
                assert resid <= prev + 1e-12
            prev = resid

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_positive_definite_solve(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(5, 60)), int(rng.integers(1, 12))
        Y = random_instance(rng, n, 1, k)[0]
        W = rng.normal(size=(n, k))
        up = rng.normal(size=(n, k)) if seed % 2 else None
        un = rng.normal(size=(n, k)) if seed % 3 else None
        cfg = TrainConfig(k=k, lam=float(rng.random()),
                          tau=float(rng.random() * 3),
                          gamma=float(rng.random() * 2))
        b = (up is not None) + (un is not None)
        A = W.T @ W + (cfg.gamma + cfg.lam + b * cfg.tau) * np.eye(k)
        B = to_scipy(Y) @ W + cfg.gamma * W
        for nb in (up, un):
            if nb is not None:
                B = B + cfg.tau * nb
        expected = scipy.linalg.solve(A, B.T, assume_a="pos").T
        got = solve_slice(0, Y, W, up, un, cfg)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("lam, message", [
        (1e308, "system of slice 3: array must not contain infs or NaNs"),
        (0.0, "singular system in slice 3; use a nonzero ridge weight lam"),
    ])
    def test_unsolvable_system_raises_solver_error(self, lam, message):
        # W of rank 1 < k: with no ridge weight A = W'W is singular
        W = np.outer(np.arange(1.0, 7.0), [1.0, 2.0, 3.0])
        Y = from_scipy(sp.csr_matrix(np.ones((6, 6))))
        cfg = TrainConfig(k=3, lam=lam, tau=0.0, gamma=lam)
        with pytest.raises(SolverError, match=f"^{message}$"):
            solve_slice(3, Y, W, None, None, cfg)


class TestTrain:
    def test_tau_zero_decouples_slices(self):
        rng = np.random.default_rng(5)
        Ys = random_instance(rng, 12, 3, 3)
        cfg = TrainConfig(k=3, lam=0.5, tau=0.0, sweeps=6, tol=0.0, seed=9)
        joint = train(Ys, cfg)
        for t in range(3):
            solo = train([Ys[t]], cfg)
            assert np.allclose(joint.slices[t], solo.slices[0], atol=1e-8)

    def test_determinism(self):
        rng = np.random.default_rng(6)
        Ys = random_instance(rng, 10, 2, 2)
        cfg = TrainConfig(k=2, lam=0.5, tau=0.5, sweeps=5, seed=3)
        assert np.array_equal(train(Ys, cfg).slices, train(Ys, cfg).slices)

    def test_years_attached(self):
        rng = np.random.default_rng(7)
        Ys = random_instance(rng, 6, 2, 2)
        U = train(Ys, TrainConfig(k=2, sweeps=2), years=[1999, 2000])
        assert U.years == [1999, 2000]

    def test_callback_sees_monotone_objective(self):
        rng = np.random.default_rng(8)
        Ys = random_instance(rng, 15, 3, 3)
        trace = []
        train(Ys, TrainConfig(k=3, lam=0.5, tau=1.0, sweeps=10, tol=0.0, seed=0),
              callback=lambda s, v: trace.append(v))
        assert len(trace) == 10
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1 + 1e-8)


class TestNeighbors:
    def test_self_excluded(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        U = EmbeddingTensor(X[None], [2000])
        vocab = make_vocab(["a", "b", "c"])
        out = nearest_neighbors(U, 0, "a", vocab, N=2)
        assert out[0] == ("b", pytest.approx(1.0))
        assert all(w != "a" for w, _ in out)

    def test_orthogonal_similarity_zero(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        U = EmbeddingTensor(X[None], [2000])
        vocab = make_vocab(["a", "b"])
        out = nearest_neighbors(U, 0, "a", vocab, N=1)
        assert out == [("b", pytest.approx(0.0, abs=1e-12))]

    def test_zero_norm_query_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        U = EmbeddingTensor(X[None], [2000])
        vocab = make_vocab(["z", "a"])
        with pytest.raises(ValueError, match="degenerate"):
            nearest_neighbors(U, 0, "z", vocab, N=1)

    def test_missing_word(self):
        U = EmbeddingTensor(np.ones((1, 1, 2)), [2000])
        with pytest.raises(KeyError):
            nearest_neighbors(U, 0, "nope", make_vocab(["a"]), N=1)

    def test_tie_breaks_by_word_id(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        U = EmbeddingTensor(X[None], [2000])
        vocab = make_vocab(["a", "b", "c"])
        out = nearest_neighbors(U, 0, "a", vocab, N=2)
        assert [w for w, _ in out] == ["b", "c"]

    def test_zero_rows_skipped(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
        sims = cosine_matrix_row(X, np.array([1.0, 0.0]))
        assert sims[1] == -np.inf
