import numpy as np
import pytest

from venturescape.atoms import (AtomConfig, UNASSIGNED, assign_words,
                                ksvd_train, kmeans_train, omp_code,
                                train_atoms)
from conftest import make_vocab
from oracles import atom_summary, match_atoms_greedy


class TestKsvd:
    def test_fixed_point_unit_vectors(self):
        # rows equal K orthonormal directions, s=1: error ~0, atoms recovered
        K = 6
        X = np.eye(K)
        d = ksvd_train(X, AtomConfig(K=K, sparsity=1, iterations=5, seed=0))
        assert d.error_trace[-1] == pytest.approx(0.0, abs=1e-20)
        pairs = match_atoms_greedy(X, d.atoms)
        assert all(c >= 1 - 1e-10 for _, _, c in pairs)

    def test_error_trace_monotone(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 8))
        d = ksvd_train(X, AtomConfig(K=10, sparsity=3, iterations=10, seed=2))
        for a, b in zip(d.error_trace, d.error_trace[1:]):
            assert b <= a * (1 + 1e-8)

    def test_atoms_unit_norm(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 6))
        d = ksvd_train(X, AtomConfig(K=8, sparsity=2, iterations=5, seed=0))
        assert np.allclose(np.linalg.norm(d.atoms, axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_atoms_point_toward_their_words(self, seed):
        """On ten planted clusters each atom points toward the words it
        encodes: every used atom's coefficients sum to >= 0, and the
        signed argmax assignment recovers the clusters. An SVD pair of the
        wrong sign sends an atom's own words to other atoms (purity
        0.55-0.70 on these seeds without the orientation)."""
        rng = np.random.default_rng(seed)
        C, per, k = 10, 20, 16
        centers = rng.normal(size=(C, k))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        labels = np.repeat(np.arange(C), per)
        X = (centers[labels] * rng.uniform(0.5, 1.5, size=(C * per, 1))
             + 0.15 * rng.normal(size=(C * per, k)))
        d = ksvd_train(X, AtomConfig(K=C, sparsity=1, iterations=10,
                                     seed=seed))
        used = np.unique(d.assignment)
        codes = np.array([omp_code(x, d.atoms, 1) for x in X])
        assert np.all(codes[:, used].sum(axis=0) >= 0)
        purity = sum(np.bincount(labels[d.assignment == a]).max()
                     for a in used) / len(labels)
        assert len(used) == C
        assert purity >= 0.85

    def test_k_exceeds_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            ksvd_train(np.ones((3, 2)), AtomConfig(K=5, sparsity=1))

    def test_non_finite_rejected(self):
        X = np.ones((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ksvd_train(X, AtomConfig(K=2, sparsity=1))


class TestKmeans:
    def test_separable_two_clusters(self):
        rng = np.random.default_rng(3)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        X = np.vstack([a + 0.01 * rng.normal(size=(10, 3)),
                       b + 0.01 * rng.normal(size=(10, 3))])
        d = kmeans_train(X, AtomConfig(K=2, sparsity=1, iterations=10,
                                       method="kmeans", seed=0))
        first, second = set(d.assignment[:10]), set(d.assignment[10:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_k_equals_n_zero_distortion(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 4))
        d = kmeans_train(X, AtomConfig(K=6, iterations=8, method="kmeans",
                                       seed=1))
        assert d.error_trace[-1] == pytest.approx(0.0, abs=1e-9)

    def test_distortion_monotone(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 5))
        d = kmeans_train(X, AtomConfig(K=6, iterations=12, method="kmeans",
                                       seed=2))
        for a, b in zip(d.error_trace, d.error_trace[1:]):
            assert b <= a * (1 + 1e-8)


class TestAssign:
    def test_exact_match_score_one(self):
        rng = np.random.default_rng(6)
        atoms = rng.normal(size=(10, 4))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        assignment, scores = assign_words(atoms, atoms[7:8] * 3.0)
        assert assignment[0] == 7
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_tie_lowest_atom_index(self):
        atoms = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0],
                          [0.0, 0.5], [-1.0, 0.0], [1.0, 0.0]])
        # word equidistant from atoms 1 and 5 (identical directions)
        assignment, _ = assign_words(atoms, np.array([[2.0, 0.0]]))
        assert assignment[0] == 1

    def test_zero_norm_word_unassigned(self):
        atoms = np.array([[1.0, 0.0]])
        assignment, scores = assign_words(atoms, np.array([[0.0, 0.0]]))
        assert assignment[0] == UNASSIGNED
        assert np.isnan(scores[0])

    def test_brute_force_argmax_oracle(self):
        rng = np.random.default_rng(7)
        atoms = rng.normal(size=(12, 5))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        X = rng.normal(size=(50, 5))
        assignment, scores = assign_words(atoms, X)
        for i in range(50):
            sims = [float(X[i] @ atoms[a]) / np.linalg.norm(X[i])
                    for a in range(12)]
            assert assignment[i] == int(np.argmax(sims))
            assert scores[i] == pytest.approx(max(sims), abs=1e-12)

    def test_partition_covers_vocabulary(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 4))
        d = train_atoms(X, AtomConfig(K=5, sparsity=2, iterations=4, seed=0))
        assert d.assignment.shape == (30,)
        assert np.all(d.assignment >= 0)


class TestOmp:
    def test_exact_sparse_recovery(self):
        rng = np.random.default_rng(9)
        atoms = rng.normal(size=(8, 8))
        atoms /= np.linalg.norm(atoms, axis=1, keepdims=True)
        x = 2.0 * atoms[3]
        code = omp_code(x, atoms, s=1)
        assert np.allclose(code @ atoms, x, atol=1e-10)

    def test_zero_input(self):
        atoms = np.eye(3)
        assert np.allclose(omp_code(np.zeros(3), atoms, 2), 0.0)


class TestSummary:
    def test_truncation(self):
        atoms = np.eye(2)
        X = np.array([[1.0, 0.1], [1.0, 0.2], [0.9, 0.0], [0.0, 1.0]])
        d = train_atoms(np.eye(2), AtomConfig(K=2, sparsity=1, iterations=2,
                                              seed=0))
        d.assignment, d.scores = assign_words(d.atoms, X)
        vocab = make_vocab(["a", "b", "c", "d"])
        summary = atom_summary(d, vocab, top_m=5)
        sizes = sorted(len(v) for v in summary.values())
        assert sizes == [1, 3]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AtomConfig(K=3, sparsity=5)
        with pytest.raises(ValueError):
            AtomConfig(method="other")
