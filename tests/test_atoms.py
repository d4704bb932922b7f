import numpy as np
import pytest

from venturescape.atoms import (UNASSIGNED, _rank1, assign_words,
                                ksvd_train, kmeans_train, omp_code,
                                train_atoms)
from venturescape.config import AtomConfig
from conftest import make_vocab
from oracles import (atom_summary, ksvd_reference, match_atoms_greedy,
                     omp_reference, unit_rows)


def planted_clusters(seed, C=10, per=20, k=16):
    """C unit directions, per words around each at random lengths."""
    rng = np.random.default_rng(seed)
    centers = unit_rows(rng.normal(size=(C, k)))
    labels = np.repeat(np.arange(C), per)
    X = (centers[labels] * rng.uniform(0.5, 1.5, size=(C * per, 1))
         + 0.15 * rng.normal(size=(C * per, k)))
    return X, labels


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
        C = 10
        X, labels = planted_clusters(seed, C=C)
        d = ksvd_train(X, AtomConfig(K=C, sparsity=1, iterations=10,
                                     seed=seed))
        used = np.unique(d.assignment)
        codes = omp_code(X, d.atoms, 1)
        assert np.all(codes[:, used].sum(axis=0) >= 0)
        purity = sum(np.bincount(labels[d.assignment == a]).max()
                     for a in used) / len(labels)
        assert len(used) == C
        assert purity >= 0.85

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("K, sparsity, per, copies",
                             [(12, 3, 20, 1), (16, 1, 4, 5)],
                             ids=["distinct", "copies"])
    def test_matches_per_word_reference(self, seed, K, sparsity, per,
                                        copies):
        """Block coding and the in-place residual give the per-word loop's
        assignment, atoms and error trace. With every word vector held by
        five words, atoms seeded on copies of one vector go unused, so dead
        atoms are reseeded."""
        X = np.repeat(planted_clusters(seed, per=per)[0], copies, axis=0)
        cfg = AtomConfig(K=K, sparsity=sparsity, iterations=8, seed=seed)
        d, ref = ksvd_train(X, cfg), ksvd_reference(X, cfg)
        assert np.array_equal(d.assignment, ref.assignment)
        assert np.abs(d.atoms - ref.atoms).max() <= 1e-12
        trace, ref_trace = np.array(d.error_trace), np.array(ref.error_trace)
        assert np.all(np.abs(trace - ref_trace) <= 1e-12 * ref_trace)
        assert np.all(np.diff(trace) <= 1e-12 * trace[:-1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("users, k", [(4, 12), (30, 8), (1, 6)],
                             ids=["fewer_users", "more_users", "one_user"])
    def test_rank1_update_matches_svd_triple(self, seed, users, k):
        """The atom and codes from the smaller Gram matrix equal the SVD's
        leading triple (u, sigma v), oriented so that the codes sum to
        >= 0."""
        E = np.random.default_rng(seed).normal(size=(users, k))
        Uv, sv, Vt = np.linalg.svd(E.T, full_matrices=False)
        sign = 1.0 if Vt[0].sum() >= 0 else -1.0
        atom, codes = _rank1(E, np.zeros(k))
        assert np.abs(atom - sign * Uv[:, 0]).max() <= 1e-12
        assert np.abs(codes - sign * sv[0] * Vt[0]).max() <= 1e-12 * sv[0]
        assert codes.sum() >= 0

    def test_rank1_update_of_zero_residual_keeps_atom(self):
        atom = unit_rows(np.ones((1, 5)))[0]
        for users in (2, 9):
            new, codes = _rank1(np.zeros((users, 5)), atom)
            assert np.array_equal(new, atom)
            assert np.array_equal(codes, np.zeros(users))

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
        code = omp_code(x[None], atoms, s=1)[0]
        assert np.allclose(code @ atoms, x, atol=1e-10)

    def test_zero_input(self):
        atoms = np.eye(3)
        assert np.allclose(omp_code(np.zeros((1, 3)), atoms, 2), 0.0)

    @staticmethod
    def assert_matches_reference(X, atoms, s, codes=None):
        """Row by row, the codes of X (omp_code's by default) have the
        per-word coder's support, and its coefficients within 1e-12 of the
        row's largest."""
        if codes is None:
            codes = omp_code(X, atoms, s)
        assert codes.shape == (X.shape[0], atoms.shape[0])
        for x, code in zip(X, codes):
            ref = omp_reference(x, atoms, s)
            assert np.array_equal(code != 0, ref != 0)
            assert np.abs(code - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_overcomplete_dictionary(self, seed):
        rng = np.random.default_rng(seed)
        atoms = unit_rows(rng.normal(size=(40, 12)))
        self.assert_matches_reference(rng.normal(size=(300, 12)), atoms, 5)

    def test_zero_row_and_scaled_atom(self):
        # the zero row takes no step; 2x atom 7 stops after one step
        rng = np.random.default_rng(10)
        atoms = unit_rows(rng.normal(size=(20, 8)))
        X = np.vstack([rng.normal(size=(3, 8)), np.zeros(8), 2.0 * atoms[7]])
        self.assert_matches_reference(X, atoms, 4)
        assert np.flatnonzero(omp_code(X[4:], atoms, 4)[0]).tolist() == [7]

    def test_sparsity_above_dimension(self):
        # s=6 > k=4: every row stops once its residual vanishes
        rng = np.random.default_rng(11)
        atoms = unit_rows(rng.normal(size=(12, 4)))
        self.assert_matches_reference(rng.normal(size=(30, 4)), atoms, 6)

    def test_duplicated_atom(self):
        rng = np.random.default_rng(12)
        atoms = unit_rows(rng.normal(size=(15, 8)))
        atoms[9] = atoms[4]
        X = np.vstack([rng.normal(size=(30, 8)), 1.5 * atoms[4]])
        self.assert_matches_reference(X, atoms, 4)

    def test_rows_stop_at_different_steps(self):
        # exact 1-, 2- and 3-sparse rows and dense rows in one block
        rng = np.random.default_rng(13)
        atoms = unit_rows(rng.normal(size=(30, 10)))
        sparse = [rng.normal(size=j) @ atoms[rng.choice(30, j, replace=False)]
                  for j in (1, 2, 3) for _ in range(4)]
        X = np.vstack([*sparse, rng.normal(size=(4, 10))])
        codes = omp_code(X, atoms, 5)
        assert sorted(set(np.count_nonzero(codes, axis=1))) == [1, 2, 3, 5]
        self.assert_matches_reference(X, atoms, 5)

    def test_rank_deficient_support_falls_back_to_least_squares(self):
        """Rows scaled by 1e6 keep residuals above the stopping threshold
        after k=4 steps, so later supports of s=6 > k atoms are dependent and
        their Gram blocks singular. Those rows take the least-squares
        solution over their support instead of failing; ordinary rows in the
        same block still match the per-word coder."""
        rng = np.random.default_rng(14)
        atoms = unit_rows(rng.normal(size=(8, 4)))
        scaled = 1e6 * rng.normal(size=(20, 4))
        ordinary = np.vstack([2.0 * atoms[5], atoms[1] - 0.5 * atoms[6]])
        X = np.vstack([scaled, ordinary])
        codes = omp_code(X, atoms, 6)
        assert np.all(np.isfinite(codes))
        assert np.count_nonzero(codes, axis=1).max() <= 6
        for x, code in zip(scaled, codes):
            support = np.flatnonzero(code)
            ls = np.linalg.lstsq(atoms[support].T, x, rcond=None)[0]
            assert np.abs(code[support] - ls).max() <= 1e-12 * np.abs(ls).max()
            ref = omp_reference(x, atoms, 6)
            assert (np.sum((x - code @ atoms) ** 2)
                    <= np.sum((x - ref @ atoms) ** 2) + 1e-12 * (x @ x))
        self.assert_matches_reference(ordinary, atoms, 6, codes[20:])


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
