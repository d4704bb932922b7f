import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from venturescape.measures import (APPLICATION, FLAG_EMPTY_PAIR_POOL,
                                   FLAG_NO_VALID_TOKENS, FLAG_SINGLE_ATOM,
                                   FLAG_SINGLE_MODULE, FLAG_ZERO_CENTROID,
                                   LexiconSet, TECHNOLOGY, centroid_spread,
                                   classify_tech_app, cosine_distance,
                                   description_centroid, element_familiarity,
                                   global_distance, local_distance,
                                   negentropy_balance,
                                   tech_app_local_distance, text_controls)
from venturescape.corpus import Vocabulary
from conftest import make_atoms, make_space, view_of


def lexicon(tech_terms=(), general=None, patent=None):
    return LexiconSet(tech_terms=frozenset(tech_terms),
                      general_freq=general or {}, patent_freq=patent or {})


@pytest.fixture()
def simple_space():
    """Six words in two orthogonal planes, two atoms."""
    X = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.9, 0.1, 0.0, 0.0],
        [0.8, 0.0, 0.1, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.1, 0.9, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    vocab, U = make_space(X, ["a1", "a2", "a3", "b1", "b2", "lone"])
    atoms = make_atoms(np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0],
                                 [0, 0, 0, 1.0]]), X)
    return vocab, U, atoms


class TestCentroid:
    def test_singleton(self, simple_space):
        vocab, U, _ = simple_space
        c, n, flags = description_centroid(["a1"], vocab, U, 0)
        assert np.allclose(c, U.slices[0][0])
        assert n == 1 and not flags

    def test_cancellation_flagged(self):
        vocab, U = make_space(np.array([[1.0, 0.0], [-1.0, 0.0]]), ["p", "m"])
        c, n, flags = description_centroid(["p", "m"], vocab, U, 0)
        assert np.allclose(c, 0.0)
        assert FLAG_ZERO_CENTROID in flags

    def test_no_valid_tokens(self, simple_space):
        vocab, U, _ = simple_space
        c, n, flags = description_centroid(["zzz"], vocab, U, 0)
        assert n == 0 and FLAG_NO_VALID_TOKENS in flags

    def test_duplicates_count(self, simple_space):
        vocab, U, _ = simple_space
        c, n, _ = description_centroid(["a1", "a1", "b1"], vocab, U, 0)
        expected = (2 * U.slices[0][0] + U.slices[0][3]) / 3.0
        assert np.allclose(c, expected, atol=1e-12)
        assert n == 3

    def test_brute_force_mean(self, simple_space):
        vocab, U, _ = simple_space
        toks = ["a1", "a2", "a3", "b1", "b2"]
        c, n, _ = description_centroid(toks, vocab, U, 0)
        assert np.allclose(c, U.slices[0][:5].mean(axis=0), atol=1e-12)


class TestLocalDistance:
    def test_identical_vectors_zero(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        vocab, U = make_space(X, ["x", "y", "z"])
        atoms = make_atoms(np.array([[1.0, 0.0]]), X)
        val, flags = local_distance(view_of(["x", "y", "z"], vocab, U, 0,
                                            atoms))
        assert val == pytest.approx(0.0, abs=1e-12) and not flags

    def test_singleton_atoms_degenerate(self, simple_space):
        vocab, U, atoms = simple_space
        val, flags = local_distance(view_of(["a1", "b1", "lone"], vocab, U, 0,
                                            atoms))
        assert val == 0.0 and FLAG_EMPTY_PAIR_POOL in flags

    def test_three_word_pairwise_oracle(self, simple_space):
        vocab, U, atoms = simple_space
        toks = ["a1", "a2", "a3"]
        val, flags = local_distance(view_of(toks, vocab, U, 0, atoms))
        X = U.slices[0]
        expected = np.mean([cosine_distance(X[i], X[j])
                            for i, j in combinations(range(3), 2)])
        assert val == pytest.approx(expected, abs=1e-10) and not flags

    def test_distinct_words_only(self, simple_space):
        vocab, U, atoms = simple_space
        a, _ = local_distance(view_of(["a1", "a2"], vocab, U, 0, atoms))
        b, _ = local_distance(view_of(["a1", "a1", "a2", "a2"], vocab, U, 0,
                                      atoms))
        assert a == b


class TestGlobalDistance:
    def test_single_atom_flagged(self, simple_space):
        vocab, U, atoms = simple_space
        val, flags = global_distance(view_of(["a1", "a2"], vocab, U, 0, atoms))
        assert val == 0.0 and FLAG_SINGLE_MODULE in flags

    def test_orthogonal_centroids_one(self):
        X = np.array([[1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 1.0, 0]])
        vocab, U = make_space(X, ["a", "b", "c", "d"])
        atoms = make_atoms(np.array([[1.0, 0, 0], [0, 1.0, 0]]), X)
        val, flags = global_distance(view_of(["a", "b", "c", "d"], vocab, U, 0,
                                             atoms))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_three_atom_oracle(self, clustered_space):
        vocab, U, atoms = clustered_space
        toks = [f"c00w{j}" for j in range(2)] + [f"c01w{j}" for j in range(2)] \
            + [f"c02w{j}" for j in range(2)]
        val, flags = global_distance(view_of(toks, vocab, U, 0, atoms))
        X = U.slices[0]
        norm = lambda M: M / np.linalg.norm(M, axis=1, keepdims=True)
        ids = [vocab.token_to_id[t] for t in toks]
        cents = [norm(X[ids[i:i + 2]]).mean(axis=0) for i in (0, 2, 4)]
        expected = np.mean([cosine_distance(a, b)
                            for a, b in combinations(cents, 2)])
        assert val == pytest.approx(expected, abs=1e-10) and not flags


class TestTechApp:
    def test_dictionary_rule(self):
        lex = lexicon(tech_terms={"cephalosporin"})
        labels = classify_tech_app(["cephalosporin", "customer"], lex, 5.0)
        assert labels["cephalosporin"] == TECHNOLOGY
        assert labels["customer"] == APPLICATION

    def test_frequency_ratio(self):
        lex = lexicon(general={"gadget": 10, "filler": 990},
                      patent={"gadget": 100, "filler": 900})
        # relative ratio = (100/1000)/(10/1000) = 10 > 5
        labels = classify_tech_app(["gadget"], lex, freq_ratio_threshold=5.0)
        assert labels["gadget"] == TECHNOLOGY

    def test_ratio_below_threshold(self):
        lex = lexicon(general={"customer": 500, "x": 500},
                      patent={"customer": 20, "x": 980})
        labels = classify_tech_app(["customer"], lex, 5.0)
        assert labels["customer"] == APPLICATION

    def test_absent_from_tables_dictionary_only(self):
        labels = classify_tech_app(["mystery"], lexicon(), 5.0)
        assert labels["mystery"] == APPLICATION

    def test_cross_pair_distance_identical_zero(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        vocab, U = make_space(X, ["tech", "app"])
        atoms = make_atoms(np.array([[1.0, 0.0]]), X)
        labels = {"tech": TECHNOLOGY, "app": APPLICATION}
        view = view_of(["tech", "app"], vocab, U, 0, atoms)
        val, flags = tech_app_local_distance(view, labels, vocab)
        assert val == pytest.approx(0.0, abs=1e-12) and not flags

    def test_tech_only_contributes_nothing(self, simple_space):
        vocab, U, atoms = simple_space
        labels = {"a1": TECHNOLOGY, "a2": TECHNOLOGY}
        view = view_of(["a1", "a2"], vocab, U, 0, atoms)
        val, flags = tech_app_local_distance(view, labels, vocab)
        assert val == 0.0 and flags

    def test_mixed_cross_pair_oracle(self, simple_space):
        vocab, U, atoms = simple_space
        labels = {"a1": TECHNOLOGY, "a2": APPLICATION, "a3": APPLICATION}
        view = view_of(["a1", "a2", "a3"], vocab, U, 0, atoms)
        val, _ = tech_app_local_distance(view, labels, vocab)
        X = U.slices[0]
        expected = np.mean([cosine_distance(X[0], X[1]),
                            cosine_distance(X[0], X[2])])
        assert val == pytest.approx(expected, abs=1e-10)


class TestCentroidSpread:
    def test_identical_members_zero(self):
        X = np.array([[2.0, 0.0], [2.0, 0.0]])
        vocab, U = make_space(X, ["a", "b"])
        atoms = make_atoms(np.array([[1.0, 0.0]]), X)
        val, flags = centroid_spread(view_of(["a", "b"], vocab, U, 0, atoms))
        assert val == pytest.approx(0.0, abs=1e-12) and not flags

    def test_antipodal_zero_centroid_skipped(self):
        X = np.array([[1.0, 0.001], [-1.0, -0.001]])
        vocab, U = make_space(X, ["a", "b"])
        atoms = make_atoms(np.array([[1.0, 0.001]]), X)
        # force both into atom 0 despite opposite signs
        atoms.assignment[:] = 0
        val, flags = centroid_spread(view_of(["a", "b"], vocab, U, 0, atoms))
        assert val == 0.0
        assert FLAG_ZERO_CENTROID in flags and FLAG_EMPTY_PAIR_POOL in flags

    def test_three_member_oracle(self, simple_space):
        vocab, U, atoms = simple_space
        val, _ = centroid_spread(view_of(["a1", "a2", "a3"], vocab, U, 0,
                                         atoms))
        X = U.slices[0][:3]
        c = (X / np.linalg.norm(X, axis=1, keepdims=True)).mean(axis=0)
        expected = np.mean([cosine_distance(x, c) for x in X])
        assert val == pytest.approx(expected, abs=1e-10)


class TestNegentropy:
    def test_uniform_two_atoms(self, simple_space):
        vocab, U, atoms = simple_space
        val, flags = negentropy_balance(
            view_of(["a1", "a2", "b1", "b2"], vocab, U, 0, atoms))
        assert val == pytest.approx(-1.0, abs=1e-12) and not flags

    def test_single_atom_convention(self, simple_space):
        vocab, U, atoms = simple_space
        val, flags = negentropy_balance(view_of(["a1", "a2"], vocab, U, 0,
                                                atoms))
        assert val == 0.0 and FLAG_SINGLE_ATOM in flags

    def test_three_one_split(self, simple_space):
        vocab, U, atoms = simple_space
        val, _ = negentropy_balance(
            view_of(["a1", "a2", "a3", "b1"], vocab, U, 0, atoms))
        expected = (0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
        assert val == pytest.approx(expected, abs=1e-4)
        assert val == pytest.approx(-0.8113, abs=1e-4)

    def test_no_valid_tokens(self, simple_space):
        vocab, U, atoms = simple_space
        val, flags = negentropy_balance(view_of(["zzz"], vocab, U, 0, atoms))
        assert val == 0.0 and FLAG_NO_VALID_TOKENS in flags


class TestFamiliarity:
    YEARS = range(3)  # slice s starts in year s

    def _vocab(self):
        counts = np.array([[0.0, 5.0],
                           [math.e - 1, 0.0],
                           [0.0, 0.0]])  # T=3 slices, 2 words
        return Vocabulary(id_to_token=["u", "v"], slice_counts=counts,
                          slice_totals=counts.sum(axis=1))

    def test_unseen_contributes_zero(self):
        vocab = self._vocab()
        labels = {"v": TECHNOLOGY}
        # slice 1 lookback covers slice 0 only; v has count 5 there... use u
        val, dummy = element_familiarity(["u"], {"u": TECHNOLOGY}, vocab, 1,
                                         lookback_years=1, years=self.YEARS)
        assert val == pytest.approx(math.log1p(0.0)) and dummy == 0

    def test_log_one_plus(self):
        vocab = self._vocab()
        val, dummy = element_familiarity(["u"], {"u": TECHNOLOGY}, vocab, 2,
                                         lookback_years=1, years=self.YEARS)
        assert val == pytest.approx(1.0, abs=1e-12)  # ln(1 + (e-1))

    def test_no_tech_dummy(self):
        vocab = self._vocab()
        val, dummy = element_familiarity(["u"], {"u": APPLICATION}, vocab, 1,
                                         5, self.YEARS)
        assert val == 0.0 and dummy == 1

    def test_lookback_counts_years(self):
        vocab = self._vocab()
        labels = {"u": TECHNOLOGY, "v": TECHNOLOGY}
        # one-year slices: the same window as counting slices
        assert element_familiarity(["u", "v"], labels, vocab, 2, 1,
                                   years=[2014, 2015, 2016]) == \
            element_familiarity(["u", "v"], labels, vocab, 2, 1, self.YEARS)
        # two-year slices: one year back from 2018 reaches no slice
        val, _ = element_familiarity(["u", "v"], labels, vocab, 2, 1,
                                     years=[2014, 2016, 2018])
        assert val == 0.0

    def test_counting_oracle(self):
        vocab = self._vocab()
        labels = {"u": TECHNOLOGY, "v": TECHNOLOGY}
        val, _ = element_familiarity(["u", "v"], labels, vocab, 2,
                                     lookback_years=2, years=self.YEARS)
        expected = np.mean([math.log1p(math.e - 1), math.log1p(5.0)])
        assert val == pytest.approx(expected, abs=1e-12)


class TestTextControls:
    """text_controls gives the length and rare-word dummy; the no-tech dummy
    is element_familiarity's."""

    def controls(self, tokens, vocab, U, labels):
        length, rare = text_controls(tokens, vocab, vocab.rare_threshold(0.01))
        _, no_tech = element_familiarity(tokens, labels, vocab, 0, 5, U.years)
        return length, rare, no_tech

    def test_common_and_technical(self, clustered_space):
        vocab, U, atoms = clustered_space
        labels = {"c00w0": TECHNOLOGY, "c00w1": APPLICATION}
        out = self.controls(["c00w0", "c00w1"], vocab, U, labels)
        assert out == (2, 0, 0)

    def test_empty_description(self, clustered_space):
        vocab, U, atoms = clustered_space
        assert self.controls([], vocab, U, {}) == (0, 1, 1)

    def test_out_of_vocab_is_rare(self, clustered_space):
        vocab, U, atoms = clustered_space
        length, rare, no_tech = self.controls(["qqq"], vocab, U, {})
        assert (length, rare, no_tech) == (1, 1, 1)


class TestProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 6))
        words = [f"w{i}" for i in range(20)]
        vocab, U = make_space(X, words)
        centers = rng.normal(size=(4, 6))
        atoms = make_atoms(centers, X)
        toks = list(rng.choice(words, size=8, replace=False))
        labels = {t: (TECHNOLOGY if i % 2 else APPLICATION)
                  for i, t in enumerate(toks)}

        scale = rng.uniform(0.1, 10.0, size=(20, 1))
        vocab2, U2 = make_space(X * scale, words)
        atoms2 = make_atoms(centers, X * scale)

        assert np.array_equal(atoms.assignment, atoms2.assignment)
        for fn in (local_distance, global_distance, centroid_spread):
            a, _ = fn(view_of(toks, vocab, U, 0, atoms))
            b, _ = fn(view_of(toks, vocab2, U2, 0, atoms2))
            assert b == pytest.approx(a, abs=1e-10)
        a, _ = tech_app_local_distance(view_of(toks, vocab, U, 0, atoms),
                                       labels, vocab)
        b, _ = tech_app_local_distance(view_of(toks, vocab2, U2, 0, atoms2),
                                       labels, vocab2)
        assert b == pytest.approx(a, abs=1e-10)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance_and_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(15, 5))
        words = [f"w{i}" for i in range(15)]
        vocab, U = make_space(X, words)
        atoms = make_atoms(rng.normal(size=(3, 5)), X)
        toks = list(rng.choice(words, size=7, replace=False))
        perm = list(rng.permutation(toks))
        for fn in (local_distance, global_distance, centroid_spread):
            a, _ = fn(view_of(toks, vocab, U, 0, atoms))
            b, _ = fn(view_of(perm, vocab, U, 0, atoms))
            assert a == b
            assert 0.0 <= a <= 2.0
        n, _ = negentropy_balance(view_of(toks, vocab, U, 0, atoms))
        assert -1.0 <= n <= 0.0
        assert negentropy_balance(view_of(perm, vocab, U, 0, atoms))[0] == n
