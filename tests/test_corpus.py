import math
import random
import unicodedata

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from venturescape.config import SliceSpec, TokenRules
from venturescape.corpus import (DocumentRecord, EmptyVocabularyError,
                                 build_ppmi, build_vocab, count_cooccurrence,
                                 read_documents, symmetric_csr, tokenize)
from oracles import pair, pair_counts, to_scipy, upper_matrix

RULES = TokenRules()
ONE_SLICE = SliceSpec(2000, 2000)


def doc(text, year=2000, source="other", id="d"):
    return DocumentRecord(id=id, year=year, source=source, text=text)


class TestTokenize:
    def test_punct_and_stopwords(self):
        rules = TokenRules(stopwords=frozenset({"the"}))
        assert tokenize("The Telescope, 1608!", rules) == \
            ["telescope", "1608"]

    def test_number_stripping(self):
        rules = TokenRules(stopwords=frozenset({"the"}), strip_numbers=True)
        assert tokenize("The Telescope, 1608!", rules) == ["telescope"]

    def test_empty_input(self):
        assert tokenize("", RULES) == []

    def test_bigram_joining(self):
        rules = TokenRules(bigrams=(("real", "estate"),))
        assert tokenize("big real estate deal", rules) == \
            ["big", "real_estate", "deal"]

    def test_min_token_len(self):
        rules = TokenRules(min_token_len=3)
        assert tokenize("a an the cat", rules) == ["the", "cat"]

    def test_golden_fixture_document(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        assert tokenize(docs[3].text, RULES) == [
            "checkout", "delivery", "shop", "retail", "basket", "payment",
            "discount", "retail", "checkout", "checkout"]

    @given(words=st.lists(st.one_of(
               st.sampled_from(["a", "b", "A", "a_b", "a,", "b!", "(a)", "-"]),
               st.text(max_size=4)), max_size=12),
           stopwords=st.frozensets(st.sampled_from(["a", "b", "a_b", "ab"])),
           lowercase=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_strip_punct_leaves_no_punctuation_or_stopword(
            self, words, stopwords, lowercase):
        rules = TokenRules(lowercase=lowercase, stopwords=stopwords,
                           bigrams=(("a", "b"),))
        tokens = tokenize(" ".join(words), rules)
        # "_" is a word character: bigrams are joined with it
        assert not [ch for tok in tokens for ch in tok
                    if ch != "_" and unicodedata.category(ch)[0] == "P"]
        assert not stopwords & set(tokens)


class TestBuildVocab:
    def test_min_count_threshold(self):
        docs = [doc("alpha alpha alpha alpha alpha beta")]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=2)
        assert vocab.id_to_token == ["alpha"]

    def test_min_count_one_keeps_all(self):
        docs = [doc("alpha beta gamma")]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        assert set(vocab.id_to_token) == {"alpha", "beta", "gamma"}

    def test_ids_by_frequency_then_lexicographic(self):
        docs = [doc("b b b a a c c")]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        assert vocab.id_to_token == ["b", "a", "c"]

    def test_empty_vocabulary_error(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocab([doc("a b c")], RULES, ONE_SLICE, min_count=5)

    def test_per_slice_retention(self):
        # reaches min_count in one slice only: still retained
        docs = [doc("x x x y", year=2000), doc("y", year=2001)]
        vocab = build_vocab(docs, RULES, SliceSpec(2000, 2001), min_count=3)
        assert vocab.id_to_token == ["x"]

    def test_golden_fixture_vocab(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        vocab = build_vocab(docs, RULES, SliceSpec(2014, 2016), min_count=3)
        assert len(vocab) == 21
        assert vocab.id_to_token[0] == "solar"


class TestCooccurrence:
    def test_smallest_case(self):
        vocab = build_vocab([doc("a b")], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([doc("a b")], vocab, RULES, ONE_SLICE,
                                window=1)[0]
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert pair(cc, a, b) == 1.0
        assert cc.marginals[a] == 1.0 and cc.marginals[b] == 1.0
        assert cc.total_mass == 2.0

    def test_source_weight_linearity(self):
        d = doc("a b", source="patent")
        vocab = build_vocab([d], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([d], vocab, RULES, ONE_SLICE, window=1,
                                source_weights={"patent": 2.0})[0]
        assert pair(cc, vocab.token_to_id["a"], vocab.token_to_id["b"]) == 2.0
        assert cc.total_mass == 4.0

    def test_window_two_pairs(self):
        d = doc("a b c")
        vocab = build_vocab([d], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([d], vocab, RULES, ONE_SLICE, window=2)[0]
        ids = {w: vocab.token_to_id[w] for w in "abc"}
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert pair(cc, ids[x], ids[y]) == 1.0

    def test_self_pairs_excluded(self):
        d = doc("a a a")
        vocab = build_vocab([d], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([d], vocab, RULES, ONE_SLICE, window=2)[0]
        assert pair_counts(cc) == {}

    def test_out_of_range_doc_skipped(self):
        docs = [doc("a b"), doc("a b", year=1990)]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence(docs, vocab, RULES, ONE_SLICE, window=1)[0]
        assert cc.total_mass == 2.0

    def test_naive_double_loop_oracle(self):
        rng = random.Random(0)
        alphabet = list("abcdefgh")
        docs = [doc(" ".join(rng.choices(alphabet, k=rng.randint(2, 15))),
                    id=str(i)) for i in range(30)]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        window = 3
        cc = count_cooccurrence(docs, vocab, RULES, ONE_SLICE, window)[0]

        expected = {}
        for d in docs:
            ids = [vocab.token_to_id[t] for t in tokenize(d.text, RULES)]
            for p in range(len(ids)):
                for q in range(p + 1, min(p + window, len(ids) - 1) + 1):
                    i, j = ids[p], ids[q]
                    if i == j:
                        continue
                    key = (min(i, j), max(i, j))
                    expected[key] = expected.get(key, 0.0) + 1.0
        assert pair_counts(cc) == expected


class TestPpmi:
    def test_hand_formula(self):
        # one doc "a b a b": window 1 gives #(a,b)=3 ... build directly instead
        d = doc("a b")
        vocab = build_vocab([d], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([d] * 2, vocab, RULES, ONE_SLICE, window=1)[0]
        # #(a,b)=2, marginals 2 and 2, D=4 -> PMI = ln(2*4/(2*2)) = ln 2
        ppmi = build_ppmi(cc)
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        assert to_scipy(ppmi.matrix)[a, b] == pytest.approx(math.log(2),
                                                            abs=1e-12)

    def test_structural_zero(self):
        docs = [doc("a b"), doc("c d")]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence(docs, vocab, RULES, ONE_SLICE, window=1)[0]
        ppmi = build_ppmi(cc)
        a, c = vocab.token_to_id["a"], vocab.token_to_id["c"]
        assert to_scipy(ppmi.matrix)[a, c] == 0.0

    def test_shift_clipping(self):
        d = doc("a b")
        vocab = build_vocab([d], RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence([d] * 2, vocab, RULES, ONE_SLICE, window=1)[0]
        ppmi = build_ppmi(cc, shift=math.e)  # PMI=ln2 < 1 -> clipped
        assert ppmi.matrix.nnz == 0

    def test_symmetry_and_nonnegativity(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        vocab = build_vocab(docs, RULES, SliceSpec(2014, 2016), min_count=3)
        for cc in count_cooccurrence(docs, vocab, RULES, SliceSpec(2014, 2016)):
            Y = to_scipy(build_ppmi(cc).matrix)
            assert (Y != Y.T).nnz == 0
            assert Y.min() >= 0.0 if Y.nnz else True

    @given(scale=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_weight_scale_invariance(self, scale):
        docs = [doc("a b c a", source="news"), doc("b c d", source="patent")]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        base = {"news": 1.0, "patent": 2.0, "other": 1.0}
        scaled = {k: v * scale for k, v in base.items()}
        y1 = to_scipy(build_ppmi(count_cooccurrence(
            docs, vocab, RULES, ONE_SLICE, 2, base)[0]).matrix).toarray()
        y2 = to_scipy(build_ppmi(count_cooccurrence(
            docs, vocab, RULES, ONE_SLICE, 2, scaled)[0]).matrix).toarray()
        assert np.allclose(y1, y2, atol=1e-12)

    def test_determinism(self, fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        vocab = build_vocab(docs, RULES, SliceSpec(2014, 2016), min_count=3)
        a = count_cooccurrence(docs, vocab, RULES, SliceSpec(2014, 2016))
        b = count_cooccurrence(docs, vocab, RULES, SliceSpec(2014, 2016))
        for ca, cb in zip(a, b):
            assert pair_counts(ca) == pair_counts(cb)


def naive_counts(docs, vocab, slices, window, weights):
    """Reference: per-document double loop into {(t, i, j): weight}."""
    expected = {}
    for d in docs:
        t = slices.index(d.year)
        if t is None:
            continue
        ids = [vocab.token_to_id[tok] for tok in tokenize(d.text, RULES)
               if tok in vocab.token_to_id]
        for p in range(len(ids)):
            for q in range(p + 1, min(p + window, len(ids) - 1) + 1):
                i, j = ids[p], ids[q]
                if i != j:
                    key = (t, min(i, j), max(i, j))
                    expected[key] = expected.get(key, 0.0) + weights[d.source]
    return expected


def random_corpus(seed, slices, n_docs=40):
    rng = random.Random(seed)
    alphabet = list("abcdefghij") + ["rare1", "rare2"]
    years = range(slices.year_min - 1, slices.year_max + 2)
    return [doc(" ".join(rng.choices(alphabet, k=rng.randint(0, 18))),
                year=rng.choice(years), id=str(i),
                source=rng.choice(("news", "patent", "other")))
            for i in range(n_docs)]


class TestVectorizedKernels:
    SLICES = SliceSpec(2000, 2002)

    def counts_as_dict(self, ccs):
        return {(cc.t, i, j): v for cc in ccs
                for (i, j), v in pair_counts(cc).items()}

    @pytest.mark.parametrize("window", [1, 2, 5, 30])
    def test_counts_match_naive_loop_integer_weights(self, window):
        docs = random_corpus(window, self.SLICES)
        vocab = build_vocab(docs, RULES, self.SLICES, min_count=3)
        weights = {"news": 1.0, "patent": 2.0, "other": 3.0}
        ccs = count_cooccurrence(docs, vocab, RULES, self.SLICES, window,
                                 weights)
        expected = naive_counts(docs, vocab, self.SLICES, window, weights)
        assert self.counts_as_dict(ccs) == expected
        for cc in ccs:
            marg = np.zeros(len(vocab))
            for (t, i, j), v in expected.items():
                if t == cc.t:
                    marg[i] += v
                    marg[j] += v
            assert np.array_equal(cc.marginals, marg)
            assert cc.total_mass == marg.sum()

    def test_counts_match_naive_loop_fractional_weights(self):
        docs = random_corpus(7, self.SLICES, n_docs=80)
        vocab = build_vocab(docs, RULES, self.SLICES, min_count=3)
        weights = {"news": 0.3, "patent": 0.7, "other": 1.1}
        ccs = count_cooccurrence(docs, vocab, RULES, self.SLICES, 4, weights)
        got = self.counts_as_dict(ccs)
        expected = naive_counts(docs, vocab, self.SLICES, 4, weights)
        assert got.keys() == expected.keys()
        for key, v in expected.items():
            assert got[key] == pytest.approx(v, rel=1e-12, abs=1e-12)

    @staticmethod
    def assert_ppmi_matches_scalar_reference(cc, shift):
        expected = {}
        for (i, j), v in pair_counts(cc).items():
            pmi = (math.log(v * cc.total_mass
                            / (cc.marginals[i] * cc.marginals[j]))
                   - math.log(shift))
            if pmi > 0:
                expected[(i, j)] = expected[(j, i)] = pmi
        coo = to_scipy(build_ppmi(cc, shift=shift).matrix).tocoo()
        got = dict(zip(zip(coo.row.tolist(), coo.col.tolist()),
                       coo.data.tolist()))
        assert got == expected

    @pytest.mark.parametrize("shift", [1.0, 1.5, 5.0])
    def test_ppmi_bitwise_equal_to_scalar_reference(self, shift,
                                                    fixtures_dir):
        docs = read_documents(fixtures_dir / "corpus.jsonl")
        slices = SliceSpec(2014, 2016)
        vocab = build_vocab(docs, RULES, slices, min_count=3)
        weights = {"news": 1.0, "patent": 0.7, "other": 1.3}
        for cc in count_cooccurrence(docs, vocab, RULES, slices, 5, weights):
            self.assert_ppmi_matches_scalar_reference(cc, shift)

    def test_ppmi_bitwise_equal_to_scalar_reference_many_pairs(self):
        # tens of thousands of distinct ratios: enough that a vectorized
        # log differing from libm in the last bit would show
        rng = random.Random(1)
        words = [f"w{i}" for i in range(400)]
        zipf = [1.0 / (r + 1) for r in range(400)]
        docs = [doc(" ".join(rng.choices(words, weights=zipf, k=30)),
                    id=str(i)) for i in range(3000)]
        vocab = build_vocab(docs, RULES, ONE_SLICE, min_count=1)
        cc = count_cooccurrence(docs, vocab, RULES, ONE_SLICE, 5)[0]
        assert cc.data.size > 20_000
        self.assert_ppmi_matches_scalar_reference(cc, 1.0)

    @given(seed=st.integers(0, 10_000), window=st.integers(1, 6),
           patent=st.sampled_from([0.5, 1.0, 2.5]))
    @settings(max_examples=30, deadline=None)
    def test_counts_symmetric_marginals_sum_to_mass(self, seed, window,
                                                    patent):
        docs = random_corpus(seed, self.SLICES, n_docs=15)
        try:
            vocab = build_vocab(docs, RULES, self.SLICES, min_count=2)
        except EmptyVocabularyError:
            return
        weights = {"news": 1.0, "patent": patent, "other": 1.0}
        for cc in count_cooccurrence(docs, vocab, RULES, self.SLICES, window,
                                     weights):
            assert np.all(cc.row < cc.col)
            upper = upper_matrix(cc)
            full = (upper + upper.T).toarray()
            assert np.array_equal(full, full.T)
            assert np.allclose(cc.marginals, full.sum(axis=1), atol=1e-12)
            assert cc.marginals.sum() == pytest.approx(cc.total_mass,
                                                       rel=1e-12, abs=0)
            Y = to_scipy(build_ppmi(cc).matrix)
            assert (Y != Y.T).nnz == 0
            assert Y.nnz == 0 or Y.data.min() > 0.0


@st.composite
def pair_lists(draw):
    """n, and distinct pairs i < j below n in any order with their values;
    the list may be empty, and rows without a pair are common."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.sets(st.tuples(ends, ends).filter(lambda p: p[0] < p[1]),
                         max_size=n * (n - 1) // 2))
    pairs = draw(st.permutations(sorted(pairs)))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(pairs), max_size=len(pairs)))
    return n, pairs, values


@given(case=pair_lists(), index_type=st.sampled_from([np.int32, np.int64]))
@example(case=(5, [], []), index_type=np.int32)
@example(case=(6, [(1, 4), (0, 2)], [0.5, -0.0]), index_type=np.int64)
@settings(max_examples=100, deadline=None)
def test_symmetric_csr_equals_scipy_canonical_csr(case, index_type):
    n, pairs, values = case
    i = np.array([p[0] for p in pairs], dtype=index_type)
    j = np.array([p[1] for p in pairs], dtype=index_type)
    v = np.array(values, dtype=np.float64)
    got = symmetric_csr(n, i, j, v)
    ref = sp.csr_matrix((np.concatenate((v, v)),
                         (np.concatenate((i, j)), np.concatenate((j, i)))),
                        shape=(n, n))
    ref.sum_duplicates()
    assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int32
    assert got.data.dtype == np.float64
    assert got.indptr.tobytes() == ref.indptr.astype(np.int64).tobytes()
    assert got.indices.tobytes() == ref.indices.astype(np.int32).tobytes()
    assert got.data.tobytes() == ref.data.tobytes()
    assert got.nnz == ref.nnz == 2 * len(pairs)
