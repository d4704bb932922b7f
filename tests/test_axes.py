import numpy as np
import pytest

from venturescape.axes import (AxisError, analogy_query, build_axis,
                               drift_trace, project_on_axis)
from venturescape.embedding import EmbeddingTensor
from conftest import make_space, make_vocab


@pytest.fixture()
def plane():
    X = np.array([
        [1.0, 0.0],
        [-1.0, 0.0],
        [0.0, 1.0],
        [0.8, 0.2],
    ])
    return make_space(X, ["pos", "neg", "orth", "mix"])


class TestBuildAxis:
    def test_antipodal_seeds(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos"], ["neg"], vocab)
        assert np.allclose(axis.vector, [1.0, 0.0], atol=1e-12)

    def test_difference_of_means(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos", "mix"], ["neg"], vocab)
        diff = (np.array([1.0, 0.0]) + np.array([0.8, 0.2])) / 2 - \
            np.array([-1.0, 0.0])
        assert np.allclose(axis.vector, diff / np.linalg.norm(diff),
                           atol=1e-12)

    def test_unit_norm(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos", "orth"], ["neg"], vocab)
        assert np.linalg.norm(axis.vector) == pytest.approx(1.0, abs=1e-10)

    def test_out_of_vocab_seeds_dropped(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos", "ghost"], ["neg"], vocab)
        assert axis.dropped == ["ghost"]

    def test_empty_pole_error(self, plane):
        vocab, U = plane
        with pytest.raises(AxisError):
            build_axis(U, 0, ["ghost"], ["neg"], vocab)

    def test_coinciding_poles_error(self, plane):
        vocab, U = plane
        with pytest.raises(AxisError, match="coincide"):
            build_axis(U, 0, ["pos"], ["pos"], vocab)

    def test_pole_swap_negates(self, plane):
        vocab, U = plane
        a = build_axis(U, 0, ["pos", "mix"], ["neg"], vocab)
        b = build_axis(U, 0, ["neg"], ["pos", "mix"], vocab)
        assert np.allclose(a.vector, -b.vector, atol=1e-12)


class TestProjection:
    def test_aligned_is_one(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos"], ["neg"], vocab)
        assert project_on_axis(np.array([3.0, 0.0]), axis) == \
            pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos"], ["neg"], vocab)
        assert project_on_axis(np.array([0.0, 2.0]), axis) == \
            pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos"], ["neg"], vocab)
        neg_axis = build_axis(U, 0, ["neg"], ["pos"], vocab)
        v = np.array([0.3, 0.7])
        assert project_on_axis(v, neg_axis) == \
            pytest.approx(-project_on_axis(v, axis), abs=1e-12)

    def test_zero_vector_absent(self, plane):
        vocab, U = plane
        axis = build_axis(U, 0, ["pos"], ["neg"], vocab)
        assert project_on_axis(np.zeros(2), axis) is None


class TestDrift:
    def test_static_embeddings_identical_lists(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        vocab = make_vocab(["a", "b", "c"])
        U = EmbeddingTensor(np.repeat(X[None], 3, axis=0), [2000, 2001, 2002])
        report = drift_trace(U, "a", vocab, N=2)
        assert report.neighbors[0] == report.neighbors[1] == report.neighbors[2]

    def test_missing_word_suggests_spellings(self, plane):
        vocab, U = plane
        with pytest.raises(KeyError, match="near spellings"):
            drift_trace(U, "poss", vocab)

    def test_long_rows(self, plane):
        vocab, U = plane
        report = drift_trace(U, "pos", vocab, N=2)
        rows = report.to_long_rows()
        assert len(rows) == 2
        assert rows[0][1] == "pos" and rows[0][3] == 1


class TestAnalogy:
    def test_parallelogram(self):
        # d = a - b + c exactly
        a = np.array([1.0, 1.0, 0.0])
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([0.0, 0.0, 1.0])
        d = a - b + c
        vocab, U = make_space(np.array([a, b, c, d]), ["a", "b", "c", "d"])
        out = analogy_query(U, 0, "a", "b", "c", vocab, N=1)
        assert out[0][0] == "d"
        assert out[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_missing_operand(self, plane):
        vocab, U = plane
        with pytest.raises(KeyError):
            analogy_query(U, 0, "pos", "ghost", "orth", vocab)

    def test_operands_excluded(self, plane):
        vocab, U = plane
        out = analogy_query(U, 0, "pos", "neg", "mix", vocab, N=4)
        assert {w for w, _ in out}.isdisjoint({"pos", "neg", "mix"})
