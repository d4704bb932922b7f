import os

# One BLAS thread, as the CLI runs, set before numpy loads: in-process
# stage runs fork their workers from this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from venturescape.atoms import AtomDictionary, assign_words
from venturescape.corpus import Vocabulary
from venturescape.embedding import EmbeddingTensor
from venturescape.measures import module_blocks

FIXTURES = __import__("pathlib").Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def make_vocab(words, T=1):
    n = len(words)
    counts = np.ones((T, n))
    return Vocabulary(id_to_token=list(words), slice_counts=counts,
                      slice_totals=counts.sum(axis=1))


def make_space(vectors, words=None, year=2000):
    """Wrap an n x k array as a one-slice embedding plus matching vocab."""
    X = np.asarray(vectors, dtype=np.float64)
    if words is None:
        words = [f"w{i:03d}" for i in range(X.shape[0])]
    vocab = make_vocab(words)
    U = EmbeddingTensor(slices=X[None, :, :], years=[year])
    return vocab, U


def view_of(tokens, vocab, U, t, atoms, min_module_size=2):
    """The one-description ModuleBlock the measure stage builds for tokens
    in slice t from the word -> atom assignment of the atom dictionary
    atoms; each measure's result for it is the first of its list."""
    ids = np.array([vocab.token_to_id[tok] for tok in tokens
                    if tok in vocab.token_to_id], dtype=np.int64)
    return next(module_blocks([ids], U.slices[t], atoms.assignment,
                             min_module_size))


def make_atoms(atom_vectors, U_slice):
    """Atom dictionary with assignments derived from the given atom rows."""
    atoms = np.asarray(atom_vectors, dtype=np.float64)
    atoms = atoms / np.linalg.norm(atoms, axis=1, keepdims=True)
    assignment, scores = assign_words(atoms, U_slice)
    return AtomDictionary(atoms=atoms, assignment=assignment, scores=scores,
                          error_trace=[])


@pytest.fixture(scope="session")
def clustered_space():
    """12 tight clusters of 5 words each around random unit directions."""
    rng = np.random.default_rng(123)
    k = 16
    centers = rng.normal(size=(12, k))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs, words = [], []
    for ci, c in enumerate(centers):
        for j in range(5):
            vecs.append(c + 0.03 * rng.normal(size=k))
            words.append(f"c{ci:02d}w{j}")
    vocab, U = make_space(np.array(vecs), words)
    atoms = make_atoms(centers, U.slices[0])
    return vocab, U, atoms
