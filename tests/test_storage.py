import numpy as np
import pytest
import scipy.sparse as sp

from venturescape import storage
from venturescape.atoms import UNASSIGNED, AtomDictionary, train_atoms
from venturescape.config import AtomConfig
from venturescape.corpus import CsrMatrix, PpmiMatrix, Vocabulary
from venturescape.embedding import EmbeddingTensor
from conftest import make_vocab
from oracles import from_scipy, to_scipy


def test_ppmi_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = np.triu(rng.random((6, 6)) * (rng.random((6, 6)) < 0.4), 1)
    Y = sp.csr_matrix(M + M.T)
    ppmi = PpmiMatrix(t=2, matrix=from_scipy(Y))
    path = tmp_path / "ppmi.txt"
    storage.write_ppmi(ppmi, path)
    back = storage.read_ppmi(path)
    assert back.t == 2 and back.n == 6
    assert np.allclose(to_scipy(back.matrix).toarray(), Y.toarray(),
                       atol=1e-15)


def test_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    U = EmbeddingTensor(rng.normal(size=(2, 5, 3)).astype(np.float32)
                        .astype(np.float64), [2001, 2002])
    path = tmp_path / "emb.bin"
    storage.write_embeddings(U, path)
    back = storage.read_embeddings(path)
    assert back.years == [2001, 2002]
    assert np.allclose(back.slices, U.slices, atol=1e-7)


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="not an embedding file"):
        storage.read_embeddings(path)


def test_vocab_round_trip(tmp_path):
    counts = np.ones((2, 3))
    counts[0, 1] = 4.0
    vocab = Vocabulary(["b", "a", "c"], counts, np.full(2, 3.0))
    path = tmp_path / "vocab.tsv"
    storage.write_vocab(vocab, path)
    back = storage.read_vocab(path)
    assert back.id_to_token == ["b", "a", "c"]
    assert np.allclose(back.slice_counts, vocab.slice_counts)
    assert np.allclose(back.slice_totals, vocab.slice_totals)


def test_atoms_round_trip(tmp_path):
    """read_atoms gives back the assignment, UNASSIGNED words included."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 4))
    X[5] = 0.0  # a zero row is left unassigned
    d = train_atoms(X, AtomConfig(K=4, sparsity=2, iterations=3, seed=0))
    assert d.assignment[5] == UNASSIGNED
    vocab = make_vocab([f"w{i}" for i in range(20)])
    tsv = tmp_path / "atoms.tsv"
    npy = tmp_path / "atoms.npy"
    storage.write_atoms_tsv(d, vocab, 2001, tsv)
    storage.write_atom_matrix(d, npy)
    back = storage.read_atoms(tsv)
    assert back.dtype == np.int64
    assert np.array_equal(back, d.assignment)
    scores = np.array([float(line.split("\t")[3])
                       for line in tsv.read_text().splitlines()
                       if not line.startswith("#")])
    assert np.allclose(scores, d.scores, atol=1e-7, equal_nan=True)
    assert np.allclose(np.load(npy), d.atoms)


def test_embeddings_tsv_shape(tmp_path):
    rng = np.random.default_rng(3)
    U = EmbeddingTensor(rng.normal(size=(2, 3, 2)), [2001, 2002])
    vocab = make_vocab(["x", "y", "z"])
    path = tmp_path / "emb.tsv"
    storage.write_embeddings_tsv(U, vocab, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].split("\t")[0] == "x"


def random_ppmi(seed, n=40, density=0.2, t=1):
    rng = np.random.default_rng(seed)
    M = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), 1)
    return PpmiMatrix(t=t, matrix=from_scipy(sp.csr_matrix(M + M.T)))


@pytest.mark.parametrize("n,density", [(40, 0.2), (7, 0.0), (1, 0.0)])
def test_ppmi_binary_round_trip_bitwise(tmp_path, n, density):
    ppmi = random_ppmi(4, n, density, t=3)
    path = tmp_path / "ppmi.bin"
    storage.write_ppmi(ppmi, path)
    back = storage.read_ppmi(path)
    assert (back.t, back.n) == (3, n)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.matrix, name),
                              getattr(ppmi.matrix, name)), name
    assert back.matrix.data.tobytes() == ppmi.matrix.data.tobytes()


def test_ppmi_binary_layout_and_determinism(tmp_path):
    ppmi = random_ppmi(5)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    storage.write_ppmi(ppmi, a)
    storage.write_ppmi(ppmi, b)
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    n, nnz = ppmi.n, ppmi.matrix.nnz
    assert raw[:4] == storage.PPMI_MAGIC
    assert len(raw) == 4 + 20 + 8 * (n + 1) + 4 * nnz + 8 * nnz


@pytest.mark.parametrize("corrupt", [
    lambda raw: b"NOPE" + raw[4:],
    lambda raw: raw[:4] + (2).to_bytes(4, "little") + raw[8:],
    lambda raw: raw[:10],
    lambda raw: raw[:-1],
    lambda raw: raw + b"\x00",
    lambda raw: raw[:24] + (5).to_bytes(8, "little") + raw[32:],
    lambda raw: raw[:16] + (2 ** 40).to_bytes(8, "little") + raw[24:],
], ids=["magic", "version", "short_header", "truncated", "trailing_byte",
        "indptr_start", "nnz_beyond_file"])
def test_ppmi_malformed_file_raises(tmp_path, corrupt):
    path = tmp_path / "ppmi.bin"
    storage.write_ppmi(random_ppmi(6), path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError):
        storage.read_ppmi(path)


@pytest.mark.parametrize("row0, ok", [
    ([0, 2], True), ([1, 1], False), ([2, 1], False),
], ids=["canonical", "repeated", "decreasing"])
def test_ppmi_noncanonical_row_raises(tmp_path, row0, ok):
    """Row 0 holds the columns row0, row 1 is empty and row 2 holds column
    0; only an index that fails to increase within a row is corrupt."""
    mat = CsrMatrix(indptr=np.array([0, 2, 2, 3]),
                    indices=np.array(row0 + [0], dtype=np.int32),
                    data=np.ones(3))
    path = tmp_path / "ppmi.bin"
    storage.write_ppmi(PpmiMatrix(t=0, matrix=mat), path)
    if ok:
        assert storage.read_ppmi(path).matrix.nnz == 3
        return
    with pytest.raises(ValueError, match="^corrupt PPMI index arrays: "):
        storage.read_ppmi(path)


def test_binary_writers_write_the_tofile_bytes(tmp_path):
    """write_ppmi, write_embeddings and write_atom_matrix write, in one
    fh.write per array, the bytes that ndarray.tofile and np.save wrote;
    atoms in any memory layout give the bytes of their C-ordered copy."""
    import io
    import struct

    rng = np.random.default_rng(3)
    M = np.triu(rng.random((5, 5)) * (rng.random((5, 5)) < 0.5), 1)
    mat = from_scipy(sp.csr_matrix(M + M.T))
    storage.write_ppmi(PpmiMatrix(t=1, matrix=mat), tmp_path / "p.bin")
    assert (tmp_path / "p.bin").read_bytes() == (
        b"VSPM" + struct.pack("<IIIQ", 1, 1, 5, mat.nnz)
        + mat.indptr.astype("<i8").tobytes()
        + mat.indices.astype("<i4").tobytes()
        + mat.data.astype("<f8").tobytes())

    U = EmbeddingTensor(rng.normal(size=(2, 4, 3)), [2001, 2002])
    storage.write_embeddings(U, tmp_path / "e.bin")
    assert (tmp_path / "e.bin").read_bytes() == (
        b"VSEM" + struct.pack("<IIIII", 1, 2, 4, 3, 2001)
        + struct.pack("<i", 2002) + U.slices.astype("<f4").tobytes())

    atoms = rng.normal(size=(6, 3))
    saved = io.BytesIO()
    np.save(saved, atoms, allow_pickle=False)
    for layout in (atoms, np.asfortranarray(atoms), atoms[::-1][::-1]):
        dictionary = AtomDictionary(atoms=layout, assignment=None,
                                    scores=None, error_trace=[])
        storage.write_atom_matrix(dictionary, tmp_path / "a.npy")
        assert (tmp_path / "a.npy").read_bytes() == saved.getvalue()
