"""On-disk artifact formats: binary sparse PPMI, the binary embedding
tensor, vocabulary and atom tables.

PPMI slice (``ppmi_TTT.bin``), little-endian, the canonical CSR of the full
symmetric matrix (rows in order, column indices sorted within a row, no
duplicates):

    magic  b"VSPM"
    uint32 version, t, n
    uint64 nnz
    int64  indptr[n + 1]
    int32  indices[nnz]
    float64 data[nnz]

The arrays are those of the slice's CsrMatrix record, which build_ppmi
assembles in canonical form; write_ppmi writes them as they are and
read_ppmi returns them as a record again.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .config import PPMI_MAGIC, PPMI_VERSION
from .corpus import CsrMatrix, PpmiMatrix, Vocabulary
from .embedding import EmbeddingTensor

EMBEDDING_MAGIC = b"VSEM"
EMBEDDING_VERSION = 1
_PPMI_HEADER = struct.Struct("<IIIQ")


def write_ppmi(ppmi: PpmiMatrix, path):
    """The slice's canonical CSR record in binary; see the module docstring
    for the layout."""
    mat = ppmi.matrix
    with open(path, "wb") as fh:
        fh.write(PPMI_MAGIC)
        fh.write(_PPMI_HEADER.pack(PPMI_VERSION, ppmi.t, mat.n, mat.nnz))
        mat.indptr.astype("<i8", copy=False).tofile(fh)
        mat.indices.astype("<i4", copy=False).tofile(fh)
        mat.data.astype("<f8", copy=False).tofile(fh)


def read_ppmi(path) -> PpmiMatrix:
    """Read a PPMI slice; raises ValueError on a malformed file."""
    with open(path, "rb") as fh:
        if fh.read(4) != PPMI_MAGIC:
            raise ValueError(f"not a PPMI file: {path}")
        header = fh.read(_PPMI_HEADER.size)
        if len(header) != _PPMI_HEADER.size:
            raise ValueError(f"truncated PPMI file: {path}")
        version, t, n, nnz = _PPMI_HEADER.unpack(header)
        if version != PPMI_VERSION:
            raise ValueError(f"unsupported PPMI version {version}: {path}")
        # checked before reading, so a corrupt header cannot size the arrays
        if os.fstat(fh.fileno()).st_size != fh.tell() + 8 * (n + 1) + 12 * nnz:
            raise ValueError(f"PPMI file size does not match its header: "
                             f"{path}")
        indptr = np.fromfile(fh, dtype="<i8", count=n + 1)
        indices = np.fromfile(fh, dtype="<i4", count=nnz)
        data = np.fromfile(fh, dtype="<f8", count=nnz)
    if (indptr[0] != 0 or indptr[-1] != nnz
            or np.any(np.diff(indptr) < 0)
            or (nnz and (indices.min() < 0 or indices.max() >= n))):
        raise ValueError(f"corrupt PPMI index arrays: {path}")
    # train's ||Y||^2 = data @ data needs increasing columns within a row
    row_start = np.zeros(nnz + 1, dtype=bool)
    row_start[indptr] = True
    if np.any((np.diff(indices) <= 0) & ~row_start[1:-1]):
        raise ValueError(f"corrupt PPMI index arrays: {path}")
    return PpmiMatrix(t=t, matrix=CsrMatrix(indptr=indptr, indices=indices,
                                            data=data))


def write_embeddings(U: EmbeddingTensor, path):
    """Binary: magic, version, T, n, k as uint32, year labels as int32,
    then float32 slices row-major, cast and written one slice at a time."""
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<IIII", EMBEDDING_VERSION, U.T, U.n, U.k))
        fh.write(np.asarray(U.years, dtype="<i4").tobytes())
        for X in U.slices:
            X.astype("<f4").tofile(fh)


def read_embeddings(path) -> EmbeddingTensor:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMBEDDING_MAGIC:
            raise ValueError(f"not an embedding file: {path}")
        version, T, n, k = struct.unpack("<IIII", fh.read(16))
        if version != EMBEDDING_VERSION:
            raise ValueError(f"unsupported embedding version {version}")
        years = np.frombuffer(fh.read(4 * T), dtype="<i4").tolist()
        data = np.frombuffer(fh.read(4 * T * n * k), dtype="<f4")
    slices = data.reshape(T, n, k).astype(np.float64)
    return EmbeddingTensor(slices=slices, years=years)


def write_embeddings_tsv(U: EmbeddingTensor, vocab: Vocabulary, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t, year in enumerate(U.years):
            for i, word in enumerate(vocab.id_to_token):
                vals = "\t".join(f"{v:.6g}" for v in U.slices[t][i])
                fh.write(f"{word}\t{year}\t{vals}\n")


def write_vocab(vocab: Vocabulary, path):
    """TSV with per-slice counts so downstream stages can reload the full
    Vocabulary (familiarity and rare-word controls need slice counts)."""
    T = vocab.slice_counts.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        totals = "\t".join(f"{v:.17g}" for v in vocab.slice_totals)
        fh.write(f"#slices\t{T}\t{totals}\n")
        fh.write("#token\tid\tglobal" + "".join(f"\tc{t}" for t in range(T)) + "\n")
        for i, token in enumerate(vocab.id_to_token):
            counts = "\t".join(f"{v:.17g}" for v in vocab.slice_counts[:, i])
            fh.write(f"{token}\t{i}\t{vocab.global_counts[i]:.17g}\t{counts}\n")


def read_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        T = int(header[1])
        slice_totals = np.array([float(x) for x in header[2:2 + T]])
        fh.readline()  # column header
        tokens, counts = [], []
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            tokens.append(parts[0])
            counts.append([float(x) for x in parts[3:3 + T]])
    slice_counts = np.array(counts, dtype=np.float64).T if tokens else \
        np.zeros((T, 0))
    return Vocabulary(tokens, slice_counts, slice_totals)


def read_atoms(tsv_path) -> np.ndarray:
    """The word -> atom assignment of an atoms TSV: its atom_id column, in
    vocabulary order, UNASSIGNED (-1) included."""
    with open(tsv_path, encoding="utf-8") as fh:
        return np.array([int(line.split("\t", 2)[1]) for line in fh
                         if not line.startswith("#")], dtype=np.int64)


def write_atoms_tsv(dictionary, vocab: Vocabulary, year: int, path):
    """One row per word, in id order: year, atom_id, word, score."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# year\tatom_id\tword\tscore\n")
        for i, word in enumerate(vocab.id_to_token):
            a = int(dictionary.assignment[i])
            score = dictionary.scores[i]
            score_s = "nan" if not np.isfinite(score) else f"{score:.8g}"
            fh.write(f"{year}\t{a}\t{word}\t{score_s}\n")


def write_atom_matrix(dictionary, path):
    np.save(path, dictionary.atoms, allow_pickle=False)
