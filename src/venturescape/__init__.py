"""Corpus-to-measures engine: temporal embeddings, discourse atoms, and
venture recombination measures."""

__version__ = "0.1.0"
