"""Pipeline configuration: one YAML file drives every stage."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .atoms import AtomConfig
from .corpus import SliceSpec, TokenRules
from .embedding import TrainConfig
from .panel import MeasureConfig

DEFAULT_PROFIT_SEEDS = {
    "positive": ["gain", "win", "profit", "bull", "optimistic", "worthy",
                 "profitable"],
    "negative": ["lose", "loss", "default", "bear", "pessimistic",
                 "worthless", "unprofitable"],
}


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    """Every setting of a run; load_config sets each field."""

    # input paths
    corpus_path: str
    companies_path: str
    tech_terms_path: str
    general_freq_path: str
    patent_freq_path: str
    cpi_path: str
    out_dir: str
    # module configs
    slices: SliceSpec
    tokens: TokenRules
    min_count: int
    window: int
    source_weights: dict
    ppmi_shift: float
    train: TrainConfig
    atoms: AtomConfig
    measures: MeasureConfig
    cpi_base_year: int
    axis_seeds: dict
    drift_words: list
    analogy_queries: list
    report_quantiles: int
    emit_tsv: bool


def load_config(path, overrides=None) -> PipelineConfig:
    """Load a YAML pipeline config; CLI overrides win over file values."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if overrides:
        raw = _deep_merge(raw, overrides)

    base = Path(path).resolve().parent

    def respath(p):
        p = Path(p)
        return str(p if p.is_absolute() else base / p)

    try:
        paths = raw["paths"]
        sl = raw.get("slices", {})
        slices = SliceSpec(year_min=int(sl["year_min"]),
                           year_max=int(sl["year_max"]),
                           width=int(sl.get("width", 1)))
        tk = raw.get("tokens", {})
        tokens = TokenRules(
            lowercase=bool(tk.get("lowercase", True)),
            strip_punct=bool(tk.get("strip_punct", True)),
            strip_numbers=bool(tk.get("strip_numbers", False)),
            min_token_len=int(tk.get("min_token_len", 1)),
            stopwords=frozenset(tk.get("stopwords", [])),
            bigrams=tuple(tuple(b) for b in tk.get("bigrams", [])),
        )
        seed = int(raw.get("seed", 0))
        tr = raw.get("train", {})
        train = TrainConfig(
            k=int(tr.get("k", 50)),
            lam=float(tr.get("lambda", 10.0)),
            tau=float(tr.get("tau", 50.0)),
            gamma=None if tr.get("gamma") is None else float(tr["gamma"]),
            sweeps=int(tr.get("sweeps", 30)),
            tol=float(tr.get("tol", 1e-4)),
            seed=int(tr.get("seed", seed)),
        )
        at = raw.get("atoms", {})
        atoms = AtomConfig(
            K=int(at.get("count", 200)),
            sparsity=int(at.get("sparsity", 5)),
            iterations=int(at.get("iterations", 20)),
            method=str(at.get("method", "ksvd")),
            seed=int(at.get("seed", seed)),
        )
        me = raw.get("measures", {})
        measures = MeasureConfig(
            min_module_size=int(me.get("min_module_size", 2)),
            freq_ratio_threshold=float(me.get("freq_ratio_threshold", 5.0)),
            lookback_years=int(me.get("lookback_years", 5)),
            rare_percentile=float(me.get("rare_percentile", 0.01)),
            top_price_share=float(me.get("top_price_share", 0.3)),
        )
        axis_seeds = raw.get("axes", {}).get("profit_loss",
                                             dict(DEFAULT_PROFIT_SEEDS))
        cfg = PipelineConfig(
            corpus_path=respath(paths["corpus"]),
            companies_path=respath(paths["companies"]),
            tech_terms_path=respath(paths["tech_terms"]),
            general_freq_path=respath(paths["general_freq"]),
            patent_freq_path=respath(paths["patent_freq"]),
            cpi_path=respath(paths["cpi"]),
            out_dir=respath(raw.get("out", paths.get("out", "out"))),
            slices=slices, tokens=tokens,
            min_count=int(raw.get("vocab", {}).get("min_count", 10)),
            window=int(raw.get("cooccurrence", {}).get("window", 5)),
            source_weights=dict(raw.get("cooccurrence", {}).get(
                "weights", {"news": 1.0, "patent": 1.0, "other": 1.0})),
            ppmi_shift=float(raw.get("cooccurrence", {}).get("shift", 1.0)),
            train=train, atoms=atoms, measures=measures,
            cpi_base_year=int(me.get("cpi_base_year", 2015)),
            axis_seeds=axis_seeds,
            drift_words=list(raw.get("drift_words", [])),
            analogy_queries=[tuple(q) for q in raw.get("analogies", [])],
            report_quantiles=int(raw.get("report", {}).get("quantiles", 10)),
            emit_tsv=bool(raw.get("emit_tsv", False)),
        )
        # (setting, value, rule, holds), checked before any stage runs
        ranges = [
            ("vocab.min_count", cfg.min_count, ">= 1", cfg.min_count >= 1),
            ("cooccurrence.window", cfg.window, ">= 1", cfg.window >= 1),
            ("cooccurrence.shift", cfg.ppmi_shift, ">= 1",
             cfg.ppmi_shift >= 1),
            ("measures.rare_percentile", measures.rare_percentile,
             "in [0, 1]", 0 <= measures.rare_percentile <= 1),
            ("measures.top_price_share", measures.top_price_share,
             "in (0, 1]", 0 < measures.top_price_share <= 1),
            ("measures.lookback_years", measures.lookback_years, ">= 0",
             measures.lookback_years >= 0),
            ("measures.min_module_size", measures.min_module_size, ">= 1",
             measures.min_module_size >= 1),
            ("measures.freq_ratio_threshold", measures.freq_ratio_threshold,
             ">= 0", measures.freq_ratio_threshold >= 0),
            ("train.gamma", train.gamma, ">= 0", train.gamma >= 0),
            *((f"cooccurrence.weights.{source}", w, "> 0", w > 0)
              for source, w in cfg.source_weights.items()),
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    for name, value, rule, ok in ranges:
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value}")
    return cfg


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out
