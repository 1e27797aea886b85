"""Flat key = value training configuration.

One option per line, ``#`` starts a comment, unknown and duplicate keys
are rejected with the offending line number. Defaults follow the common
large-graph settings (hidden 512, lr 0.001, dropout 0.5).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

ATTENTION_KINDS = ("jk", "recursive")
COMBINER_MODES = ("attention", "sgc", "s2gc", "gbp", "sign")
REFERENCE_MODES = ("jk", "origin_feature", "normal_noise", "no_reference")
LABEL_MODES = ("smoothed", "plain", "uniform")
RESIDUAL_KINDS = ("cosine", "linear", "fixed")
ACTIVATION_KINDS = ("leaky_relu", "relu", "sigmoid")
MAX_HOPS = 128


class ConfigError(Exception):
    pass


def thread_count(value: str) -> int:
    """--threads or GAMLP_THREADS as an int; ValueError unless a positive integer."""
    if not value.strip().isdigit() or int(value) < 1:
        raise ValueError(f"--threads and GAMLP_THREADS must be a positive integer, got {value!r}")
    return int(value)


@dataclass
class TrainConfig:
    dataset_dir: str = ""
    cache_dir: str = "cache"
    # propagation
    hops: int = 5
    label_hops: int = -1          # -1: follow hops
    r_mode: float = 0.5
    residual_scheme: str = "cosine"
    fixed_alpha: float = 0.7
    # combiners
    attention: str = "jk"
    combiner: str = "attention"
    reference: str = "jk"
    # classifier
    hidden: int = 512
    num_layers: int = 3
    label_num_layers: int = 2
    jk_layers: int = 2
    activation: str = "leaky_relu"
    input_dropout: float = 0.0
    attention_dropout: float = 0.5
    dropout: float = 0.5
    # optimization
    lr: float = 0.001
    weight_decay: float = 0.0
    batch_size: int = 0           # 0: full batch
    epochs: int = 400
    patience: int = 100
    # label branch
    use_labels: bool = True
    label_mode: str = "smoothed"
    seed: int = 0

    @property
    def effective_label_hops(self) -> int:
        return self.hops if self.label_hops < 0 else self.label_hops

    def validate(self) -> "TrainConfig":
        def require(cond: bool, msg: str):
            if not cond:
                raise ConfigError(msg)

        require(0 <= self.hops <= MAX_HOPS, f"hops must lie in [0, {MAX_HOPS}]")
        require(self.label_hops == -1 or 0 <= self.label_hops <= MAX_HOPS,
                f"label_hops must lie in [0, {MAX_HOPS}]")
        require(self.r_mode in (0.0, 0.5, 1.0), "r_mode must be 0, 0.5 or 1")
        require(self.residual_scheme in RESIDUAL_KINDS,
                f"residual_scheme must be one of {RESIDUAL_KINDS}")
        require(0.0 <= self.fixed_alpha <= 1.0, "fixed_alpha must lie in [0, 1]")
        require(self.attention in ATTENTION_KINDS,
                f"attention must be one of {ATTENTION_KINDS}")
        require(self.combiner in COMBINER_MODES,
                f"combiner must be one of {COMBINER_MODES}")
        require(self.reference in REFERENCE_MODES,
                f"reference must be one of {REFERENCE_MODES}")
        require(self.hidden >= 1, "hidden must be positive")
        require(self.num_layers >= 1, "num_layers must be >= 1")
        require(self.label_num_layers >= 1, "label_num_layers must be >= 1")
        require(self.jk_layers >= 1, "jk_layers must be >= 1")
        require(self.activation in ACTIVATION_KINDS,
                f"activation must be one of {ACTIVATION_KINDS}")
        for key in ("input_dropout", "attention_dropout", "dropout"):
            require(0.0 <= getattr(self, key) < 1.0, f"{key} must lie in [0, 1)")
        require(self.lr >= 0.0, "lr must be nonnegative")
        require(self.weight_decay >= 0.0, "weight_decay must be nonnegative")
        require(self.batch_size >= 0, "batch_size must be nonnegative")
        require(self.epochs >= 1, "epochs must be >= 1")
        require(1 <= self.patience <= self.epochs,
                "patience must lie in [1, epochs]")
        require(self.label_mode in LABEL_MODES,
                f"label_mode must be one of {LABEL_MODES}")
        return self

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs).validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def _coerce(key: str, raw: str, line_no: int):
    typ = _FIELDS[key]
    try:
        if typ == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        if typ == "int":
            return int(raw)
        if typ == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse {key} = {raw!r} as {typ}") from None


def parse_config(path) -> TrainConfig:
    """Parse and validate a config file; unknown keys are errors."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _FIELDS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            if key in seen:
                raise ConfigError(
                    f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})")
            seen[key] = line_no
            values[key] = _coerce(key, raw, line_no)
    if "dataset_dir" not in values:
        raise ConfigError("config must set dataset_dir")
    return TrainConfig(**values).validate()
