"""Flat key = value training configuration.

One option per line, ``#`` starts a comment, unknown and duplicate keys
are rejected, and every error names the file and the line at fault.
Defaults follow the common large-graph settings (hidden 512, lr 0.001,
dropout 0.5).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

ATTENTION_KINDS = ("jk", "recursive", "sgc", "s2gc", "gbp", "sign")  # the last 4: baselines
REFERENCE_MODES = ("jk", "origin_feature", "normal_noise", "no_reference")
LABEL_MODES = ("smoothed", "plain", "uniform")
RESIDUAL_KINDS = ("cosine", "linear", "fixed")
ACTIVATION_KINDS = ("leaky_relu", "relu", "sigmoid")
MAX_HOPS = 128


class ConfigError(Exception):
    """A config that cannot be used; ``keys`` are the config keys at fault."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


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
        """Raises a ConfigError whose ``keys`` name the keys at fault, first the
        one its message begins with."""
        def require(cond: bool, key: str, msg: str, *also: str):
            if not cond:
                raise ConfigError(f"{key} {msg}", (key, *also))

        require(self.cache_dir != "", "cache_dir", "must not be empty")
        require(0 <= self.hops <= MAX_HOPS, "hops", f"must lie in [0, {MAX_HOPS}]")
        require(self.label_hops == -1 or 0 <= self.label_hops <= MAX_HOPS,
                "label_hops", f"must lie in [0, {MAX_HOPS}]")
        require(self.r_mode in (0.0, 0.5, 1.0), "r_mode", "must be 0, 0.5 or 1")
        require(self.residual_scheme in RESIDUAL_KINDS,
                "residual_scheme", f"must be one of {RESIDUAL_KINDS}")
        require(0.0 <= self.fixed_alpha <= 1.0, "fixed_alpha", "must lie in [0, 1]")
        require(self.attention in ATTENTION_KINDS,
                "attention", f"must be one of {ATTENTION_KINDS}")
        require(self.reference in REFERENCE_MODES,
                "reference", f"must be one of {REFERENCE_MODES}")
        require(self.hidden >= 1, "hidden", "must be positive")
        require(self.num_layers >= 1, "num_layers", "must be >= 1")
        require(self.label_num_layers >= 1, "label_num_layers", "must be >= 1")
        require(self.jk_layers >= 1, "jk_layers", "must be >= 1")
        require(self.activation in ACTIVATION_KINDS,
                "activation", f"must be one of {ACTIVATION_KINDS}")
        for key in ("input_dropout", "attention_dropout", "dropout"):
            require(0.0 <= getattr(self, key) < 1.0, key, "must lie in [0, 1)")
        require(self.lr >= 0.0, "lr", "must be nonnegative")
        require(self.weight_decay >= 0.0, "weight_decay", "must be nonnegative")
        require(self.batch_size >= 0, "batch_size", "must be nonnegative")
        require(self.epochs >= 1, "epochs", "must be >= 1")
        require(1 <= self.patience <= self.epochs,
                "patience", "must lie in [1, epochs]", "epochs")
        require(self.label_mode in LABEL_MODES,
                "label_mode", f"must be one of {LABEL_MODES}")
        require(self.seed >= 0, "seed", "must be nonnegative")
        return self

    def replace(self, **kwargs) -> "TrainConfig":
        return dataclasses.replace(self, **kwargs).validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def _coerce(key: str, raw: str, where: str):
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
        raise ConfigError(f"{where}: cannot parse {key} = {raw!r} as {typ}") from None


def parse_config(path) -> TrainConfig:
    """Parse and validate a config file; unknown keys are errors. Every error
    begins with ``path`` and the number of the line at fault, or with ``path``
    alone when the file does not set the key at fault."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                where = f"{path}:{line_no}"
                if "=" not in text:
                    raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
                key, raw = (part.strip() for part in text.split("=", 1))
                if key not in _FIELDS:
                    raise ConfigError(f"{where}: unknown key {key!r}")
                if key in seen:
                    raise ConfigError(
                        f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
                seen[key] = line_no
                values[key] = _coerce(key, raw, where)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    if "dataset_dir" not in values:
        raise ConfigError(f"{path}: config must set dataset_dir")
    try:
        return TrainConfig(**values).validate()
    except ConfigError as e:
        line_no = next((seen[key] for key in e.keys if key in seen), None)
        raise ConfigError(f"{path}:{line_no}: {e}" if line_no else f"{path}: {e}") from None
