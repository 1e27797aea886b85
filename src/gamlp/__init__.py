"""Scalable graph learning: propagate once, then train an attention MLP.

Submodules are imported lazily so the CLI can pin thread counts before
the numerics libraries load.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "CsrGraph": "graph",
    "PropagationOperator": "graph",
    "build_graph": "graph",
    "add_self_loops": "graph",
    "normalize": "graph",
    "spmm": "graph",
    "ResidualScheme": "propagation",
    "Stack": "propagation",
    "propagate_features": "propagation",
    "propagate_labels": "propagation",
    "build_label_seed": "propagation",
    "apply_last_residual": "propagation",
    "cache_write": "propagation",
    "cache_read": "propagation",
    "TrainConfig": "config",
    "parse_config": "config",
    "GamlpModel": "model",
    "baseline_combine": "model",
    "fit": "model",
    "predict": "model",
    "evaluate_accuracy": "model",
    "export_attention": "model",
    "Dataset": "data",
    "load_dataset": "data",
    "save_dataset": "data",
    "generate_sbm": "data",
    "drop_edges": "data",
    "sample_labels_per_class": "data",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
