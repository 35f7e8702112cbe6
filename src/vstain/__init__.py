"""Virtual staining of microscopy images with global pixel transformer layers.

The public names below load lazily (PEP 562), so importing the package,
or ``vstain.cli``, loads no numpy: the CLI sets the BLAS thread count in
the environment before numpy and its BLAS are first loaded.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ConfigError": "errors", "DataError": "errors", "NumericError": "errors",
    "ShapeError": "errors", "VstainError": "errors",
    "NetworkConfig": "network", "build": "network", "forward": "network",
    "load_checkpoint": "network", "save_checkpoint": "network",
    "stage_ledger": "network",
    "TrainConfig": "training", "train": "training",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
