"""randcert: randomness certification of binary sequences.

Borel-normality testing, Bayesian model selection over partition-induced
generative models, the coupled Bayesian frequency bound, time-tag parity
extraction, and seedable synthetic generators reproducing the detector
failure modes (after-pulsing, dead time).

The exported names are resolved from their submodule on first use (PEP 562),
so `import randcert` and the CLI's start load no numpy until a command needs it.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "bitstream": ["BitSequence", "load_ascii", "load_packed", "write_ascii", "write_packed"],
    "blockstats": [
        "BlockCounts",
        "count_blocks",
        "count_blocks_parallel",
        "level_counts",
        "max_borel_level",
        "merge_counts",
        "stream_level_counts",
    ],
    "borel": ["BorelLevelReport", "borel_bound", "borel_deviations", "borel_test"],
    "bayes": [
        "BayesBoundReport",
        "PosteriorTable",
        "bayes_bound_lhs",
        "bayes_bound_rhs",
        "bayes_bound_test",
        "log_marginal",
        "posterior",
    ],
    "extract": ["DensitySpec", "TimeTagSeries", "interarrivals", "parity_bias_estimate", "timetags_to_bits"],
    "partitions": ["PartitionModel", "bell_number", "enumerate_partitions"],
    "simgen": ["GeneratorConfig", "gen_bernoulli", "gen_detector", "gen_markov"],
    "specialfn": ["log_gamma", "polygamma1"],
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """An exported name, looked up on its submodule at each use, so it is
    always the object the submodule binds; a submodule is imported as it is
    named, as when this package imported every one of them."""
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
