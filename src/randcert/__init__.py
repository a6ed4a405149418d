"""randcert: randomness certification of binary sequences.

Borel-normality testing, Bayesian model selection over partition-induced
generative models, the coupled Bayesian frequency bound, time-tag parity
extraction, and seedable synthetic generators reproducing the detector
failure modes (after-pulsing, dead time).
"""

from .bitstream import BitSequence, load_ascii, load_packed, write_ascii, write_packed
from .blockstats import (
    BlockCounts,
    count_blocks,
    count_blocks_parallel,
    level_counts,
    max_borel_level,
    merge_counts,
    stream_level_counts,
)
from .borel import BorelLevelReport, borel_bound, borel_deviations, borel_test
from .bayes import (
    BayesBoundReport,
    PosteriorTable,
    bayes_bound_lhs,
    bayes_bound_rhs,
    bayes_bound_test,
    log_marginal,
    posterior,
)
from .extract import (
    DensitySpec,
    TimeTagSeries,
    interarrivals,
    parity_bias_estimate,
    timetags_to_bits,
)
from .partitions import PartitionModel, bell_number, enumerate_partitions
from .simgen import GeneratorConfig, gen_bernoulli, gen_detector, gen_markov
from .specialfn import log_gamma, polygamma1

__version__ = "0.1.0"

__all__ = [
    "BitSequence",
    "BlockCounts",
    "BorelLevelReport",
    "BayesBoundReport",
    "PosteriorTable",
    "PartitionModel",
    "TimeTagSeries",
    "DensitySpec",
    "GeneratorConfig",
    "load_ascii",
    "load_packed",
    "write_ascii",
    "write_packed",
    "count_blocks",
    "count_blocks_parallel",
    "level_counts",
    "merge_counts",
    "stream_level_counts",
    "max_borel_level",
    "borel_bound",
    "borel_deviations",
    "borel_test",
    "bayes_bound_lhs",
    "bayes_bound_rhs",
    "bayes_bound_test",
    "log_marginal",
    "posterior",
    "bell_number",
    "enumerate_partitions",
    "interarrivals",
    "timetags_to_bits",
    "parity_bias_estimate",
    "gen_bernoulli",
    "gen_markov",
    "gen_detector",
    "log_gamma",
    "polygamma1",
]
