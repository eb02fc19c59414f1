"""vesselsyn: online compression of vessel position streams into annotated
critical points, plus an evolutionary tuner for the detection parameters.

The package root holds the quick-start and streaming names; everything else
is imported from its submodule (``vesselsyn.ga``, ``vesselsyn.synthetic``, ...).
"""

from .evaluation import compute_metrics, evaluate_config
from .ingest import load_records, partition_tracks
from .noise import filter_dataset
from .synopses import SynopsisConfig, VesselState, compress_track, finalize_track, ingest_point

__version__ = "0.1.0"
