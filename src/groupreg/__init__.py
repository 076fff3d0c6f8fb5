"""Probabilistic symmetric group-wise registration to a latent GP template."""

__version__ = "0.1.0"

from .config import RunConfig, load_config, parse_config
from .grids import ActivationMap, Lattice, make_lattice_1d, read_map_csv, write_map_csv
from .model import Hyperparams, gibbs_log_posterior, waic
from .sampler import Chain, summarize
from .spatial import CovarianceParams, build_neighbor_library, dense_kriging
from .store import SampleStore, export_csv, load_store, save_store
from .synth import ScenarioSpec, generate
from .transforms import (AffineTransform, affine_apply, affine_compose,
                         affine_inverse, karcher_mean, lie_exp, lie_log, standardize)

__all__ = [
    "ActivationMap", "AffineTransform", "Chain", "CovarianceParams",
    "Hyperparams", "Lattice", "RunConfig", "SampleStore", "ScenarioSpec",
    "affine_apply", "affine_compose", "affine_inverse",
    "build_neighbor_library", "dense_kriging", "export_csv", "generate",
    "gibbs_log_posterior", "karcher_mean", "lie_exp", "lie_log", "load_config",
    "load_store", "make_lattice_1d", "parse_config", "read_map_csv", "save_store",
    "standardize", "summarize", "waic", "write_map_csv",
]
