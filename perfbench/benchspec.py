"""Campaign specs of the benchmark, instantiated for one ``--seed``.

The TOML files under ``specs/`` fix the work; the seed picks the campaign
root seed (and with it every run seed and the replayed runs), and the
run's work directory holds the result cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib  # type: ignore[no-redef]

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: The paper's root seed; ``--seed 0`` runs the campaign at it.
BASE_SEED = 2016


def root_seed(seed: int) -> int:
    """The campaign root seed a benchmark ``--seed`` selects."""
    return BASE_SEED + int(seed) % 1_000_000


def spec_mapping(
    name: str,
    seed: int,
    cache_dir: Optional[str] = None,
    mspc: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The mapping of ``specs/<name>.toml`` at one seed and cache directory."""
    with open(SPEC_DIR / f"{name}.toml", "rb") as handle:
        mapping = tomllib.load(handle)
    experiment = mapping["experiment"]
    experiment["seed"] = root_seed(seed)
    experiment["simulation"]["seed"] = root_seed(seed)
    if cache_dir is not None:
        experiment["parallel"]["cache_dir"] = str(cache_dir)
    if mspc:
        experiment["mspc"].update(mspc)
    return mapping


def load(name: str, seed: int, cache_dir: Optional[str] = None, mspc=None):
    """The :class:`~repro.api.spec.CampaignSpec` of ``specs/<name>.toml``."""
    from repro.api.spec import CampaignSpec

    return CampaignSpec.from_mapping(spec_mapping(name, seed, cache_dir, mspc))
