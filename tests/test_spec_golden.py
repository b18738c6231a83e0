"""Absolute pins of the spec serialization: campaign ids, TOML text, cache keys.

Every other round-trip test is relative (``loads(dumps(spec)) == spec``),
so a change to how spec sections are dumped would pass them all while
silently retiring every campaign id and cache entry.  These digests were
computed once and must never be regenerated to make a change pass: a
mismatch means the canonical serialized form moved.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro import api
from repro.common.config import EarlyStopPolicy
from repro.experiments.parallel import calibration_specs, scenario_specs
from repro.service.chunks import campaign_fingerprint

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: ``spec file -> (campaign_fingerprint, sha256 of to_toml())``.
GOLDEN_SPECS = {
    "batch_paper.toml": (
        "5294247142b0dd46",
        "0ce907bcfddb0f11bcdf9f3e47d0befb6efb59e3eb89bf273ca132f0dc840818",
    ),
    "distributed_paper.toml": (
        "705f2d7606be2211",
        "3a9cbc16b01914a61ae97777f3724b576c6557be3b344b5477233b2534e92144",
    ),
    "gateway_paper.toml": (
        "896172220a630275",
        "736c7973464c8eb7534df2281add11d733faeb4ec2e0a87f223e793214a9ec95",
    ),
    "live_paper.toml": (
        "4a4a8bcb50d3a5ad",
        "033f89eee3c9a742197f0d8e34646a632c3edeca1452e2af143876414c49f381",
    ),
    "multi_anomaly.toml": (
        "cf9995ac7b15425f",
        "842dd131298a3a1b4243120cd6ff4ab0751f07f181984aac8d90c090d19eeb13",
    ),
    "paper.toml": (
        "d57540e199cf460a",
        "3e49f7ebcd021712d39e2a8ae12d3c1c072645356493c0c944983aebd06d80ca",
    ),
    "response_paper.toml": (
        "ec142719f0d6aa48",
        "abc09a0cc49368bd71113d36fde39a7aba0fb3256e6e4f8bab12a93b8f75caf8",
    ),
    "seed_sweep.toml": (
        "c18bec960d283068",
        "534d73558ca995c32fb4a931f90f62b61ba87ab02790593a4e080e61e48e4f21",
    ),
}

PAPER_FIRST_CALIBRATION_KEY = (
    "86487fc67c2350350e525fdaed7ca54659841e1a8118bf10b8e27ebf6ad2e79e"
)
EARLY_STOP_RUN_KEY = (
    "83c5e8baf6c4754ec6d0974f26ab2dc9850147d5cde006a97df108ada09a7149"
)


def test_every_example_spec_is_pinned():
    assert sorted(p.name for p in SPEC_DIR.glob("*.toml")) == sorted(GOLDEN_SPECS)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_example_spec_fingerprint_and_toml_text(name):
    spec = api.load_spec(SPEC_DIR / name)
    fingerprint, toml_digest = GOLDEN_SPECS[name]
    assert campaign_fingerprint(spec) == fingerprint
    assert hashlib.sha256(spec.to_toml().encode("utf-8")).hexdigest() == toml_digest


def test_paper_calibration_cache_key():
    spec = api.load_spec(SPEC_DIR / "paper.toml")
    first = calibration_specs(spec.experiment)[0]
    assert first.cache_key() == PAPER_FIRST_CALIBRATION_KEY


def test_early_stop_run_cache_key():
    # EarlyStopPolicy.to_mapping() feeds the key of every live run.
    spec = api.load_spec(SPEC_DIR / "paper.toml")
    run = replace(
        scenario_specs(spec.experiment, spec.scenarios[0])[0],
        early_stop=EarlyStopPolicy(grace_samples=25, min_samples=0),
        live_token="golden-live-token",
    )
    assert run.cache_key() == EARLY_STOP_RUN_KEY
