"""Shared benchmark fixtures.

The paper-scale campaign is simulated once per session; each benchmark
then measures an analysis step (a section bench times the whole
``build_report`` fold) and reports on its own section, printing the
paper-vs-measured comparison for the table or figure it regenerates.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import CampaignResult, run_campaign
from repro.experiments.config import CampaignConfig
from repro.forum.corpus import CorpusConfig, generate_corpus


@pytest.fixture(scope="session")
def campaign() -> CampaignResult:
    """The 25-phone, 14-month campaign (run once)."""
    return run_campaign(CampaignConfig.paper_scale(seed=2005))


@pytest.fixture(scope="session")
def forum_posts():
    """The §4 forum corpus (533 failure reports + chatter)."""
    return generate_corpus(CorpusConfig(), seed=2003)


def emit(benchmark, comparison) -> None:
    """Print a comparison table and attach it to the benchmark record."""
    text = comparison.render()
    print()
    print(text)
    benchmark.extra_info["comparison"] = text
    benchmark.extra_info["max_deviation_factor"] = round(
        comparison.max_deviation_factor(), 3
    )
