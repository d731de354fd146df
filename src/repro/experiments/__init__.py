"""Campaign orchestration and paper ground truth.

* :mod:`config`   — the campaign configuration (25 phones, 14 months).
* :mod:`campaign` — run fleet -> collect -> analyse in one call.
* :mod:`summary`  — :class:`CampaignSummary`, the serializable snapshot.
* :mod:`runner`   — :func:`run_campaigns`, the parallel multi-seed
  runner, plus :func:`run_campaigns_resilient` and its
  :class:`SweepManifest` of partial results and structured failures.
* :mod:`cache`    — the commit store workers write shard results to.
* :mod:`executors` — the work-stealing work-queue executor every
  multi-campaign run goes through (in-process when ``workers == 1``).
* :mod:`shard`    — sharded mega-fleet campaigns with work stealing,
  durable commits (kill-9 resumable), and spill-to-disk merge.
* :mod:`paper`    — the paper's published numbers, as data.
* :mod:`compare`  — paper-vs-measured comparison tables.
"""

from repro.experiments.cache import CampaignCache, campaign_cache_key
from repro.experiments.campaign import CampaignResult, run_campaign
from repro.experiments.compare import (
    Comparison,
    ComparisonRow,
    headline_comparison,
)
from repro.experiments.config import CampaignConfig
from repro.experiments.executors import (
    EXECUTOR_WORKQUEUE,
    ExecutorStats,
    WorkQueueExecutor,
)
from repro.experiments.runner import (
    CampaignExecutionError,
    CampaignFailure,
    SweepManifest,
    run_campaigns,
    run_campaigns_resilient,
)
from repro.experiments.shard import (
    CommittedShard,
    MegafleetResult,
    ShardResult,
    ShardTask,
    load_shard_file,
    merge_shard_files,
    plan_shards,
    run_sharded_campaign,
    scan_committed_shards,
)
from repro.experiments.summary import (
    HEADLINE_KEYS,
    CampaignSummary,
    headline_figures,
)

__all__ = [
    "CampaignCache",
    "CampaignConfig",
    "CampaignExecutionError",
    "CampaignFailure",
    "CampaignResult",
    "CampaignSummary",
    "HEADLINE_KEYS",
    "SweepManifest",
    "campaign_cache_key",
    "headline_figures",
    "run_campaign",
    "run_campaigns",
    "run_campaigns_resilient",
    "Comparison",
    "ComparisonRow",
    "headline_comparison",
    "EXECUTOR_WORKQUEUE",
    "ExecutorStats",
    "WorkQueueExecutor",
    "CommittedShard",
    "MegafleetResult",
    "ShardResult",
    "ShardTask",
    "load_shard_file",
    "merge_shard_files",
    "plan_shards",
    "run_sharded_campaign",
    "scan_committed_shards",
]
