"""On-disk campaign-summary cache.

Re-running an identical campaign config is pure waste: the simulation
is deterministic in its seed, so the summary is fully determined by
``(CampaignConfig, summary format version)`` — the seed rides inside
the config.  The cache keys a content hash of exactly that and stores
one JSON file per campaign:

    <dir>/<sha256-prefix>.json
        {"key": ..., "format_version": ..., "summary": {...}}

Anything unreadable — truncated writes, garbled bytes, a foreign file,
an entry from an older format version — is treated as a miss: the bad
file is **evicted** on the spot (so it cannot shadow the recomputed
entry or fail again next sweep) and ``put`` rewrites it atomically
(temp file + rename).  ``evictions`` counts how often that self-repair
fired.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional

from repro.experiments.config import CampaignConfig
from repro.experiments.summary import SUMMARY_FORMAT_VERSION, CampaignSummary
from repro.observability.telemetry import current_telemetry

#: Length of the hex-digest prefix used as the file name.
KEY_LENGTH = 32


def campaign_cache_key(config: CampaignConfig) -> str:
    """Content hash identifying one campaign's summary.

    Covers every config knob (fleet, logger, fault model, seed,
    coalescence window) plus the summary format version, via canonical
    (sorted-keys) JSON.
    """
    payload = json.dumps(
        {"config": config.to_dict(), "format_version": SUMMARY_FORMAT_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_LENGTH]


class CampaignCache:
    """A directory of cached :class:`CampaignSummary` JSON files.

    :meth:`put` is also the sharded campaign's atomic commit step: it
    stores any payload with a ``to_dict()`` (a shard result), which the
    committed-shard ledger in :mod:`repro.experiments.shard` reads back;
    :meth:`get` only ever deserializes summaries.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path_for(self, config: CampaignConfig) -> str:
        return os.path.join(self.directory, campaign_cache_key(config) + ".json")

    def get(self, config: CampaignConfig) -> Optional[CampaignSummary]:
        """The cached summary for ``config``, or ``None`` on a miss.

        A file that exists but cannot be trusted — corrupt or truncated
        JSON, a key or format-version mismatch, a summary that does not
        deserialize — is evicted before the miss is reported, so the
        recomputed entry lands in a clean slot.
        """
        key = campaign_cache_key(config)
        path = os.path.join(self.directory, key + ".json")
        tel = current_telemetry()
        lookups = (
            tel.registry.counter(
                "cache.lookups_total", help="summary-cache lookups by outcome"
            )
            if tel.metrics
            else None
        )
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            if entry.get("format_version") != SUMMARY_FORMAT_VERSION:
                raise ValueError("format version mismatch")
            summary = CampaignSummary.from_dict(entry["summary"])
        except FileNotFoundError:
            self.misses += 1
            if lookups is not None:
                lookups.inc(outcome="miss")
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # The entry existed but could not be trusted: its bytes are
            # discarded here, so account for the swallow before evicting.
            if tel.metrics:
                tel.registry.counter(
                    "dropped_total",
                    help="data discarded at except-and-continue sites",
                ).inc(site="cache.corrupt_entry")
            self._evict(path)
            self.misses += 1
            if lookups is not None:
                lookups.inc(outcome="miss")
            return None
        self.hits += 1
        if lookups is not None:
            lookups.inc(outcome="hit")
        return summary

    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            # The bad file stays on disk (permissions, a vanished dir);
            # it will fail again next sweep, so make the swallow count.
            tel = current_telemetry()
            if tel.metrics:
                tel.registry.counter(
                    "dropped_total",
                    help="data discarded at except-and-continue sites",
                ).inc(site="cache.evict_unlink")
            return
        self.evictions += 1
        tel = current_telemetry()
        if tel.metrics:
            tel.registry.counter(
                "cache.evictions_total",
                help="corrupt or stale cache entries removed",
            ).inc()

    def put(self, config: CampaignConfig, summary: CampaignSummary) -> str:
        """Store ``summary`` under ``config``'s key; returns the path."""
        key = campaign_cache_key(config)
        path = os.path.join(self.directory, key + ".json")
        entry = {
            "key": key,
            "format_version": SUMMARY_FORMAT_VERSION,
            "summary": summary.to_dict(),
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=key, suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.directory) if name.endswith(".json")
        )

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                os.unlink(os.path.join(self.directory, name))
                removed += 1
        return removed
