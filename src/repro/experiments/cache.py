"""The commit store: where workers durably write shard results.

Every campaign — one seed of a sweep or one slice of a mega-fleet —
runs as shard tasks whose results are committed here before the worker
acknowledges them.  A commit is keyed by a content hash of the shard's
config (the seed and phone range ride inside it) and stored as one JSON
file per shard:

    <dir>/<sha256-prefix>.json
        {"key": ..., "format_version": ..., "summary": {...}}

:meth:`CampaignCache.put` writes atomically (temp file + rename), so a
reader sees a whole commit or none.  Reading commits back — validation,
adoption on resume, the merge — is the committed-shard ledger in
:mod:`repro.experiments.shard`; a torn, foreign or stale file is simply
not adopted and its range is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro.experiments.config import CampaignConfig
from repro.experiments.summary import SUMMARY_FORMAT_VERSION

#: Length of the hex-digest prefix used as the file name.
KEY_LENGTH = 32


def campaign_cache_key(config: CampaignConfig) -> str:
    """Content hash identifying one committed result.

    Covers every config knob (fleet and its phone range, logger, fault
    model, seed, coalescence window) plus the envelope format version,
    via canonical (sorted-keys) JSON.
    """
    payload = json.dumps(
        {"config": config.to_dict(), "format_version": SUMMARY_FORMAT_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:KEY_LENGTH]


class CampaignCache:
    """A run directory of committed shard results (write side only)."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path_for(self, config: CampaignConfig) -> str:
        return os.path.join(self.directory, campaign_cache_key(config) + ".json")

    def put(self, config: CampaignConfig, result) -> str:
        """Commit ``result.to_dict()`` under ``config``'s key; returns
        the path."""
        key = campaign_cache_key(config)
        path = os.path.join(self.directory, key + ".json")
        entry = {
            "key": key,
            "format_version": SUMMARY_FORMAT_VERSION,
            "summary": result.to_dict(),
        }
        fd, tmp_path = tempfile.mkstemp(
            prefix=key, suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # dumps, not dump: json.dump always takes the pure-Python
                # iterencode path; dumps uses the C encoder (~4x faster).
                handle.write(json.dumps(entry))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path
