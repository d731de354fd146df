"""The commit store: where workers durably write shard results.

Every campaign — one seed of a sweep or one slice of a mega-fleet —
runs as shard tasks whose results are committed here before the worker
acknowledges them.  A commit is keyed by a content hash of the shard's
config (the seed and phone range ride inside it) and stored as one JSON
file per shard:

    <dir>/<sha256-prefix>.json
        {"sha256": ..., "key": ..., "format_version": ..., "summary": {...}}

The leading ``sha256`` is the digest of every byte after it (the key,
the envelope version and the result), so :func:`read_commit` refuses a
garbled byte anywhere in the commit before it parses a thing.
:meth:`CampaignCache.put` writes atomically (temp file + rename), so a
reader sees a whole commit or none.  Reading commits back — validation,
adoption on resume, the merge — is the committed-shard ledger in
:mod:`repro.experiments.shard`; a torn, garbled, foreign or stale file
is simply not adopted and its range is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, BinaryIO, Dict

from repro.experiments.config import CampaignConfig
from repro.experiments.summary import SUMMARY_FORMAT_VERSION

#: Length of the hex-digest prefix used as the file name.
KEY_LENGTH = 32

#: Version of the commit envelope.  v3 leads with the ``sha256``
#: checksum; a commit of any other version is not adopted.
COMMIT_FORMAT_VERSION = 3

#: A commit's bytes open with this, then the 64 hex digits and ``"``.
_DIGEST_HEAD = b'{"sha256": "'


def campaign_cache_key(config: CampaignConfig) -> str:
    """Content hash identifying one committed result.

    Covers every config knob (fleet and its phone range, logger, fault
    model, seed, coalescence window) plus the summary format version,
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
        fd, tmp_path = tempfile.mkstemp(
            prefix=key, suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                write_commit(
                    handle,
                    {
                        "key": key,
                        "format_version": COMMIT_FORMAT_VERSION,
                        "summary": result.to_dict(),
                    },
                )
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return path


def write_commit(handle: BinaryIO, envelope: Dict[str, Any]) -> None:
    """Write one commit to ``handle``: the checksum, then ``envelope``.

    The digest covers every byte after its closing quote: ``, `` and
    the envelope's JSON without its opening brace.
    """
    # dumps, not dump: json.dump always takes the pure-Python
    # iterencode path; dumps uses the C encoder (~4x faster).  Its
    # output is ASCII (``ensure_ascii``).  The views copy nothing.
    rest = memoryview(json.dumps(envelope).encode("ascii"))[1:]
    digest = hashlib.sha256(b", ")
    digest.update(rest)
    handle.write(_DIGEST_HEAD + digest.hexdigest().encode("ascii") + b'", ')
    handle.write(rest)


def read_commit(path: str) -> Dict[str, Any]:
    """The envelope of one commit file, checksum verified first.

    Raises :class:`ValueError` when the bytes do not match their
    digest (a torn or garbled commit, or one written before commits
    carried a checksum) or the envelope is of another version;
    :class:`OSError` when the file cannot be read.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    end = len(_DIGEST_HEAD) + 64  # the digest's closing quote
    if not data.startswith(_DIGEST_HEAD) or data[end : end + 1] != b'"':
        raise ValueError("commit carries no checksum")
    digest = hashlib.sha256(memoryview(data)[end + 1 :]).hexdigest()
    if digest.encode("ascii") != data[len(_DIGEST_HEAD) : end]:
        raise ValueError("commit checksum mismatch")
    entry = json.loads(data)
    version = entry.get("format_version")
    if version != COMMIT_FORMAT_VERSION:
        raise ValueError(f"commit envelope format {version!r}")
    return entry
