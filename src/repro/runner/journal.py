"""Append-only JSONL journal with an integrity hash chain.

Every record is one JSON line carrying three bookkeeping fields the
journal adds itself: a monotonically increasing ``seq``, the previous
record's ``hash`` as ``prev``, and its own ``hash`` — SHA-256 over the
canonical JSON of the record (sans hash) concatenated with ``prev``.
The chain makes two crash modes detectable:

* a torn tail (the process died mid-``write``): the last line fails to
  parse or verify and is discarded on resume;
* silent tampering/corruption anywhere earlier: verification stops at
  the first bad record and everything after it is treated as lost.

Appends are flushed *and fsynced* before :meth:`Journal.append`
returns, so a record the campaign acted on is durable by the time any
observable side effect exists.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Tuple

from .errors import JournalError

#: ``prev`` value of the first record in every journal.
GENESIS = "genesis"

#: Hex digits of SHA-256 kept per record.
HASH_WIDTH = 16


def canonical_json(record: Dict) -> str:
    """Key-sorted, separator-normalized JSON — the hashed byte form."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def chain_hash(prev: str, body: str) -> str:
    digest = hashlib.sha256(f"{prev}|{body}".encode("utf-8")).hexdigest()
    return digest[:HASH_WIDTH]


class Journal:
    """One campaign's durable, verifiable record stream."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._prev = GENESIS
        self._seq = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path: str) -> "Journal":
        """Start a fresh journal; refuses to clobber an existing one."""
        if os.path.exists(path):
            raise JournalError(
                f"journal already exists: {path} (resume it, or pick a "
                f"fresh run directory)")
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8"):
            pass
        return cls(path)

    @classmethod
    def resume(cls, path: str) -> Tuple["Journal", List[Dict], int]:
        """Reopen an existing journal.

        Returns ``(journal, records, discarded)`` where *records* is the
        verified prefix and *discarded* counts corrupt tail lines that
        were dropped (and physically truncated, so the chain continues
        from the last good record).
        """
        if not os.path.exists(path):
            raise JournalError(f"no journal to resume at {path}")
        records, discarded = cls.load(path)
        journal = cls(path)
        if records:
            journal._prev = records[-1]["hash"]
            journal._seq = records[-1]["seq"] + 1
        if discarded:
            with open(path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(canonical_json(record) + "\n")
        return journal, records, discarded

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @staticmethod
    def load(path: str) -> Tuple[List[Dict], int]:
        """Verified records plus the count of discarded (bad) lines.

        Verification stops at the first line that fails to parse, whose
        hash does not match its content, or that breaks the
        ``seq``/``prev`` chain; that line and everything after it are
        counted as discarded.
        """
        records: List[Dict] = []
        discarded = 0
        prev = GENESIS
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                discarded = len(lines) - index
                break
            claimed = record.get("hash")
            body = {k: v for k, v in record.items() if k != "hash"}
            if (record.get("seq") != len(records)
                    or record.get("prev") != prev
                    or claimed != chain_hash(prev, canonical_json(body))):
                discarded = len(lines) - index
                break
            records.append(record)
            prev = claimed
        return records, discarded

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, record: Dict) -> Dict:
        """Chain, write, flush and fsync one record; returns it."""
        record = dict(record)
        record["seq"] = self._seq
        record["prev"] = self._prev
        record["hash"] = chain_hash(self._prev,
                                    canonical_json(
                                        {k: v for k, v in record.items()
                                         if k != "hash"}))
        line = canonical_json(record)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._prev = record["hash"]
        self._seq += 1
        return record
