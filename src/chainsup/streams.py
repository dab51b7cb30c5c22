"""Splittable, reproducible random streams.

Every sampled quantity in the package is driven by an (master_seed,
stream_id) pair.  Distinct stream ids give statistically independent
streams; the same pair always reproduces bitwise-identical draws.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named substream of a master seed."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream) pair.

        A new call always restarts the stream, so repeated sampling with
        the same stream is reproducible by construction.
        """
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
        )

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id * 1000003 + offset + 1)


_REPR_CHUNK = 1 << 20  # bytes of a bytes token whose repr is built at once


def derived_stream(master_seed: int, *tokens) -> RngStream:
    """Deterministic stream id from arbitrary hashable tokens.

    Used where an operation needs internal randomness but its interface
    carries no stream (e.g. Monte-Carlo increment norms): the stream is a
    stable function of the inputs.  The id hashes the characters of
    repr(tokens), fed to SHA-256 token by token, and a bytes token's repr
    chunk by chunk, so a large token costs O(_REPR_CHUNK) memory beyond
    itself, not a repr four times its size.
    """
    h = hashlib.sha256(b"(")
    for k, tok in enumerate(tokens):
        if k:
            h.update(b", ")
        if type(tok) is bytes:
            _hash_bytes_repr(h, tok)
        else:
            h.update(repr(tok).encode())
    h.update(b",)" if len(tokens) == 1 else b")")
    return RngStream(master_seed, int.from_bytes(h.digest()[:8], "little") >> 1)


def _hash_bytes_repr(h, tok: bytes) -> None:
    """h.update(repr(tok).encode()), one chunk of `tok` at a time.

    repr escapes each byte on its own, given the quote, and picks the quote
    from the whole token: '"' if it holds a ' and no ", else '.  A chunk
    whose own repr picked '"' where the whole picks ' has its ' escaped.
    """
    q = '"' if b"'" in tok and b'"' not in tok else "'"
    h.update(f"b{q}".encode())
    for lo in range(0, len(tok), _REPR_CHUNK):
        text = repr(tok[lo:lo + _REPR_CHUNK])
        body = text[2:-1]
        h.update((body if text[1] == q else body.replace("'", "\\'")).encode())
    h.update(q.encode())
