"""Deterministic splittable random streams.

Every draw hashes the stream key and a counter, so results depend only on
the seed and the labels along the path to the stream, never on how many
draws a sibling stream made.  That keeps sampled checks byte-for-byte
reproducible even when parts of a run are skipped.  BLAKE2b comes from the
built-in `_blake2`; `hashlib` re-exports it, but loads OpenSSL (3.5 MB) too.
"""

from _blake2 import blake2b


class DetRng:
    def __init__(self, key: str):
        self.key = key
        self._n = 0

    @classmethod
    def from_seed(cls, seed: int) -> "DetRng":
        return cls(f"seed:{seed}")

    def child(self, label) -> "DetRng":
        return DetRng(f"{self.key}/{label}")

    def _next(self) -> int:
        word = f"{self.key}#{self._n}".encode()
        self._n += 1
        return int.from_bytes(blake2b(word, digest_size=8).digest(), "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform over the inclusive range."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self._next() % (hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]
