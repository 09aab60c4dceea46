"""Blocks and block headers.

Headers carry the PoW fields (difficulty, nonce), chain linkage (parent
hash, number), the transaction Merkle root, and a post-execution state root
— the pieces Figure 2 of the paper exercises: a leader forms a block
candidate, broadcasts it, and other peers verify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain.crypto import Address
from repro.chain.merkle import merkle_root
from repro.chain.transaction import Transaction
from repro.utils.hashing import keccak_like
from repro.utils.serialization import canonical_dumps

#: Parent hash of the genesis block.
GENESIS_PARENT = "0x" + "00" * 32


@dataclass
class BlockHeader:
    """Consensus-relevant block metadata.

    ``block_hash`` is memoized on the instance and dropped when any field
    is assigned (every field is an immutable scalar and every field feeds
    the hash), so sealing a nonce or tampering with a header still changes
    it — the way :class:`~repro.chain.transaction.Transaction` memoizes
    its digest.
    """

    parent_hash: str
    number: int
    timestamp: float
    miner: Address
    difficulty: int
    tx_root: str
    state_root: str
    gas_used: int = 0
    gas_limit: int = 10**15
    nonce: int = 0
    extra: str = ""

    def __setattr__(self, name: str, value: Any) -> None:
        self.__dict__.pop("_block_hash", None)
        object.__setattr__(self, name, value)

    def sealing_payload(self) -> bytes:
        """Canonical bytes of everything but the nonce (what a seal covers)."""
        return canonical_dumps(
            {
                "parent_hash": self.parent_hash,
                "number": self.number,
                "timestamp": self.timestamp,
                "miner": self.miner,
                "difficulty": self.difficulty,
                "tx_root": self.tx_root,
                "state_root": self.state_root,
                "gas_used": self.gas_used,
                "gas_limit": self.gas_limit,
                "extra": self.extra,
            }
        )

    @property
    def block_hash(self) -> str:
        """Hash over the sealed header (payload + nonce)."""
        cached = self.__dict__.get("_block_hash")
        if cached is None:
            cached = keccak_like(self.sealing_payload() + self.nonce.to_bytes(8, "big"))
            self.__dict__["_block_hash"] = cached
        return cached

    def to_dict(self) -> dict:
        """Canonical-serializable form (cold storage and sync payloads)."""
        return {
            "parent_hash": self.parent_hash,
            "number": self.number,
            "timestamp": self.timestamp,
            "miner": self.miner,
            "difficulty": self.difficulty,
            "tx_root": self.tx_root,
            "state_root": self.state_root,
            "gas_used": self.gas_used,
            "gas_limit": self.gas_limit,
            "nonce": self.nonce,
            "extra": self.extra,
        }

    @staticmethod
    def from_dict(payload: dict) -> "BlockHeader":
        """Inverse of :meth:`to_dict`."""
        return BlockHeader(**payload)


@dataclass
class Block:
    """A full block: header plus ordered transaction list."""

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)

    @property
    def block_hash(self) -> str:
        """Hash of the sealed header."""
        return self.header.block_hash

    @property
    def number(self) -> int:
        """Height of this block."""
        return self.header.number

    def tx_hashes(self) -> list[bytes]:
        """Raw transaction-hash leaves for the Merkle tree."""
        return [bytes.fromhex(tx.tx_hash[2:]) for tx in self.transactions]

    def compute_tx_root(self) -> str:
        """Merkle root over the block's transactions."""
        return "0x" + merkle_root(self.tx_hashes()).hex()

    def body_matches_header(self) -> bool:
        """True iff the header's tx_root commits to the actual body."""
        return self.header.tx_root == self.compute_tx_root()

    def to_dict(self) -> dict:
        """Canonical-serializable form (cold storage and sync payloads)."""
        return {
            "header": self.header.to_dict(),
            "transactions": [tx.to_dict() for tx in self.transactions],
        }

    @staticmethod
    def from_dict(payload: dict) -> "Block":
        """Inverse of :meth:`to_dict`."""
        return Block(
            header=BlockHeader.from_dict(payload["header"]),
            transactions=[Transaction.from_dict(tx) for tx in payload["transactions"]],
        )


def make_genesis(state_root: str, timestamp: float = 0.0, difficulty: int = 1) -> Block:
    """Construct the genesis block for a given initial state root."""
    header = BlockHeader(
        parent_hash=GENESIS_PARENT,
        number=0,
        timestamp=timestamp,
        miner="0x" + "00" * 20,
        difficulty=difficulty,
        tx_root="0x" + merkle_root([]).hex(),
        state_root=state_root,
        extra="genesis",
    )
    return Block(header=header, transactions=[])
