"""The segment store's block cache (§4.2, Fig. 4).

Designed from scratch for append-heavy streaming workloads: traditional
caches treat each entry as an immutable blob, so appending an event would
need either its own entry or a read-modify-write.  Instead:

* The cache is divided into equal-sized **cache blocks**, each uniquely
  addressable with a 32-bit pointer.
* Blocks are **daisy-chained** to form cache entries; each block points to
  the block immediately *before* it in the chain, and the address of an
  entry is the address of its **last** block — so an append can locate the
  tail in O(1) and either fill remaining capacity in place or link a fresh
  block.
* Blocks live in pre-allocated **cache buffers** (e.g. a 2 MB buffer holds
  512 4 KB blocks); empty blocks are chained in a per-buffer free list
  (small concurrency domain), and a queue of buffers-with-available-blocks
  provides O(1) allocation across buffers.

Block content here is tracked as :class:`Payload` fragments per block, so
the layout arithmetic (fills, chains, free lists) is exactly the paper's
while synthetic benchmark payloads cost no real memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.common.errors import ReproError
from repro.common.payload import Payload

__all__ = ["CacheSpec", "BlockCache", "CacheFullError", "NO_ADDRESS"]

NO_ADDRESS = -1


def _add_fragment(fragments: List[Payload], piece: Payload) -> None:
    """Append ``piece`` to a block's fragment list, coalescing synthetic
    runs: two adjacent content-free fragments are indistinguishable from
    one of the combined size, so benchmark blocks hold a single fragment
    instead of one per append (which made reconstruction O(appends))."""
    if fragments:
        last = fragments[-1]
        if last.content is None and piece.content is None:
            fragments[-1] = Payload._trusted(last.size + piece.size, None)
            return
    fragments.append(piece)


class CacheFullError(ReproError):
    """No free blocks remain; the caller should evict and retry."""


@dataclass(frozen=True)
class CacheSpec:
    block_size: int = 4096
    blocks_per_buffer: int = 512  # 2 MB buffers
    max_buffers: int = 64  # 128 MB cache by default
    #: buffers may temporarily overflow the target by this factor so that
    #: appends of not-yet-tiered (pinned, unevictable) data never fail;
    #: the container throttles admission while the cache is overflowing
    overflow_factor: float = 1.5

    @property
    def max_blocks(self) -> int:
        return self.blocks_per_buffer * self.max_buffers

    @property
    def hard_max_buffers(self) -> int:
        return max(int(self.max_buffers * self.overflow_factor), self.max_buffers + 1)

    @property
    def capacity_bytes(self) -> int:
        return self.max_blocks * self.block_size


class _Buffer:
    """One contiguous region: block metadata + per-block payload fragments."""

    __slots__ = ("index", "used", "length", "prev", "next_free", "free_head", "free_count", "fragments")

    def __init__(self, index: int, blocks: int) -> None:
        self.index = index
        self.used = [False] * blocks
        self.length = [0] * blocks
        self.prev = [NO_ADDRESS] * blocks
        self.next_free = [i + 1 for i in range(blocks)]
        self.next_free[-1] = NO_ADDRESS
        self.free_head = 0
        self.free_count = blocks
        self.fragments: List[Optional[List[Payload]]] = [None] * blocks

    def allocate(self) -> int:
        block = self.free_head
        assert block != NO_ADDRESS
        self.free_head = self.next_free[block]
        self.next_free[block] = NO_ADDRESS
        self.used[block] = True
        self.length[block] = 0
        self.prev[block] = NO_ADDRESS
        self.fragments[block] = []
        self.free_count -= 1
        return block

    def free(self, block: int) -> None:
        assert self.used[block]
        self.used[block] = False
        self.length[block] = 0
        self.prev[block] = NO_ADDRESS
        self.fragments[block] = None
        self.next_free[block] = self.free_head
        self.free_head = block
        self.free_count += 1


class BlockCache:
    """The Fig. 4 cache: buffers of daisy-chained blocks."""

    def __init__(self, spec: Optional[CacheSpec] = None) -> None:
        self.spec = spec or CacheSpec()
        self._buffers: List[_Buffer] = []
        #: queue of buffer indices that have free blocks (Fig. 4's
        #: "queue of cache buffers with available blocks")
        self._available: Deque[int] = deque()
        self._used_blocks = 0
        self.inserts = 0
        self.appends = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Address arithmetic: addr = buffer_index * blocks_per_buffer + block
    # ------------------------------------------------------------------
    def _split(self, address: int) -> tuple[_Buffer, int]:
        buffer_index, block = divmod(address, self.spec.blocks_per_buffer)
        if not (0 <= buffer_index < len(self._buffers)):
            raise ReproError(f"bad cache address {address}")
        buffer = self._buffers[buffer_index]
        if not buffer.used[block]:
            raise ReproError(f"cache address {address} points at a free block")
        return buffer, block

    def _join(self, buffer: _Buffer, block: int) -> int:
        return buffer.index * self.spec.blocks_per_buffer + block

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @property
    def used_blocks(self) -> int:
        return self._used_blocks

    @property
    def used_bytes(self) -> int:
        return self._used_blocks * self.spec.block_size

    @property
    def free_blocks(self) -> int:
        return self.spec.max_blocks - self._used_blocks

    @property
    def overflowing(self) -> bool:
        """Above the target capacity (ingestion should be throttled)."""
        return self._used_blocks > self.spec.max_blocks

    def _allocate_block(self) -> tuple[_Buffer, int]:
        """One free block; the caller has checked the room (:meth:`_check_room`)."""
        while self._available:
            buffer = self._buffers[self._available[0]]
            if buffer.free_count > 0:
                block = buffer.allocate()
                if buffer.free_count == 0:
                    self._available.popleft()
                self._used_blocks += 1
                return buffer, block
            self._available.popleft()
        assert len(self._buffers) < self.spec.hard_max_buffers
        buffer = _Buffer(len(self._buffers), self.spec.blocks_per_buffer)
        self._buffers.append(buffer)
        self._available.append(buffer.index)
        return self._allocate_block()

    def _check_room(self, blocks: int) -> None:
        """Raise :class:`CacheFullError` unless ``blocks`` more blocks fit
        under the hard cap, so a failed insert or append changes nothing."""
        spec = self.spec
        if self._used_blocks + blocks > spec.hard_max_buffers * spec.blocks_per_buffer:
            raise CacheFullError(
                f"cache full: {self._used_blocks} blocks, {blocks} more needed "
                f"(target {spec.max_blocks}, hard cap reached)"
            )

    def _release_block(self, buffer: _Buffer, block: int) -> None:
        had_free = buffer.free_count > 0
        buffer.free(block)
        self._used_blocks -= 1
        if not had_free:
            self._available.append(buffer.index)

    # ------------------------------------------------------------------
    # Entry operations
    # ------------------------------------------------------------------
    def insert(self, payload: Payload) -> int:
        """Store a new entry; returns its address (the last block's)."""
        block_size = self.spec.block_size
        # an empty entry still takes one block
        self._check_room(max(1, -(-payload.size // block_size)))
        self.inserts += 1
        address = NO_ADDRESS
        offset = 0
        while True:
            buffer, block = self._allocate_block()
            take = min(block_size, payload.size - offset)
            if take > 0:
                _add_fragment(
                    buffer.fragments[block], payload.slice(offset, offset + take)
                )
            buffer.length[block] = take
            buffer.prev[block] = address
            address = self._join(buffer, block)
            offset += take
            if offset >= payload.size:
                return address

    def append(self, address: int, payload: Payload) -> int:
        """Append to an existing entry; returns the (possibly new) address.

        O(1) to locate the tail: the entry's address *is* its last block.
        """
        buffer, block = self._split(address)
        block_size = self.spec.block_size
        space = block_size - buffer.length[block]
        self._check_room(-(-max(payload.size - space, 0) // block_size))
        self.appends += 1
        offset = 0
        # Fill remaining capacity of the last block in place.
        if space > 0 and payload.size > 0:
            take = min(space, payload.size)
            _add_fragment(buffer.fragments[block], payload.slice(0, take))
            buffer.length[block] += take
            offset = take
        current = address
        while offset < payload.size:
            new_buffer, new_block = self._allocate_block()
            take = min(block_size, payload.size - offset)
            _add_fragment(
                new_buffer.fragments[new_block],
                payload.slice(offset, offset + take),
            )
            new_buffer.length[new_block] = take
            new_buffer.prev[new_block] = current
            current = self._join(new_buffer, new_block)
            offset += take
        return current

    def get(self, address: int) -> Payload:
        """Reconstruct the whole entry by walking the chain backwards."""
        pieces: List[Payload] = []
        current = address
        while current != NO_ADDRESS:
            buffer, block = self._split(current)
            frags = buffer.fragments[block]
            pieces.append(frags[0] if len(frags) == 1 else Payload.concat(frags))
            current = buffer.prev[block]
        pieces.reverse()
        return Payload.concat(pieces)

    def read_range(self, address: int, start: int, end: int, length: int) -> Payload:
        """Bytes ``[start, end)`` of the entry at ``address``, whose total
        size is ``length``.

        The chain is addressed from its *last* block, so the walk visits
        only the suffix overlapping the range — a tail read of an entry
        touches O(range / block_size) blocks instead of reconstructing
        the whole entry as :meth:`get` + slice would.
        """
        if not (0 <= start <= end <= length):
            raise ReproError(f"bad range [{start}, {end}) of {length} bytes")
        if start == end:
            return Payload.empty()
        pieces: List[Payload] = []
        current = address
        block_end = length
        while current != NO_ADDRESS and block_end > start:
            buffer, block = self._split(current)
            blen = buffer.length[block]
            block_start = block_end - blen
            if blen and block_start < end:
                lo = start - block_start if start > block_start else 0
                hi = blen if end >= block_end else end - block_start
                frags = buffer.fragments[block]
                if len(frags) == 1:
                    frag = frags[0]
                    piece = frag if lo == 0 and hi == blen else frag.slice(lo, hi)
                else:
                    piece = Payload.concat(frags).slice(lo, hi)
                pieces.append(piece)
            current = buffer.prev[block]
            block_end = block_start
        if len(pieces) == 1:
            return pieces[0]
        pieces.reverse()
        return Payload.concat(pieces)

    def entry_size(self, address: int) -> int:
        total = 0
        current = address
        while current != NO_ADDRESS:
            buffer, block = self._split(current)
            total += buffer.length[block]
            current = buffer.prev[block]
        return total

    def delete(self, address: int) -> int:
        """Free every block of the entry; returns bytes released."""
        released = 0
        current = address
        while current != NO_ADDRESS:
            buffer, block = self._split(current)
            previous = buffer.prev[block]
            released += buffer.length[block]
            self._release_block(buffer, block)
            current = previous
        self.evictions += 1
        return released

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Free lists and used blocks partition each buffer; chains acyclic."""
        for buffer in self._buffers:
            free_seen = set()
            cursor = buffer.free_head
            while cursor != NO_ADDRESS:
                assert cursor not in free_seen, "free list cycle"
                assert not buffer.used[cursor], "used block on free list"
                free_seen.add(cursor)
                cursor = buffer.next_free[cursor]
            assert len(free_seen) == buffer.free_count
            used = sum(1 for u in buffer.used if u)
            assert used + buffer.free_count == self.spec.blocks_per_buffer
