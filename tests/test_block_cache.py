"""Tests for the Fig. 4 block cache: chaining, O(1) appends, free lists."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.payload import Payload
from repro.pravega.container.cache import BlockCache, CacheFullError, CacheSpec


@pytest.fixture()
def cache():
    return BlockCache(CacheSpec(block_size=16, blocks_per_buffer=8, max_buffers=4))


class TestInsertGet:
    def test_small_entry_roundtrip(self, cache):
        address = cache.insert(Payload.of(b"hello"))
        assert cache.get(address).content == b"hello"
        assert cache.used_blocks == 1

    def test_empty_entry(self, cache):
        address = cache.insert(Payload.empty())
        assert cache.get(address).size == 0
        assert cache.used_blocks == 1  # occupies one (empty) block

    def test_multi_block_entry_spans_chain(self, cache):
        data = bytes(range(50))  # 4 blocks of 16
        address = cache.insert(Payload.of(data))
        assert cache.get(address).content == data
        assert cache.used_blocks == 4

    def test_entry_spanning_buffers(self, cache):
        data = b"x" * (16 * 12)  # 12 blocks > one 8-block buffer
        address = cache.insert(Payload.of(data))
        assert cache.get(address).content == data
        assert cache.used_blocks == 12

    def test_synthetic_payload_tracked_by_size(self, cache):
        address = cache.insert(Payload.synthetic(100))
        result = cache.get(address)
        assert result.size == 100 and result.is_synthetic
        assert cache.entry_size(address) == 100


class TestAppend:
    def test_append_fills_last_block_in_place(self, cache):
        address = cache.insert(Payload.of(b"12345678"))  # half a block
        new_address = cache.append(address, Payload.of(b"abcdefgh"))
        assert new_address == address  # no new block needed
        assert cache.get(new_address).content == b"12345678abcdefgh"
        assert cache.used_blocks == 1

    def test_append_allocates_new_blocks_when_full(self, cache):
        address = cache.insert(Payload.of(b"x" * 16))
        new_address = cache.append(address, Payload.of(b"y" * 20))
        assert new_address != address
        assert cache.get(new_address).content == b"x" * 16 + b"y" * 20
        assert cache.used_blocks == 3

    def test_many_appends_preserve_order(self, cache):
        address = cache.insert(Payload.of(b""))
        expected = b""
        for i in range(30):
            piece = bytes([i]) * 3
            address = cache.append(address, Payload.of(piece))
            expected += piece
        assert cache.get(address).content == expected

    def test_address_is_last_block(self, cache):
        """Fig. 4: the entry address is its last block, making appends O(1)."""
        address = cache.insert(Payload.of(b"z" * 40))  # 3 blocks
        buffer_index, block = divmod(address, cache.spec.blocks_per_buffer)
        buffer = cache._buffers[buffer_index]
        assert buffer.length[block] == 40 - 32  # last block holds the tail
        assert buffer.prev[block] != -1


class TestDelete:
    def test_delete_releases_all_blocks(self, cache):
        address = cache.insert(Payload.of(b"x" * 100))
        used = cache.used_blocks
        released = cache.delete(address)
        assert released == 100
        assert cache.used_blocks == used - 7

    def test_blocks_are_reused_after_delete(self, cache):
        first = cache.insert(Payload.of(b"x" * 16 * 8))
        cache.delete(first)
        second = cache.insert(Payload.of(b"y" * 16 * 8))
        assert cache.get(second).content == b"y" * 16 * 8
        assert cache.used_blocks == 8

    def test_overflow_allowed_up_to_hard_cap(self, cache):
        total = cache.spec.max_blocks * cache.spec.block_size
        cache.insert(Payload.synthetic(total))
        assert not cache.overflowing
        cache.insert(Payload.of(b"one more"))  # soft overflow is fine
        assert cache.overflowing

    def test_cache_full_raises_at_hard_cap(self, cache):
        hard_total = (
            cache.spec.hard_max_buffers
            * cache.spec.blocks_per_buffer
            * cache.spec.block_size
        )
        cache.insert(Payload.synthetic(hard_total))
        with pytest.raises(CacheFullError):
            cache.insert(Payload.of(b"one more"))

    def test_failed_insert_and_append_change_nothing(self, cache):
        """CacheFullError leaves the entry, its blocks and the counters as
        they were: the room is checked before anything is touched."""
        hard_blocks = cache.spec.hard_max_buffers * cache.spec.blocks_per_buffer
        block_size = cache.spec.block_size
        address = cache.insert(Payload.of(b"a" * (block_size - 4)))
        cache.insert(Payload.synthetic((hard_blocks - 2) * block_size))
        assert cache.used_blocks == hard_blocks - 1
        before = (cache.used_blocks, cache.inserts, cache.appends)
        with pytest.raises(CacheFullError):
            cache.append(address, Payload.of(b"b" * (4 + 2 * block_size)))
        with pytest.raises(CacheFullError):
            cache.insert(Payload.of(b"c" * (block_size + 1)))
        assert (cache.used_blocks, cache.inserts, cache.appends) == before
        assert cache.get(address).content == b"a" * (block_size - 4)
        cache.check_invariants()
        # what does fit still goes in: the last block's room, then one block
        address = cache.append(address, Payload.of(b"b" * (4 + block_size)))
        assert cache.get(address).content == b"a" * (block_size - 4) + b"b" * (4 + block_size)
        assert cache.used_blocks == hard_blocks

    def test_get_freed_address_rejected(self, cache):
        address = cache.insert(Payload.of(b"x"))
        cache.delete(address)
        with pytest.raises(Exception):
            cache.get(address)


class TestInvariants:
    def test_invariants_after_mixed_workload(self, cache):
        addresses = []
        for i in range(10):
            addresses.append(cache.insert(Payload.of(bytes([i]) * 20)))
        for address in addresses[::2]:
            cache.delete(address)
        for i in range(5):
            cache.insert(Payload.of(b"q" * 35))
        cache.check_invariants()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "append", "delete"]),
                      st.integers(0, 60)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    # A cache filled to its hard cap, then an append that needs a new
    # block: the failed append used to keep its partial fill.
    @example(
        [("insert", 0)] * 8
        + [("insert", n) for n in (17, 17, 25, 33, 33, 33, 49, 57)]
        + [("append", 8)]
    )
    def test_property_layout_matches_model(self, ops):
        """Property: cache contents match a plain dict model, and free
        lists/used blocks always partition every buffer (invariant 5)."""
        cache = BlockCache(CacheSpec(block_size=8, blocks_per_buffer=4, max_buffers=8))
        model = {}  # address -> bytes
        counter = 0
        for kind, size in ops:
            try:
                if kind == "insert" or not model:
                    data = bytes([counter % 256]) * size
                    counter += 1
                    address = cache.insert(Payload.of(data))
                    model[address] = data
                elif kind == "append":
                    address = sorted(model)[size % len(model)]
                    extra = bytes([counter % 256]) * (size % 17)
                    counter += 1
                    new_address = cache.append(address, Payload.of(extra))
                    model[new_address] = model.pop(address) + extra
                else:
                    address = sorted(model)[size % len(model)]
                    cache.delete(address)
                    del model[address]
            except CacheFullError:
                continue
            cache.check_invariants()
        for address, data in model.items():
            assert cache.get(address).content == data
