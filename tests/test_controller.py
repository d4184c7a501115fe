"""Tests for the memory-controller queues, scheduler and front end."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.memory_controller import ControllerConfig, MemoryController
from repro.controller.queues import QueueFullError, RequestQueue
from repro.controller.scheduler import FRFCFSScheduler
from repro.dram.address_mapping import AddressMapping, DecodedAddress
from repro.dram.channel import Channel
from repro.dram.commands import MemoryRequest, RequestType
from repro.dram.timing import DDR4_3200


def _read(address, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.READ, arrival_cycle=cycle)


def _write(address, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.WRITE, arrival_cycle=cycle)


#: (rank, bank group, row, column) over four banks and three rows, so a queue
#: mixes row hits, misses on closed banks and conflicts, and repeats addresses.
_COORDINATES = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2), st.integers(0, 3))


def _address(mapping, rank, bank_group, row, column):
    return mapping.encode(
        DecodedAddress(channel=0, rank=rank, bank_group=bank_group, bank=0, row=row, column=column)
    )


class TestRequestQueue:
    def test_push_and_pop_fifo_order(self):
        queue = RequestQueue(capacity=4)
        first, second = _read(0), _read(64)
        queue.push(first)
        queue.push(second)
        assert queue.pop_oldest() is first
        assert queue.pop_oldest() is second

    def test_capacity_enforced(self):
        queue = RequestQueue(capacity=2)
        queue.push(_read(0))
        queue.push(_read(64))
        with pytest.raises(QueueFullError):
            queue.push(_read(128))

    def test_occupancy_tracking(self):
        queue = RequestQueue(capacity=8)
        for i in range(5):
            queue.push(_read(i * 64))
        assert queue.occupancy == 5
        assert queue.max_occupancy == 5
        queue.pop_oldest()
        assert queue.occupancy == 4
        assert queue.max_occupancy == 5

    def test_find_address(self):
        queue = RequestQueue()
        target = _write(0x4000)
        queue.push(_write(0x1000))
        queue.push(target)
        assert queue.find_address(0x4000) is target
        assert queue.find_address(0x9999) is None

    def test_remove_specific_entry(self):
        queue = RequestQueue()
        a, b = _read(0), _read(64)
        queue.push(a)
        queue.push(b)
        queue.remove(a)
        assert queue.peek_all() == [b]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)

    @settings(max_examples=100, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["push", "pop_oldest", "remove"]), st.integers(0, 3)),
            max_size=40,
        )
    )
    def test_find_address_matches_a_linear_scan(self, operations):
        # Four addresses repeat across up to eight entries, so the
        # per-address counts go up and down through zero many times.
        addresses = [index * 64 for index in range(4)]
        queue = RequestQueue(capacity=8)
        for operation, index in operations:
            entries = queue.peek_all()
            if operation == "push" and not queue.is_full:
                queue.push(_write(addresses[index]))
            elif operation == "pop_oldest" and entries:
                queue.pop_oldest()
            elif operation == "remove" and entries:
                queue.remove(entries[index % len(entries)])
            for address in addresses:
                oldest = next((entry for entry in queue if entry.address == address), None)
                assert queue.find_address(address) is oldest


class TestFrfcfsScheduler:
    def test_prefers_row_hit(self):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        hit_request = _read(0x0, cycle=10)
        miss_request = _read(0x4000000, cycle=0)  # different row, arrived earlier
        # Open the row that hit_request targets.
        channel.access(mapping.decode(hit_request.address), True, 0)
        chosen = scheduler.pick_next(channel, [miss_request, hit_request])
        assert chosen is hit_request

    def test_falls_back_to_oldest(self):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        scheduler = FRFCFSScheduler(mapping)
        older = _read(0x1000000, cycle=0)
        newer = _read(0x2000000, cycle=5)
        assert scheduler.pick_next(channel, [newer, older]) is older

    def test_empty_pending_returns_none(self):
        scheduler = FRFCFSScheduler(AddressMapping())
        assert scheduler.pick_next(Channel(DDR4_3200), []) is None

    @settings(max_examples=80, deadline=None)
    @given(
        opened=st.lists(_COORDINATES, max_size=4),
        queued=st.lists(st.tuples(_COORDINATES, st.integers(0, 3)), max_size=24),
        data=st.data(),
    )
    def test_order_matches_repeated_greedy_pick(self, opened, queued, data):
        mapping = AddressMapping()
        channel = Channel(DDR4_3200)
        for cycle, coordinates in enumerate(opened):
            channel.access(mapping.decode(_address(mapping, *coordinates)), True, cycle * 100)
        requests = [_write(_address(mapping, *coordinates), cycle=arrival) for coordinates, arrival in queued]
        # Queue order need not follow request ids, so the id tie-break matters.
        pending = data.draw(st.permutations(requests))
        banks = [bank for rank in channel.ranks for bank in rank.all_banks()]
        before = [(bank.open_row, dataclasses.replace(bank.stats)) for bank in banks]

        def greedy_key(request):
            decoded = mapping.decode(request.address)
            bank = channel.rank(decoded.rank).bank(decoded.bank_group, decoded.bank)
            return (0 if bank.open_row == decoded.row else 1, request.arrival_cycle, request.request_id)

        remaining, expected = list(pending), []
        while remaining:
            best = min(remaining, key=greedy_key)
            remaining.remove(best)
            expected.append(best)

        assert FRFCFSScheduler(mapping).order(channel, pending) == expected
        assert [(bank.open_row, bank.stats) for bank in banks] == before


class TestMemoryController:
    def test_read_completes_with_positive_latency(self):
        controller = MemoryController()
        completion = controller.service_read(_read(0x1000, cycle=100))
        assert completion > 100

    def test_average_read_latency_tracked(self):
        controller = MemoryController()
        controller.service_read(_read(0x1000, cycle=0))
        assert controller.stats.reads_served == 1
        assert controller.stats.average_read_latency > 0

    def test_writes_are_posted(self):
        controller = MemoryController()
        controller.enqueue_write(_write(0x1000, cycle=0))
        assert controller.stats.writes_served == 0
        assert controller.write_queue.occupancy == 1

    def test_write_to_read_forwarding(self):
        controller = MemoryController()
        controller.enqueue_write(_write(0x2000, cycle=0))
        completion = controller.service_read(_read(0x2000, cycle=10))
        assert controller.stats.forwarded_reads == 1
        assert completion == 10  # served from the write queue, no DRAM access

    def test_write_drain_triggers_at_high_watermark(self):
        config = ControllerConfig(write_drain_high_watermark=8, write_drain_low_watermark=2)
        controller = MemoryController(config)
        for i in range(9):
            controller.enqueue_write(_write(i * 64, cycle=i))
        assert controller.stats.write_drains >= 1
        assert controller.stats.writes_served > 0
        assert controller.write_queue.occupancy <= 8

    def test_flush_drains_everything(self):
        controller = MemoryController()
        for i in range(5):
            controller.enqueue_write(_write(i * 64, cycle=i))
        controller.flush()
        assert controller.write_queue.occupancy == 0
        assert controller.stats.writes_served == 5

    def test_read_rejects_write_request(self):
        controller = MemoryController()
        with pytest.raises(ValueError):
            controller.service_read(_write(0x1000))

    def test_write_rejects_read_request(self):
        controller = MemoryController()
        with pytest.raises(ValueError):
            controller.enqueue_write(_read(0x1000))

    def test_extended_write_burst_configuration(self):
        normal = MemoryController()
        secddr = MemoryController(ControllerConfig(write_burst_cycles=5))
        normal.enqueue_write(_write(0x1000, cycle=0))
        secddr.enqueue_write(_write(0x1000, cycle=0))
        n_cycle = normal.flush()
        s_cycle = secddr.flush()
        assert s_cycle == n_cycle + 1

    def test_memory_side_latency_configuration(self):
        plain = MemoryController()
        slow = MemoryController(ControllerConfig(memory_side_read_latency=20))
        p = plain.service_read(_read(0x1000, cycle=0))
        s = slow.service_read(_read(0x1000, cycle=0))
        assert s == p + 20

    def test_reads_to_same_row_are_hits(self):
        controller = MemoryController()
        # Two addresses that differ only in the column bits land in the same
        # bank and row (see AddressMapping bit order).
        same_row_stride = 64 << 4
        controller.service_read(_read(0x0, cycle=0))
        controller.service_read(_read(same_row_stride, cycle=200))
        stats = controller.channel.stats
        assert stats.row_hits >= 1
