"""Physical-address decomposition into DRAM coordinates.

The evaluation configuration (paper Table I) uses 16 GB of DRAM on one
channel with 2 ranks, 4 bank groups, 16 banks, built from 8 Gb x8 devices.
The default interleaving places the channel/bank bits just above the line
offset so that consecutive lines spread across banks (the common
"row:rank:bank:column:offset" style mapping used by Ramulator's baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecodedAddress", "DecodedArrays", "AddressMapping"]


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _log2(value: int) -> int:
    return value.bit_length() - 1


@dataclass(frozen=True)
class DecodedAddress:
    """A physical address decomposed into DRAM coordinates."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int

    def bank_key(self) -> tuple:
        """Unique key for the (channel, rank, bank-group, bank) tuple."""
        return (self.channel, self.rank, self.bank_group, self.bank)


@dataclass(frozen=True)
class DecodedArrays:
    """Column-oriented decode of a whole address array (one array per field).

    Produced by :meth:`AddressMapping.decode_arrays`; element ``i`` of every
    column equals the corresponding field of ``decode(addresses[i])``.
    """

    channel: np.ndarray
    rank: np.ndarray
    bank_group: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    column: np.ndarray

    def __len__(self) -> int:
        return len(self.row)


class AddressMapping:
    """Maps line-aligned physical addresses to/from DRAM coordinates.

    Bit order (LSB first): line offset, channel, bank group, bank, column,
    rank, row.  Placing bank bits low maximizes bank-level parallelism for
    streaming accesses; placing the rank bit below the row keeps both ranks
    busy, mirroring common controller defaults.

    Parameters
    ----------
    line_bytes:
        Cache-line size (64 in the paper).
    channels, ranks, bank_groups, banks_per_group:
        Topology counts (all powers of two).
    rows, columns_per_row:
        Per-bank geometry (derived from capacity if not given).
    """

    def __init__(
        self,
        line_bytes: int = 64,
        channels: int = 1,
        ranks: int = 2,
        bank_groups: int = 4,
        banks_per_group: int = 4,
        rows: int = 65536,
        columns_per_row: int = 128,
    ) -> None:
        for name, value in (
            ("line_bytes", line_bytes),
            ("channels", channels),
            ("ranks", ranks),
            ("bank_groups", bank_groups),
            ("banks_per_group", banks_per_group),
            ("rows", rows),
            ("columns_per_row", columns_per_row),
        ):
            if not _is_power_of_two(value):
                raise ValueError("%s must be a power of two, got %d" % (name, value))
        self.line_bytes = line_bytes
        self.channels = channels
        self.ranks = ranks
        self.bank_groups = bank_groups
        self.banks_per_group = banks_per_group
        self.rows = rows
        self.columns_per_row = columns_per_row

        self._offset_bits = _log2(line_bytes)
        self._channel_bits = _log2(channels)
        self._bank_group_bits = _log2(bank_groups)
        self._bank_bits = _log2(banks_per_group)
        self._column_bits = _log2(columns_per_row)
        self._rank_bits = _log2(ranks)
        self._row_bits = _log2(rows)
        # One (shift, mask) per field for decode, LSB first: channel, bank
        # group, bank, column, rank, row.
        self._fields = []
        shift = self._offset_bits
        for width in (self._channel_bits, self._bank_group_bits, self._bank_bits,
                      self._column_bits, self._rank_bits, self._row_bits):
            self._fields.append((shift, (1 << width) - 1))
            shift += width

    # ------------------------------------------------------------------
    @property
    def total_banks(self) -> int:
        """Total number of banks across the whole memory."""
        return self.channels * self.ranks * self.bank_groups * self.banks_per_group

    @property
    def capacity_bytes(self) -> int:
        """Total addressable capacity."""
        return (
            self.line_bytes
            * self.channels
            * self.ranks
            * self.bank_groups
            * self.banks_per_group
            * self.rows
            * self.columns_per_row
        )

    @property
    def address_bits(self) -> int:
        """Number of physical address bits covered by the mapping."""
        return (
            self._offset_bits
            + self._channel_bits
            + self._bank_group_bits
            + self._bank_bits
            + self._column_bits
            + self._rank_bits
            + self._row_bits
        )

    # ------------------------------------------------------------------
    def decode(self, address: int) -> DecodedAddress:
        """Decode a physical byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError("address must be non-negative")
        channel, bank_group, bank, column, rank, row = self._fields
        return DecodedAddress(
            channel=(address >> channel[0]) & channel[1],
            rank=(address >> rank[0]) & rank[1],
            bank_group=(address >> bank_group[0]) & bank_group[1],
            bank=(address >> bank[0]) & bank[1],
            row=(address >> row[0]) & row[1],
            column=(address >> column[0]) & column[1],
        )

    def decode_arrays(self, addresses: np.ndarray) -> DecodedArrays:
        """Vectorized :meth:`decode` over a whole numpy address array.

        Returns one int64 column per DRAM coordinate; the batch simulation
        engine uses this to decode a full trace chunk in a handful of numpy
        operations instead of one ``DecodedAddress`` object per access.
        """
        bits = np.asarray(addresses, dtype=np.int64) >> self._offset_bits
        columns = []
        for width in (
            self._channel_bits,
            self._bank_group_bits,
            self._bank_bits,
            self._column_bits,
            self._rank_bits,
            self._row_bits,
        ):
            if width:
                columns.append(bits & ((1 << width) - 1))
                bits = bits >> width
            else:
                columns.append(np.zeros(len(bits), dtype=np.int64))
        channel, bank_group, bank, column, rank, row = columns
        return DecodedArrays(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row,
            column=column,
        )

    def flat_bank_arrays(self, decoded: DecodedArrays) -> np.ndarray:
        """Collapse decoded coordinates into a flat per-channel bank index.

        ``(rank * bank_groups + bank_group) * banks_per_group + bank`` — the
        layout the batch engine uses for its flat bank-state tables.  The
        channel column is deliberately ignored: the controller owns a single
        channel, matching the reference model.
        """
        return (
            decoded.rank * self.bank_groups + decoded.bank_group
        ) * self.banks_per_group + decoded.bank

    def encode(self, decoded: DecodedAddress) -> int:
        """Reconstruct the line-aligned physical address (inverse of decode)."""
        bits = 0
        shift = 0

        def put(value: int, width: int) -> None:
            nonlocal bits, shift
            if width:
                if value >= (1 << width):
                    raise ValueError("field value %d does not fit in %d bits" % (value, width))
                bits |= value << shift
                shift += width

        put(decoded.channel, self._channel_bits)
        put(decoded.bank_group, self._bank_group_bits)
        put(decoded.bank, self._bank_bits)
        put(decoded.column, self._column_bits)
        put(decoded.rank, self._rank_bits)
        put(decoded.row, self._row_bits)
        return bits << self._offset_bits

    def line_address(self, address: int) -> int:
        """Align a byte address down to its cache line."""
        return address & ~(self.line_bytes - 1)
