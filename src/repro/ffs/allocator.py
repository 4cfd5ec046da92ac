"""Block allocation within a partition.

The paper benchmarks *fresh* file systems on purpose (§3): their files
are laid out near-contiguously from the start of the partition, which is
both the best case for read-ahead and — because read-ahead heuristics
matter more as layout degrades — the *worst* case for the improvements
being measured.

:class:`SequentialAllocator` reproduces that fresh layout.  The
``fragmentation`` knob approximates an aged file system: each file is
broken into chunks with small gaps between them, shuffling later files
into the holes a real aged FFS would exhibit.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Optional

from ..disk.models import Partition
from .inode import Extent, Inode

DEFAULT_BLOCK_SIZE = 8 * 1024

#: Directory inodes number from here; regular files keep the dense
#: 2, 3, 4, … sequence.  The nfsheur table hashes the handle id, so
#: giving directories their own number space means mounting a namespace
#: on top of an existing flat fileset cannot move any file's heuristic
#: slot.
DIR_INODE_BASE = 1 << 31


class AllocationError(Exception):
    """The partition is full (or too fragmented to satisfy a request)."""


class SequentialAllocator:
    """First-fit contiguous allocation from the front of a partition."""

    def __init__(self, partition: Partition,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 sector_size: int = 512,
                 fragmentation: float = 0.0,
                 chunk_blocks: int = 64,
                 max_gap_blocks: int = 128,
                 rng: Optional[random.Random] = None):
        if block_size % sector_size:
            raise ValueError("block size must be a sector multiple")
        if not 0.0 <= fragmentation <= 1.0:
            raise ValueError("fragmentation must be within [0, 1]")
        if chunk_blocks < 1 or max_gap_blocks < 0:
            raise ValueError("bad chunk/gap configuration")
        self.partition = partition
        self.block_size = block_size
        self.sectors_per_block = block_size // sector_size
        self.fragmentation = fragmentation
        self.chunk_blocks = chunk_blocks
        self.max_gap_blocks = max_gap_blocks
        self._rng = rng or random.Random(0xA110C)
        #: Per-file-system inode numbering (0/1 reserved).  A local
        #: counter — not the module-global ``Inode`` default — so a
        #: file system's handles are identical no matter how many other
        #: testbeds the process built first.  The nfsheur table hashes
        #: the handle id, so this is what makes a run's results a pure
        #: function of its config and seed (and lets a campaign cell
        #: give the same bytes in any worker, after any other cells).
        self._inode_numbers = itertools.count(2)
        #: Directory metadata: separate number space (see
        #: :data:`DIR_INODE_BASE`) and a block region growing *down*
        #: from the end of the partition — a stand-in for FFS keeping
        #: directories in their own cylinder-group region.  Data files
        #: land on exactly the blocks a namespace-free file system
        #: would have given them, so growing a directory tree never
        #: relocates anyone's data.
        self._dir_inode_numbers = itertools.count(DIR_INODE_BASE)

        first = -(-partition.first_lba // self.sectors_per_block)
        last = partition.end_lba // self.sectors_per_block
        self._next_block = first
        self._end_block = last

    # ------------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return max(0, self._end_block - self._next_block)

    def allocate(self, name: str, size: int) -> Inode:
        """Allocate ``size`` bytes and return the resulting inode."""
        if size <= 0:
            raise ValueError("cannot allocate an empty file")
        nblocks = -(-size // self.block_size)
        extents: List[Extent] = []
        file_block = 0
        remaining = nblocks
        while remaining > 0:
            if self.fragmentation > 0 and \
                    self._rng.random() < self.fragmentation:
                take = min(remaining,
                           max(1, self._rng.randint(
                               1, self.chunk_blocks)))
            else:
                take = remaining
            if take > self.free_blocks:
                raise AllocationError(
                    f"partition {self.partition.name} full allocating "
                    f"{name} ({nblocks} blocks, {self.free_blocks} free)")
            extents.append(Extent(file_block=file_block,
                                  disk_block=self._next_block,
                                  nblocks=take))
            self._next_block += take
            file_block += take
            remaining -= take
            if remaining > 0 and self.max_gap_blocks > 0:
                gap = self._rng.randint(0, self.max_gap_blocks)
                self._next_block = min(self._next_block + gap,
                                       self._end_block)
        return Inode(name=name, size=size, extents=extents,
                     number=next(self._inode_numbers))

    def extend(self, inode: Inode, nblocks: int = 1) -> None:
        """Grow ``inode`` by ``nblocks`` freshly allocated blocks.

        Used by growing directories: a directory that overflows its
        data blocks gets another one appended at the current allocation
        frontier (first-fit, like every other allocation here), which
        is also how a real aging FFS ends up with directory blocks
        scattered away from the inode.
        """
        if nblocks < 1:
            raise ValueError("must extend by at least one block")
        if nblocks > self.free_blocks:
            raise AllocationError(
                f"partition {self.partition.name} full extending "
                f"{inode.name} ({nblocks} blocks, "
                f"{self.free_blocks} free)")
        extent = Extent(file_block=inode.nblocks,
                        disk_block=self._next_block, nblocks=nblocks)
        self._next_block += nblocks
        inode.extents.append(extent)
        inode.size += nblocks * self.block_size

    # ------------------------------------------------------------------
    # Directory metadata (the region at the end of the partition)
    # ------------------------------------------------------------------

    def _take_meta_blocks(self, nblocks: int, name: str) -> int:
        if nblocks > self.free_blocks:
            raise AllocationError(
                f"partition {self.partition.name} full allocating "
                f"directory {name} ({nblocks} blocks, "
                f"{self.free_blocks} free)")
        self._end_block -= nblocks
        return self._end_block

    def allocate_dir(self, name: str) -> Inode:
        """Allocate a one-block directory inode in the metadata region."""
        disk_block = self._take_meta_blocks(1, name)
        extent = Extent(file_block=0, disk_block=disk_block, nblocks=1)
        return Inode(name=name, size=self.block_size, extents=[extent],
                     number=next(self._dir_inode_numbers))

    def allocate_journal(self, name: str, nblocks: int) -> Inode:
        """Reserve a contiguous intent-log region in the metadata area.

        The metadata journal lives with the directories at the end of
        the partition (one `_take_meta_blocks` call, so the region is
        contiguous — log appends are sequential writes, as on a real
        disk).  Numbered from the directory inode space: it is
        metadata, and must never collide with a data file's handle.
        """
        if nblocks < 1:
            raise ValueError("journal needs at least one block")
        disk_block = self._take_meta_blocks(nblocks, name)
        extent = Extent(file_block=0, disk_block=disk_block,
                        nblocks=nblocks)
        return Inode(name=name, size=nblocks * self.block_size,
                     extents=[extent],
                     number=next(self._dir_inode_numbers))

    def extend_dir(self, inode: Inode, nblocks: int = 1) -> None:
        """Grow a directory by ``nblocks`` metadata-region blocks."""
        if nblocks < 1:
            raise ValueError("must extend by at least one block")
        disk_block = self._take_meta_blocks(nblocks, inode.name)
        inode.extents.append(Extent(file_block=inode.nblocks,
                                    disk_block=disk_block,
                                    nblocks=nblocks))
        inode.size += nblocks * self.block_size
