//! Physical-to-media address translation for server DDR4 DRAM.
//!
//! This crate is the lowest layer of the Siloz reproduction. It models how a
//! memory controller translates *host physical addresses* into *media
//! addresses* (socket, channel, DIMM, rank, bank group, bank, row, column),
//! and how DIMMs internally transform row addresses (DDR4 mirroring and
//! inversion, vendor scrambling, and post-manufacturing row repairs).
//!
//! The decoder reproduces the structure of Intel Skylake server mappings as
//! described in §2.4 and §4.2 of the paper:
//!
//! - sequential cache lines are interleaved across all banks of a socket for
//!   bank-level parallelism;
//! - ascending physical pages populate ascending *row groups* (the set of
//!   same-indexed rows across every bank of a socket);
//! - every `n = 16` row groups are populated in alternating ascending fashion
//!   by two individually-contiguous physical ranges ("A" and "B"), with the
//!   pattern repeating at 768 MiB-aligned mapping jumps;
//! - 2 MiB and 4 KiB pages therefore always map to a single subarray group,
//!   while 1 GiB pages require 3 GiB sets of consecutive subarray groups.
//!
//! The mapping is a bijection between the physical address space and the
//! media address space, which is asserted by property tests.

#![forbid(unsafe_code)]

pub mod configs;
pub mod decoder;
pub mod geometry;
pub mod interleave;
pub mod media;
pub mod repair;
pub mod skylake;
pub mod tlb;
pub mod transform;

pub use configs::{presumed_rows_supported, supported_configs, SupportedConfig};
pub use decoder::{AddrError, SystemAddressDecoder};
pub use geometry::Geometry;
pub use interleave::BankHash;
pub use media::{BankId, MediaAddress, RankSide};
pub use repair::{RepairKind, RepairMap};
pub use skylake::{
    ddr5_decoder, ddr5_geometry, mini_decoder, mini_geometry, skylake_decoder, skylake_geometry,
};
pub use tlb::{DecodeTlb, RowTranslate, StreamDecoder};
pub use transform::{internal_row, line_offset, InternalMapConfig};

/// Size of one cache line in bytes; the granularity at which the memory
/// controller applies physical-to-media mappings (§2.4).
pub const CACHE_LINE_BYTES: u64 = 64;

/// Size of a standard 4 KiB page.
pub const PAGE_4K: u64 = 4 << 10;

/// Size of a 2 MiB huge page.
pub const PAGE_2M: u64 = 2 << 20;

/// The 768 MiB physical-to-media mapping "jump" granularity observed on the
/// evaluation server (§4.2).
pub const MAPPING_JUMP_BYTES: u64 = 768 << 20;
