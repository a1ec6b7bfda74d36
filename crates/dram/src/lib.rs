//! A functional DDR4 DRAM device model with read-disturbance physics.
//!
//! This crate simulates the *device* half of the memory system: cells, rows,
//! banks, refresh, in-DRAM target row refresh (TRR), ECC, and — centrally for
//! the Siloz reproduction — Rowhammer/RowPress disturbance (§2.5):
//!
//! - each activation (ACT) of an *aggressor* row deposits disturbance on
//!   nearby *victim* rows **in the same subarray**; rows in other subarrays
//!   are electrically isolated and never disturbed (§2.5, Fig. 1);
//! - disturbance accumulates until a victim is refreshed (auto-refresh, TRR,
//!   or its own activation); crossing a per-cell threshold flips bits;
//! - adjacency is computed on *internal* row addresses, i.e. after DDR4
//!   mirroring/inversion, vendor scrambling, and row repairs
//!   ([`dram_addr::transform`], §6), and separately for the A/B half-row
//!   sides of server DIMMs (§2.3);
//! - a sampling TRR tracker refreshes suspected victims early but — like
//!   deployed TRR — can be defeated by many-sided access patterns (§2.5);
//! - SEC-DED ECC corrects single-bit flips per 64-bit word, detects
//!   double-bit flips, and can be silently defeated by triple flips (§2.5).
//!
//! The model is *functional*, not cycle-accurate: the memory controller
//! (crate `memctrl`) decides when ACTs happen and owns timing; this crate
//! owns what those ACTs do to the cells.

#![forbid(unsafe_code)]

mod bank;
pub mod device;
pub mod ecc;
pub mod flip;
pub mod profile;
pub mod rowmap;
pub mod trr;
pub mod util;

pub use device::{Aggressor, Cycle, DramStats, DramSystem, DramSystemBuilder, ScrubReport};
pub use ecc::{EccMode, ReadIntegrity};
pub use flip::{BitFlip, FlipLog};
pub use profile::{DimmProfile, DisturbanceWeights};
pub use trr::TrrTracker;

/// Nanoseconds in one DDR4 refresh window (tREFW = 64 ms, §2.3).
pub const REFRESH_WINDOW_NS: u64 = 64_000_000;

/// Number of REF commands distributed across a refresh window (DDR4: 8192).
pub const REFS_PER_WINDOW: u32 = 8192;
