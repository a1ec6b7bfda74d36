//! `Hypervisor::copy_phys` against an independently written reference.
//!
//! `copy_phys` skips a segment when its source and destination row-group
//! stripes are blank and copies every other segment line by line. The
//! reference here knows neither rule: it decodes every line with the plain
//! decoder and moves it with `read_row` + `write_row`. Twin hosts get the same
//! payloads and the same hammering, one runs `copy_phys`, the other the
//! reference, and every observable of the device must agree — read-back of
//! both ranges, active flips, ECC counters, the flip log, and how many rows
//! hold data.

use dram::{DimmProfile, DramSystemBuilder, EccMode, ReadIntegrity};
use dram_addr::{RepairMap, CACHE_LINE_BYTES as LINE};
use proptest::prelude::*;
use siloz::{Hypervisor, HypervisorKind, SilozConfig};

/// What a range holds before the copy.
#[derive(Debug, Clone, Copy, Default)]
struct Dirt {
    /// A payload is written at this offset into the range.
    payload_at: Option<u64>,
    /// The row under this offset into the range is hammered until it flips.
    hammered_at: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    evaluation: bool,
    ecc: EccMode,
    src: u64,
    dst: u64,
    len: u64,
    src_dirt: Dirt,
    dst_dirt: Dirt,
    payload_seed: u8,
}

const PAYLOAD_BYTES: u64 = 777;

fn boot(case: &Case) -> Hypervisor {
    let config = if case.evaluation {
        SilozConfig::evaluation()
    } else {
        SilozConfig::mini()
    };
    let dram = DramSystemBuilder::new(config.geometry)
        .internal_map(config.internal_map)
        .profiles(vec![DimmProfile::evaluation_dimms().remove(0)])
        .ecc(case.ecc)
        .trr(0, 0)
        .build();
    Hypervisor::boot_with(config, HypervisorKind::Siloz, dram, RepairMap::new()).expect("boots")
}

/// Calls `f(bank, row, col, chunk, offset)` for each piece of `[phys,
/// phys + len)` that lies inside one cache line.
fn for_each_line(
    hv: &mut Hypervisor,
    phys: u64,
    len: u64,
    mut f: impl FnMut(&mut dram::DramSystem, dram_addr::BankId, u32, u32, u32, u64),
) {
    let decoder = hv.decoder().clone();
    let mut off = 0;
    while off < len {
        let at = phys + off;
        let chunk = (LINE - at % LINE).min(len - off);
        let m = decoder.decode(at).expect("in range");
        let bank = m.global_bank(decoder.geometry());
        f(hv.dram_mut(), bank, m.row, m.col, chunk as u32, off);
        off += chunk;
    }
}

fn poke(hv: &mut Hypervisor, phys: u64, bytes: &[u8]) {
    for_each_line(
        hv,
        phys,
        bytes.len() as u64,
        |dram, bank, row, col, n, off| {
            dram.write_row(bank, row, col, &bytes[off as usize..][..n as usize]);
        },
    );
}

fn peek(hv: &mut Hypervisor, phys: u64, len: u64) -> (Vec<u8>, Vec<ReadIntegrity>) {
    let (mut bytes, mut integrity) = (Vec::new(), Vec::new());
    for_each_line(hv, phys, len, |dram, bank, row, col, n, _| {
        let (data, i) = dram.read_row(bank, row, col, n);
        bytes.extend(data);
        integrity.push(i);
    });
    (bytes, integrity)
}

/// Double-sided hammering of the row holding `phys`; returns how many cells
/// of that row ended up flipped.
fn hammer(hv: &mut Hypervisor, phys: u64) -> usize {
    let g = *hv.decoder().geometry();
    let m = hv.decoder().decode(phys).expect("in range");
    let bank = m.global_bank(&g);
    let same_subarray = |r: &u32| *r < g.rows_per_bank && g.subarray_of_row(*r) == m.subarray(&g);
    let aggressors: Vec<u32> = [m.row.wrapping_sub(1), m.row + 1]
        .into_iter()
        .filter(same_subarray)
        .collect();
    let dram = hv.dram_mut();
    for _ in 0..60 {
        for &a in &aggressors {
            dram.activate_burst(bank, a, 2_000, 0);
        }
        dram.advance_ns(47 * 4_000);
    }
    dram.active_flip_count(bank, m.row)
}

fn soil(hv: &mut Hypervisor, base: u64, dirt: Dirt, seed: u8) {
    if let Some(at) = dirt.payload_at {
        let payload: Vec<u8> = (0..PAYLOAD_BYTES)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect();
        poke(hv, base + at, &payload);
    }
    if let Some(at) = dirt.hammered_at {
        hammer(hv, base + at);
    }
}

/// The reference copy: no segments, no blank rule, no decode cache.
fn reference_copy(hv: &mut Hypervisor, src: u64, dst: u64, len: u64) {
    let decoder = hv.decoder().clone();
    let g = *decoder.geometry();
    let mut off = 0;
    while off < len {
        let (s, d) = (src + off, dst + off);
        let chunk = (LINE - s % LINE).min(LINE - d % LINE).min(len - off);
        let sm = decoder.decode(s).expect("source in range");
        let (bytes, _) = hv
            .dram_mut()
            .read_row(sm.global_bank(&g), sm.row, sm.col, chunk as u32);
        let dm = decoder.decode(d).expect("destination in range");
        hv.dram_mut()
            .write_row(dm.global_bank(&g), dm.row, dm.col, &bytes);
        off += chunk;
    }
}

/// Runs the case on twin hosts and compares every device observable.
fn check(case: &Case) {
    let mut fast = boot(case);
    let mut slow = boot(case);
    for hv in [&mut fast, &mut slow] {
        soil(hv, case.src, case.src_dirt, case.payload_seed);
        soil(hv, case.dst, case.dst_dirt, !case.payload_seed);
    }
    fast.copy_phys(case.src, case.dst, case.len)
        .expect("copy in range");
    reference_copy(&mut slow, case.src, case.dst, case.len);

    let (f, s) = (fast.dram(), slow.dram());
    assert_eq!(f.stats(), s.stats(), "counters after the copy: {case:?}");
    assert_eq!(f.rows_written(), s.rows_written(), "rows written: {case:?}");
    assert_eq!(f.flip_log().all(), s.flip_log().all(), "flip log: {case:?}");
    let flipped = f.rows_with_active_flips();
    assert_eq!(
        flipped,
        s.rows_with_active_flips(),
        "flipped rows: {case:?}"
    );
    for &(bank, row) in &flipped {
        assert_eq!(
            f.active_flip_count(bank, row),
            s.active_flip_count(bank, row),
            "active flips in bank {} row {row}: {case:?}",
            bank.0
        );
    }
    // Read back a margin around both ranges too: a copy must not leak past
    // either end.
    for base in [case.src, case.dst] {
        let (from, len) = (base - 2 * LINE, case.len + 4 * LINE);
        assert!(
            peek(&mut fast, from, len) == peek(&mut slow, from, len),
            "read-back around {base:#x} differs: {case:?}"
        );
    }
    let (f, s) = (fast.dram(), slow.dram());
    assert_eq!(f.stats(), s.stats(), "counters after read-back: {case:?}");
}

const MIB: u64 = 1 << 20;

/// Ranges starting in different 2 MiB blocks, two blocks apart at the least
/// (so never overlapping), nudged off the line grid by `skew`.
fn case_at(evaluation: bool, ecc: EccMode, blocks: (u64, u64), skew: (u64, u64), len: u64) -> Case {
    // Evaluation: 2 MiB blocks over 1.5 MiB stripes, so the two ranges sit at
    // different stripe offsets and segments are partial. Mini: 512 KiB stripes.
    Case {
        evaluation,
        ecc,
        src: (4 * blocks.0 + 4) * 2 * MIB + skew.0,
        dst: (4 * blocks.1 + 6) * 2 * MIB + skew.1,
        len,
        src_dirt: Dirt::default(),
        dst_dirt: Dirt::default(),
        payload_seed: 0x5a,
    }
}

#[test]
fn hammering_in_this_file_really_flips_cells() {
    // Otherwise the `hammered_at` cases below would compare blank with blank.
    for evaluation in [false, true] {
        let case = case_at(evaluation, EccMode::SecDed, (0, 1), (0, 0), 2 * MIB);
        let mut hv = boot(&case);
        assert!(hammer(&mut hv, case.src + 4096) > 0, "eval={evaluation}");
    }
}

#[test]
fn every_mix_of_blank_written_and_flipped_stripes_matches_the_reference() {
    // Only the source dirty, only the destination, both, neither; dirt as a
    // payload, as flips, or both; at both geometries and ECC modes. The
    // neither-dirty case takes the blank-stripe skip for the whole range.
    let dirts = [
        Dirt::default(),
        Dirt {
            payload_at: None,
            hammered_at: Some(4096),
        },
        Dirt {
            payload_at: Some(70_001),
            hammered_at: Some(MIB),
        },
        // A payload in one stripe of the block and in no other: a segment
        // that ran on past a stripe boundary (of either range — at the
        // evaluation geometry theirs differ) would judge it by the wrong
        // stripe.
        Dirt {
            payload_at: Some(MIB + 13),
            hammered_at: None,
        },
        Dirt {
            payload_at: Some(2 * MIB - 5000),
            hammered_at: None,
        },
    ];
    for evaluation in [false, true] {
        for ecc in [EccMode::None, EccMode::SecDed] {
            for src_dirt in dirts {
                for dst_dirt in dirts {
                    let case = Case {
                        src_dirt,
                        dst_dirt,
                        ..case_at(evaluation, ecc, (1, 0), (0, 0), 2 * MIB)
                    };
                    check(&case);
                }
            }
        }
    }
}

#[test]
fn copying_a_sparse_block_line_by_line_stores_only_its_nonzero_rows() {
    // One payload makes the source stripe non-blank, so the whole block goes
    // through the line loop — which then writes 2 MiB of zeros around the
    // payload. Those must not materialise destination rows.
    for evaluation in [false, true] {
        let case = case_at(evaluation, EccMode::SecDed, (0, 1), (0, 0), 2 * MIB);
        let mut hv = boot(&case);
        let dirt = Dirt {
            payload_at: Some(MIB),
            hammered_at: None,
        };
        soil(&mut hv, case.src, dirt, 0x5a);
        let payload_rows = hv.dram().rows_written();
        hv.copy_phys(case.src, case.dst, case.len).expect("copy");
        assert_eq!(hv.dram().rows_written(), 2 * payload_rows);
        assert_eq!(
            peek(&mut hv, case.dst, case.len),
            peek(&mut hv, case.src, case.len)
        );
    }
}

#[test]
fn misaligned_source_and_destination_copy_byte_exactly() {
    // src % 64 != dst % 64 and an odd length: each chunk must end at the
    // nearer of the two line ends. Bounding it by the source line alone
    // spills past the destination line into columns of the same bank row
    // that belong to other physical addresses (or past the row end).
    let case = case_at(false, EccMode::SecDed, (0, 1), (5, 37), 1001);
    let mut hv = boot(&case);
    let payload: Vec<u8> = (0..case.len).map(|i| (i % 251) as u8 + 1).collect();
    poke(&mut hv, case.src, &payload);
    let fence = [0xeeu8; 128];
    poke(&mut hv, case.dst - 128, &fence);
    poke(&mut hv, case.dst + case.len, &fence);
    hv.copy_phys(case.src, case.dst, case.len).expect("copy");
    assert_eq!(peek(&mut hv, case.dst, case.len).0, payload);
    assert_eq!(peek(&mut hv, case.dst - 128, 128).0, fence);
    assert_eq!(peek(&mut hv, case.dst + case.len, 128).0, fence);
    // And with the source written, flipped and read through either ECC mode.
    for ecc in [EccMode::None, EccMode::SecDed] {
        let src_dirt = Dirt {
            payload_at: Some(100),
            hammered_at: Some(0),
        };
        check(&Case {
            ecc,
            src_dirt,
            ..case
        });
    }
}

fn dirt_strategy() -> impl Strategy<Value = Dirt> {
    (0u8..4, 0u64..2 * MIB, 0u64..2 * MIB).prop_map(|(kind, p, h)| Dirt {
        payload_at: (kind & 1 != 0).then_some(p),
        hammered_at: (kind & 2 != 0).then_some(h),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random geometry, ECC mode, blocks, misalignment, length and dirt:
    /// `copy_phys` and the reference leave identical devices.
    fn copy_phys_matches_the_line_by_line_reference(
        evaluation: bool,
        secded: bool,
        payload_seed: u8,
        blocks in (0u64..60, 0u64..60),
        skew in (0u64..2 * LINE, 0u64..2 * LINE),
        len_draw in (0u8..3, 1u64..2 * MIB + 130),
        src_dirt in dirt_strategy(),
        dst_dirt in dirt_strategy(),
    ) {
        let ecc = if secded { EccMode::SecDed } else { EccMode::None };
        let len = match len_draw {
            (0, any) => 1 + any % 300,                  // inside a few lines
            (1, _) => 2 * MIB - skew.0.max(skew.1), // to the end of the block
            (_, any) => any,                        // odd lengths included
        };
        check(&Case {
            src_dirt,
            dst_dirt,
            payload_seed,
            ..case_at(evaluation, ecc, blocks, skew, len)
        });
    }
}
