//! Regenerates **Figure 2**: subarray groups in the DRAM hierarchy —
//! ascending physical pages map to ascending row groups, alternating
//! between ranges A and B per 24 MiB block, with jumps at 768 MiB (§4.1,
//! §4.2). This dumps the live page → row-group → subarray-group map.

use bench::Scale;
use dram_addr::SystemAddressDecoder;
use siloz::SubarrayGroupMap;
use sim::Run;

pub fn run(scale: Scale, run: &Run) {
    let config = scale.config();
    let decoder = SystemAddressDecoder::new(config.geometry, config.decoder).expect("decoder");
    let map = SubarrayGroupMap::compute(&decoder, config.presumed_subarray_rows).expect("groups");
    let g = decoder.geometry();
    let block = decoder.block_bytes();

    println!("Figure 2: page -> row group -> subarray group (socket 0)");
    println!(
        "geometry: {} banks/socket, {} B rows, {} rows/subarray, {} B row groups, {} B blocks\n",
        g.banks_per_socket(),
        g.row_bytes,
        config.presumed_subarray_rows,
        g.row_group_bytes(),
        block
    );
    println!(
        "{:>16} {:>10} {:>10} {:>8} {:>14}",
        "phys addr", "row group", "subarray", "group", "A/B range"
    );
    // Walk interesting sample points: block starts around the A/B
    // alternation and the 768 MiB jump.
    let samples: Vec<u64> = (0..8)
        .map(|i| i * block)
        .chain((0..4).map(|i| decoder.config().jump_bytes / 2 + i * block))
        .chain((0..4).map(|i| decoder.config().jump_bytes + i * block))
        .collect();
    let layout = run.reg.child("layout");
    for phys in samples {
        if phys >= decoder.socket_bytes() {
            continue;
        }
        layout.counter("samples_decoded").inc();
        let (_, row) = decoder.row_group_of(phys).expect("in range");
        let group = map.group_of_phys(phys).expect("in range");
        let half = decoder.config().jump_bytes / 2;
        // Labels each sample by its interleave half for the figure; the
        // modulus is a plot label, not address math. lint:allow(addr-raw-arith)
        let range = if phys % decoder.config().jump_bytes < half {
            "A"
        } else {
            "B"
        };
        println!(
            "{:>16} {:>10} {:>10} {:>8} {:>14}",
            format!("{phys:#x}"),
            row,
            row / config.presumed_subarray_rows,
            group.0,
            range
        );
    }

    println!("\nGroup extents (first 6 groups of socket 0):");
    for info in map.groups_on_socket(0).take(6) {
        println!(
            "  group {:>4}: rows [{:>6}, {:>6}) frames {:?} ({:.2} GiB, contiguous: {})",
            info.id.0,
            info.rows.start,
            info.rows.end,
            info.frames
                .iter()
                .map(|r| format!("{:#x}..{:#x}", r.start * 4096, r.end * 4096))
                .collect::<Vec<_>>(),
            info.bytes() as f64 / (1u64 << 30) as f64,
            info.frames.len() == 1
        );
        layout.counter("groups_listed").inc();
    }
    layout
        .gauge("groups_per_socket")
        .add(i64::from(config.groups_per_socket()));
}
