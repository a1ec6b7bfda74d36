//! The mitigation arena: every [`Backend`] measured head-to-head
//! (EXPERIMENTS §9) on three axes —
//!
//! 1. **Duels** — fixed attack patterns (double-sided, 8-sided) hammered
//!    against a TRR-free DIMM with the backend's controller hook live,
//!    vs one shared undefended reference run: flips blocked by
//!    throttling, flips contained to the aggressors' own subarray
//!    groups, and the attacker's time dilation.
//! 2. **Fleet soak** — a churn scenario with injected attack campaigns
//!    under each backend's full placement + controller policy:
//!    contained/escaped flips under VM-ownership semantics, admission
//!    rejection rates, and isolation violations. Run twice:
//!    classic Rowhammer, then with RowPress dwell
//!    ([`ROWPRESS_DWELL_NS`]) amplifying per-ACT disturbance past the
//!    rivals' ACT-counting thresholds — the regime where throttling
//!    leaks flips but Siloz's containment still holds.
//! 3. **Perf** — the benign-workload arena grid ([`mod@sim::arena`]):
//!    geomean simulated-time overhead vs the undefended baseline. (The
//!    hook's wall-clock cost is `benchmark/`'s `mitigation.on_act_ns`.)
//!
//! Writes `ARENA_report.json` or, with `--quick`, a smaller
//! `ARENA_quick.json` (both committed; `scripts/check.sh` `cmp`s the
//! quick one), into `SILOZ_TELEMETRY_DIR` or the working directory.
//! Every field is simulated, so the files are byte-reproducible.
//! Self-validates before writing: the siloz soak must be
//! violation-free and at least one controller rival must demonstrably
//! block duel flips and contain fleet flips.
//!
//! Usage: `cargo run --release -p bench --bin arena [-- --quick]`

use std::fmt::Write as _;

use dram::DramSystemBuilder;
use dram_addr::{mini_geometry, BankId};
use fleet::{FleetReport, Scenario};
use hammer::{Blacksmith, FuzzConfig, HammerPattern};
use mitigation::Backend;
use numa::PlacementStrategy;
use siloz::SilozConfig;
use sim::SimConfig;

/// One fixed-pattern duel outcome for one backend.
struct Duel {
    pattern: &'static str,
    acts: u64,
    flips_undefended: usize,
    flips_defended: usize,
    /// Defended flips that stayed inside the aggressor rows' own
    /// subarray groups.
    contained_in_subarray: usize,
    /// Defended flips that crossed a subarray-group boundary — the
    /// damage Siloz placement makes impossible by construction.
    escaped_subarray: usize,
    /// Simulated attack time, defended over undefended.
    time_dilation: f64,
}

/// The named attack patterns every backend faces (≥ 2, per the arena
/// contract). Both sit mid-subarray on a TRR-free DIMM and flip bits
/// undefended at the duel's period count.
fn duel_patterns() -> [(&'static str, HammerPattern); 2] {
    [
        ("double_sided", HammerPattern::double_sided(41)),
        ("n_sided_8", HammerPattern::n_sided(40, 8)),
    ]
}

/// Runs one pattern undefended for `periods`, returning
/// `(flips, acts, elapsed_ns)`.
fn undefended_run(pattern: &HammerPattern, periods: u32) -> (usize, u64, u64) {
    let mut dram = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
    let fuzzer = Blacksmith::new(FuzzConfig {
        patterns: 1,
        periods_per_attempt: periods,
        extra_open_ns: 0,
    });
    let mut acts = 0u64;
    fuzzer.hammer(&mut dram, BankId(0), pattern, &mut acts);
    (dram.flip_log().len(), acts, dram.now_ns())
}

/// Runs one pattern with `backend`'s state machine in the loop.
fn defended_duel(
    backend: Backend,
    name: &'static str,
    pattern: &HammerPattern,
    periods: u32,
    reference: (usize, u64, u64),
) -> Duel {
    let (flips_undefended, _, plain_ns) = reference;
    let mut dram = DramSystemBuilder::new(mini_geometry()).trr(0, 0).build();
    let fuzzer = Blacksmith::new(FuzzConfig {
        patterns: 1,
        periods_per_attempt: periods,
        extra_open_ns: 0,
    });
    let mut defense = backend.build();
    let mut acts = 0u64;
    fuzzer.hammer_defended(
        &mut dram,
        BankId(0),
        pattern,
        &mut acts,
        defense.as_mut(),
        7,
    );
    let geometry = *dram.geometry();
    let aggressor_groups: Vec<u32> = pattern
        .slots
        .iter()
        .map(|s| geometry.subarray_of_row(s.row))
        .collect();
    let (mut contained, mut escaped) = (0usize, 0usize);
    for f in dram.flip_log().all() {
        if aggressor_groups.contains(&geometry.subarray_of_row(f.media_row)) {
            contained += 1;
        } else {
            escaped += 1;
        }
    }
    Duel {
        pattern: name,
        acts,
        flips_undefended,
        flips_defended: dram.flip_log().len(),
        contained_in_subarray: contained,
        escaped_subarray: escaped,
        time_dilation: dram.now_ns() as f64 / plain_ns as f64,
    }
}

/// RowPress dwell for the second soak: long enough that rows flip below
/// the rivals' ACT-counting thresholds (the throttling blind spot §2.5
/// probes), short of the silly multi-millisecond extreme.
const ROWPRESS_DWELL_NS: u64 = 60_000;

/// Runs the churn soak under `backend` with the given aggressor dwell.
fn fleet_soak(backend: Backend, events: u32, attack_open_ns: u64) -> FleetReport {
    let mut s = Scenario::quick(23, PlacementStrategy::FirstFit);
    s.target_events = events;
    s.attack_prob = 0.3;
    s.copy_on_flip = false;
    s.mitigation = backend;
    s.attack_open_ns = attack_open_ns;
    fleet::run_fleet(s, &telemetry::Registry::new()).expect("fleet soak")
}

/// Appends one soak's JSON object (keyed `label`) to the report row.
/// `none_flips` is the undefended baseline for the same attack regime.
fn write_fleet_json(json: &mut String, label: &str, f: &FleetReport, none_flips: u64) {
    let rejection_rate = if f.arrivals == 0 {
        0.0
    } else {
        100.0 * (f.rejections + f.admission_vetoes) as f64 / f.arrivals as f64
    };
    let _ = writeln!(
        json,
        "     \"{label}\": {{\"events\": {}, \"attacks\": {}, \"attack_flips\": {}, \
         \"attack_escapes\": {}, \"attack_flips_contained\": {}, \
         \"attack_flips_prevented_vs_none\": {}, \"rejections\": {}, \
         \"admission_vetoes\": {}, \"rejection_rate_pct\": {:.2}, \"violations\": {}, \
         \"clean\": {}}},",
        f.events_processed,
        f.attacks,
        f.attack_flips,
        f.attack_escapes,
        f.attack_flips_contained(),
        none_flips.saturating_sub(f.attack_flips),
        f.rejections,
        f.admission_vetoes,
        rejection_rate,
        f.violations_total,
        f.clean(),
    );
}

struct BackendResult {
    backend: Backend,
    geomean_overhead_pct: f64,
    fleet: FleetReport,
    /// The same soak with `ROWPRESS_DWELL_NS` aggressor dwell: per-ACT
    /// disturbance amplified past the rivals' ACT-counting thresholds.
    fleet_rowpress: FleetReport,
    duels: Vec<Duel>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (periods, events, sim) = if quick {
        (
            12_000u32,
            120u32,
            SimConfig {
                ops: 4_000,
                repeats: 2,
                vm_memory: 128 << 20,
                vcpus: 2,
                working_set: 8 << 20,
            },
        )
    } else {
        (
            30_000,
            300,
            SimConfig {
                ops: 8_000,
                repeats: 3,
                vm_memory: 128 << 20,
                vcpus: 2,
                working_set: 8 << 20,
            },
        )
    };

    let config = SilozConfig::mini();
    let threads = sim::default_threads();
    println!(
        "arena: {} mode, {threads} worker thread(s)",
        if quick { "quick" } else { "full" }
    );

    let grids = sim::arena(
        &config,
        &sim,
        &Backend::ALL,
        &sim::Run::with_threads(threads),
    )
    .expect("perf grid");
    let references: Vec<(&'static str, HammerPattern, (usize, u64, u64))> = duel_patterns()
        .into_iter()
        .map(|(name, p)| {
            let r = undefended_run(&p, periods);
            (name, p, r)
        })
        .collect();

    let mut results = Vec::new();
    for (i, &backend) in Backend::ALL.iter().enumerate() {
        let duels: Vec<Duel> = references
            .iter()
            .map(|(name, p, r)| defended_duel(backend, name, p, periods, *r))
            .collect();
        let fleet = fleet_soak(backend, events, 0);
        let fleet_rowpress = fleet_soak(backend, events, ROWPRESS_DWELL_NS);
        println!(
            "  {:<12} geomean {:+.2}%  fleet {} events, {} flips ({} escaped), \
             rowpress {} flips ({} escaped), {} rejections",
            backend.name(),
            grids[i].geomean_overhead_pct(),
            fleet.events_processed,
            fleet.attack_flips,
            fleet.attack_escapes,
            fleet_rowpress.attack_flips,
            fleet_rowpress.attack_escapes,
            fleet.rejections,
        );
        results.push(BackendResult {
            backend,
            geomean_overhead_pct: grids[i].geomean_overhead_pct(),
            fleet,
            fleet_rowpress,
            duels,
        });
    }

    // Self-validation: the report is only worth committing if the arena
    // actually discriminates the defenses.
    let siloz = &results[1];
    assert_eq!(siloz.backend, Backend::Siloz);
    assert_eq!(
        (siloz.fleet.violations_total, siloz.fleet.attack_escapes),
        (0, 0),
        "siloz soak must uphold the isolation invariant"
    );
    assert_eq!(
        (
            siloz.fleet_rowpress.violations_total,
            siloz.fleet_rowpress.attack_escapes
        ),
        (0, 0),
        "siloz must hold the isolation invariant under RowPress dwell too"
    );
    let none_flips = results[0].fleet.attack_flips;
    assert!(
        results.iter().any(|r| {
            r.backend.controller_hook().is_some()
                && (r.fleet.attack_flips_contained() > 0 || r.fleet.attack_flips < none_flips)
        }),
        "no controller rival contained or prevented any fleet flips"
    );
    assert!(
        results.iter().any(|r| {
            r.backend.controller_hook().is_some() && r.fleet_rowpress.attack_flips_contained() > 0
        }),
        "RowPress dwell must slip some contained flips past at least one rival"
    );
    if !quick {
        let undefended_total: usize = results[0].duels.iter().map(|d| d.flips_undefended).sum();
        assert!(undefended_total > 0, "undefended duels must flip bits");
        assert!(
            results.iter().any(|r| {
                r.backend.controller_hook().is_some()
                    && r.duels
                        .iter()
                        .any(|d| d.flips_defended < d.flips_undefended)
            }),
            "no controller rival blocked any duel flips"
        );
    }

    let mut json = String::from("{\n  \"arena_schema\": 1,\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"duel_periods\": {periods},");
    let _ = writeln!(json, "  \"fleet_events\": {events},");
    let _ = writeln!(json, "  \"rowpress_dwell_ns\": {ROWPRESS_DWELL_NS},");
    json.push_str("  \"backends\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(json, "    {{\"backend\": \"{}\",", r.backend.name());
        let _ = writeln!(
            json,
            "     \"geomean_overhead_pct\": {:.3},",
            r.geomean_overhead_pct
        );
        write_fleet_json(&mut json, "fleet", &r.fleet, none_flips);
        write_fleet_json(
            &mut json,
            "fleet_rowpress",
            &r.fleet_rowpress,
            results[0].fleet_rowpress.attack_flips,
        );
        json.push_str("     \"duels\": [\n");
        for (j, d) in r.duels.iter().enumerate() {
            let _ = write!(
                json,
                "       {{\"pattern\": \"{}\", \"acts\": {}, \"flips_undefended\": {}, \
                 \"flips_defended\": {}, \"flips_blocked\": {}, \"contained_in_subarray\": {}, \
                 \"escaped_subarray\": {}, \"time_dilation\": {:.2}}}",
                d.pattern,
                d.acts,
                d.flips_undefended,
                d.flips_defended,
                d.flips_undefended.saturating_sub(d.flips_defended),
                d.contained_in_subarray,
                d.escaped_subarray,
                d.time_dilation,
            );
            json.push_str(if j + 1 < r.duels.len() { ",\n" } else { "\n" });
        }
        json.push_str("     ]}");
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let name = if quick {
        "ARENA_quick.json"
    } else {
        "ARENA_report.json"
    };
    let path = telemetry::artifact_path(name).expect("artifact directory");
    std::fs::write(&path, &json).expect("write arena report");
    println!("wrote {}", path.display());
}
