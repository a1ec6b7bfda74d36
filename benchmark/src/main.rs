//! The repo benchmark: five closed-loop workloads over the simulator's
//! real entry points, measured from outside.
//!
//! `benchmark/run.sh` builds and invokes this binary. With `--workload W`
//! it runs one workload for `--seconds` and prints every metric as
//! `name unit value`, then one JSON object on the last line; without, it
//! re-invokes itself once per workload (twice with `--traced`) and merges
//! the per-workload results into `results.json`. See `benchmark/README.md`
//! for the metric and workload definitions.

#![forbid(unsafe_code)]

mod cluster_churn;
mod figure;
mod fleet_churn;
mod json;
mod measure;
mod metrics;
mod probes;
mod trace;
mod workload;

use json::Json;
use measure::{median, peak_rss_mb_now, Distribution, RegionCost, SpeedProbe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Observations, Pass, Workload};

/// Share of `--seconds` a traced run spends in the pass loop; the layer
/// probes that follow take a few seconds of their own.
const TRACED_LOOP_SHARE: f64 = 0.5;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
}

fn usage() -> String {
    format!(
        "usage: siloz-benchmark [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1 | --traced] [--out DIR] [--commit HASH]",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !metrics::WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a duration")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => args.trace = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--commit" => args.commit = value("a hash")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn make_workload(name: &str) -> Box<dyn Workload> {
    use figure::{Figure, FigureKind};
    use fleet_churn::{FleetChurn, FleetKind};
    match name {
        "cluster_churn" => Box::new(cluster_churn::ClusterChurn),
        "fleet_soak" => Box::new(FleetChurn::new(FleetKind::Soak)),
        "figure_cold" => Box::new(Figure::new(FigureKind::Cold)),
        "figure_warm" => Box::new(Figure::new(FigureKind::Warm)),
        "defended_fleet" => Box::new(FleetChurn::new(FleetKind::Defended)),
        other => unreachable!("workload `{other}` passed argument validation"),
    }
}

/// The seed of pass `i`: distinct inputs every pass, all derived from the
/// CLI seed.
fn pass_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(4096).wrapping_add(i)
}

/// Untraced passes every run completes even when the first ones overran
/// `--seconds` (a fresh process can spend many seconds of system time on
/// its first page faults): the throughput is pooled over at least these.
const MIN_PASSES: usize = 3;

/// Totals over a set of passes.
#[derive(Default)]
struct Totals {
    cost: RegionCost,
    /// User CPU seconds rescaled to the reference machine speed: a pass
    /// measured while the machine ran at 0.8 of it would have taken 0.8
    /// of the time.
    reference_cpu_s: f64,
    events: u64,
    attempted: u64,
    failed: u64,
}

fn totals(passes: &[Pass]) -> Totals {
    let mut t = Totals::default();
    for p in passes {
        t.cost.absorb(&p.cost);
        t.reference_cpu_s += p.cost.user_s * p.machine_speed;
        t.events += p.events;
        t.attempted += p.attempted;
        t.failed += p.failed;
    }
    t
}

/// Reference-speed CPU seconds per simulated event.
fn cpu_per_event(t: &Totals) -> f64 {
    t.reference_cpu_s / t.events.max(1) as f64
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn pass_json(seed: u64, p: &Pass) -> Json {
    Json::obj([
        ("seed", Json::Int(seed)),
        ("setup_s", Json::Num(p.setup_s)),
        ("events", Json::Int(p.events)),
        ("user_cpu_s", Json::Num(p.cost.user_s)),
        ("machine_speed", Json::Num(p.machine_speed)),
        ("sys_cpu_s", Json::Num(p.cost.sys_s)),
        ("wall_s", Json::Num(p.cost.wall_s)),
        ("minor_faults", Json::Int(p.cost.minor_faults)),
        ("attempted", Json::Int(p.attempted)),
        ("failed", Json::Int(p.failed)),
        ("sim_digest", Json::str(format!("{:016x}", p.digest))),
    ])
}

/// Every pass one run of a workload made.
struct Measured {
    /// Untraced passes: the only source of end-to-end metrics.
    plain: Vec<Pass>,
    /// Traced passes (traced runs only), pass for pass on the same seeds.
    traced: Vec<Pass>,
    /// The seed of pass pair `i`.
    seeds: Vec<u64>,
    /// `VmHWM` after the process's first pass.
    first_pass_rss_mb: f64,
}

/// Runs passes until `--seconds` have gone by, sampling machine speed
/// between them.
fn measure_passes(
    workload: &mut dyn Workload,
    args: &Args,
    tracer: &mut Tracer,
    obs: &mut Observations,
) -> Measured {
    let budget = if args.trace {
        args.seconds * TRACED_LOOP_SHARE
    } else {
        args.seconds
    };
    let deadline = Duration::from_secs_f64(budget);
    let started = Instant::now();
    let mut m = Measured {
        plain: Vec::new(),
        traced: Vec::new(),
        seeds: Vec::new(),
        first_pass_rss_mb: 0.0,
    };
    let mut idle_tracer = Tracer::new(false);
    // Machine speed around each pass: the mean of the probe samples taken
    // just before and just after it.
    let mut probe = SpeedProbe::new();
    let mut speed_before = probe.sample();
    for i in 0u64.. {
        let seed = pass_seed(args.seed, i);
        m.seeds.push(seed);
        // A traced run pairs every untraced pass with a traced pass on
        // the same inputs, alternating which goes first so neither always
        // inherits the other's warmed heap.
        let order: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        for &traced_now in order {
            let mut pass = if traced_now {
                tracer.set_run(i as u32);
                workload.pass(seed, tracer, obs)
            } else {
                workload.pass(seed, &mut idle_tracer, obs)
            };
            if m.first_pass_rss_mb == 0.0 {
                m.first_pass_rss_mb = peak_rss_mb_now();
            }
            let speed_after = probe.sample();
            pass.machine_speed = (speed_before + speed_after) / 2.0;
            speed_before = speed_after;
            if traced_now {
                m.traced.push(pass);
            } else {
                m.plain.push(pass);
            }
        }
        let elapsed = started.elapsed();
        if (elapsed >= deadline && m.plain.len() >= MIN_PASSES) || elapsed >= 6 * deadline {
            break;
        }
    }
    m
}

/// The traced run's report: runs the layer probes, then assembles every
/// per-layer metric (printing each) and the detail sections that go with
/// them in the result file.
fn layer_report(
    workload: &dyn Workload,
    args: &Args,
    m: &Measured,
    tracer: &mut Tracer,
    obs: &mut Observations,
) -> Result<Vec<(&'static str, Json)>, String> {
    let t = totals(&m.plain);
    let tt = totals(&m.traced);
    let inputs = workload.probe_inputs(pass_seed(args.seed, 0));
    let probe_run = tracer.open("run.probes", "process");
    let probed = probes::probe_layers(&inputs, tracer, obs)
        .map_err(|e| format!("layer probe failed: {e}"))?;
    tracer.close(probe_run, 0, None);

    let mut values: Vec<(&str, f64)> = workload.layer_metrics(obs);
    values.extend(probed);
    let lookup = |values: &[(&str, f64)], metric: &str| {
        values
            .iter()
            .find(|(n, _)| *n == metric)
            .map_or(0.0, |(_, v)| *v)
    };
    let attribution = workload.attribution(obs, &|metric| lookup(&values, metric));
    let attributed: f64 = attribution.iter().map(|(_, s)| s).sum();
    // The process's first pass took the faults; later ones reuse its heap.
    let cold = &m.traced[0];
    values.extend([
        ("process.wall_s", t.cost.wall_s),
        ("process.user_cpu_s", t.cost.user_s),
        ("process.sys_cpu_s", t.cost.sys_s),
        ("process.minor_faults", t.cost.minor_faults as f64),
        (
            "process.minor_faults_per_kevent",
            cold.cost.minor_faults as f64 / (cold.events.max(1) as f64 / 1e3),
        ),
        (
            "process.events_per_raw_cpu_s",
            t.events as f64 / t.cost.user_s,
        ),
        ("process.machine_speed", t.reference_cpu_s / t.cost.user_s),
        (
            "process.trace_overhead_frac",
            cpu_per_event(&tt) / cpu_per_event(&t) - 1.0,
        ),
        (
            "process.unattributed_frac",
            1.0 - attributed / tt.cost.user_s,
        ),
    ]);

    let per_layer = Json::obj(metrics::PER_LAYER.iter().map(|(metric, unit, _)| {
        // A layer this workload does not drive reads 0.
        let value = lookup(&values, metric);
        println!("{metric} {unit} {value}");
        (*metric, metric_json(value, unit))
    }));
    let distributions = Json::obj(obs.sample_keys().map(|key| {
        let samples = obs.samples(key);
        let d = Distribution::of(samples);
        let mut entry = vec![
            ("n", Json::Int(d.n as u64)),
            ("p50", Json::Num(d.p50)),
            ("mean", Json::Num(d.mean)),
            ("sum", Json::Num(samples.iter().sum())),
        ];
        if let Some((q, v)) = d.tail {
            entry.push(("tail_q", Json::Num(q)));
            entry.push(("tail", Json::Num(v)));
        }
        (key, Json::obj(entry))
    }));
    let attribution = Json::obj(
        attribution
            .into_iter()
            .map(|(term, s)| (term, Json::Num(s)))
            .chain([
                ("timed_user_cpu_s".to_owned(), Json::Num(tt.cost.user_s)),
                ("attributed_s".to_owned(), Json::Num(attributed)),
            ]),
    );
    Ok(vec![
        ("per_layer", per_layer),
        ("distributions", distributions),
        (
            "counts",
            Json::obj(obs.totals().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("attribution_s", attribution),
        ("traced_passes", passes_json(&m.seeds, &m.traced)),
    ])
}

fn passes_json(seeds: &[u64], passes: &[Pass]) -> Json {
    Json::Arr(
        seeds
            .iter()
            .zip(passes)
            .map(|(s, p)| pass_json(*s, p))
            .collect(),
    )
}

/// Runs one workload and writes `<out>/<workload>[.traced].json` (plus
/// `trace_<workload>.json` when traced). Returns whether every output
/// check passed.
fn measure_workload(name: &str, args: &Args) -> Result<bool, String> {
    let mut workload = make_workload(name);
    let mut tracer = Tracer::new(args.trace);
    let mut obs = Observations::default();
    let m = measure_passes(workload.as_mut(), args, &mut tracer, &mut obs);

    let t = totals(&m.plain);
    let first = &m.plain[0];
    let setups: Vec<f64> = m.plain.iter().map(|p| p.setup_s).collect();
    let end_to_end = [
        t.events as f64 / t.reference_cpu_s,
        m.first_pass_rss_mb,
        median(&setups),
    ];

    println!("# {name}: seed {} over {} passes", args.seed, m.plain.len());
    let end_to_end = Json::obj(metrics::END_TO_END.iter().zip(end_to_end).map(
        |((metric, unit, _), value)| {
            println!("{metric} {unit} {value}");
            (*metric, metric_json(value, unit))
        },
    ));
    println!("sim_events count {}", first.events);
    println!("sim_digest fnv1a {:016x}", first.digest);
    let mut doc = vec![
        ("workload", Json::str(name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("passes", Json::Int(m.plain.len() as u64)),
        ("sim_events", Json::Int(first.events)),
        ("sim_digest", Json::str(format!("{:016x}", first.digest))),
        ("end_to_end", end_to_end.clone()),
    ];
    // What the last stdout line carries: end-to-end metrics from an
    // untraced run, per-layer metrics from a traced one.
    let mut reported = end_to_end;
    if args.trace {
        let sections = layer_report(workload.as_ref(), args, &m, &mut tracer, &mut obs)?;
        reported = sections[0].1.clone();
        doc.extend(sections);
    }

    let tt = totals(&m.traced);
    let (attempted, failed) = (t.attempted + tt.attempted, t.failed + tt.failed);
    let failures: Vec<&String> = m
        .plain
        .iter()
        .chain(&m.traced)
        .flat_map(|p| &p.failures)
        .take(8)
        .collect();
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!("failed_frac frac {failed_frac}");
    doc.extend([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("failed_frac", Json::Num(failed_frac)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::str).collect()),
        ),
        (
            "process",
            Json::obj([
                ("wall_s", Json::Num(t.cost.wall_s)),
                ("user_cpu_s", Json::Num(t.cost.user_s)),
                ("sys_cpu_s", Json::Num(t.cost.sys_s)),
                ("minor_faults", Json::Int(t.cost.minor_faults)),
                (
                    "events_per_raw_cpu_s",
                    Json::Num(t.events as f64 / t.cost.user_s),
                ),
                (
                    "machine_speed",
                    Json::Num(t.reference_cpu_s / t.cost.user_s),
                ),
                ("peak_rss_mb_end_of_run", Json::Num(peak_rss_mb_now())),
            ]),
        ),
        ("untraced_passes", passes_json(&m.seeds, &m.plain)),
    ]);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    if args.trace {
        write(
            args.out.join(format!("trace_{name}.json")),
            tracer.document(name, args.seed).pretty(),
        )?;
    }
    write(
        fragment_path(&args.out, name, args.trace),
        Json::obj(doc).pretty(),
    )?;

    // The machine-readable result: last line of standard output.
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", reported),
    ]);
    println!("{}", line.compact());
    Ok(failed == 0)
}

fn fragment_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    })
}

/// Runs every workload, each in a process of its own (peak RSS and fault
/// counts are per process), and merges their results into `results.json`.
fn measure_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut merged = Vec::new();
    for name in metrics::WORKLOADS {
        let mut entry = Vec::new();
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &traced in modes {
            // `status` waits for the child to end.
            let status = Command::new(&exe)
                .args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .args(["--commit", &args.commit])
                .status()
                .map_err(|e| format!("spawning {name}: {e}"))?;
            all_correct &= status.success();
            let path = fragment_path(&args.out, name, traced);
            let fragment =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            entry.push((if traced { "traced" } else { "untraced" }, fragment));
        }
        merged.push((name, entry));
    }
    // The fragments are already JSON; splice them in verbatim.
    let text = Json::obj([
        ("machine", machine_json(&args.commit)),
        (
            "workloads",
            Json::obj(merged.into_iter().map(|(name, entry)| {
                let modes = entry
                    .into_iter()
                    .map(|(mode, text)| (mode, Json::Raw(text)));
                (name, Json::obj(modes))
            })),
        ),
    ])
    .pretty();
    let path = args.out.join("results.json");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

/// The machine line: a result means nothing without it.
fn machine_json(commit: &str) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("nproc", Json::Int(cores)),
        ("worker_threads", Json::Int(1)),
        ("commit", Json::str(commit)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => measure_workload(name, &args),
        None => measure_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "figure_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("figure_warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 11, false));
        assert!(parse(&["--traced"]).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "nan"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn pass_seeds_are_distinct_across_passes_and_neighbouring_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..20 {
            for i in 0..200 {
                assert!(seen.insert(pass_seed(seed, i)));
            }
        }
    }
}
