//! Shared helpers for the bench binaries.
//!
//! `paper` regenerates one table or figure of the paper per run (see
//! `DESIGN.md` for the index); `fleet_soak`, `arena` and `cluster_soak`
//! write the committed soak reports. All of them parse their command line
//! with [`Args`], accept `--quick` (scaled-down geometry/workloads, for
//! smoke runs) and default to the evaluation-server configuration.

#![forbid(unsafe_code)]

use siloz::SilozConfig;
use sim::SimConfig;

/// Scale at which to run an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Mini geometry, few ops: seconds.
    Quick,
    /// Evaluation-server geometry, full rosters: 13–17 s for all 16
    /// `paper` artifacts on a 2-core x86-64 Xeon, 9–13 s of it
    /// `table3_containment`'s 40 campaigns, under 1 s for each other one.
    Full,
}

impl Scale {
    /// The hypervisor configuration for this scale.
    #[must_use]
    pub fn config(self) -> SilozConfig {
        match self {
            Scale::Quick => SilozConfig::mini(),
            Scale::Full => SilozConfig::evaluation(),
        }
    }

    /// The simulation parameters for this scale.
    #[must_use]
    pub fn sim(self) -> SimConfig {
        match self {
            Scale::Quick => SimConfig {
                ops: 10_000,
                repeats: 3,
                vm_memory: 256 << 20,
                vcpus: 2,
                working_set: 16 << 20,
            },
            Scale::Full => SimConfig {
                ops: 120_000,
                repeats: 5,
                vm_memory: 6 << 30,
                vcpus: 40,
                working_set: 512 << 20,
            },
        }
    }
}

/// A parsed bench command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The positional argument (`paper`'s artifact), if given.
    pub name: Option<String>,
    /// [`Scale::Quick`] with `--quick`, else [`Scale::Full`].
    pub scale: Scale,
    /// `--scale N`: `cluster_soak`'s thousands-of-hosts tier.
    pub hosts: Option<u32>,
}

impl Args {
    /// Parses `args` (without the program name) against `usage`, which is
    /// also the grammar: `--quick` is always taken, one positional name
    /// only if `usage` shows a `<placeholder>`, and `--scale N` only if it
    /// names `--scale`.
    ///
    /// # Errors
    /// A one-line description of the first argument the binary does not
    /// take, of a missing or non-positive `--scale` count, or of `--quick`
    /// given together with `--scale`.
    pub fn parse<I: IntoIterator<Item = String>>(usage: &str, args: I) -> Result<Self, String> {
        let mut parsed = Args {
            name: None,
            scale: Scale::Full,
            hosts: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => parsed.scale = Scale::Quick,
                "--scale" if usage.contains("--scale") && parsed.hosts.is_none() => {
                    let n = args.next().ok_or("--scale needs a host count")?;
                    let hosts = n.parse().ok().filter(|&h: &u32| h > 0);
                    parsed.hosts = Some(hosts.ok_or_else(|| {
                        format!("--scale needs a positive host count, got `{n}`")
                    })?);
                }
                _ if usage.contains('<') && parsed.name.is_none() && !arg.starts_with('-') => {
                    parsed.name = Some(arg);
                }
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        if parsed.scale == Scale::Quick && parsed.hosts.is_some() {
            return Err("--quick and --scale exclude each other".into());
        }
        Ok(parsed)
    }

    /// [`Args::parse`] over the process arguments. A rejected command line
    /// prints the error and `usage` to stderr and exits with status 2.
    #[must_use]
    pub fn from_env(usage: &str) -> Self {
        Self::parse(usage, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: {usage}");
            std::process::exit(2)
        })
    }
}

/// Snapshots `reg` and writes it to `TELEMETRY_{label}.json` (in
/// `SILOZ_TELEMETRY_DIR`, or the working directory), printing the path.
///
/// `paper` and the soak binaries call this last, so each run leaves a
/// machine-readable record of what the stack actually did next to its
/// human-readable output. A write failure is reported but not fatal — the
/// experiment output itself is already on stdout.
pub fn emit_telemetry(label: &str, reg: &telemetry::Registry) {
    match telemetry::write_snapshot(label, &reg.snapshot()) {
        Ok(path) => println!("\ntelemetry: wrote {}", path.display()),
        Err(e) => eprintln!("\ntelemetry: could not write TELEMETRY_{label}.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_configs_are_valid() {
        Scale::Quick.config().geometry.validate().unwrap();
        Scale::Full.config().geometry.validate().unwrap();
        assert!(Scale::Quick.sim().ops < Scale::Full.sim().ops);
    }

    const PAPER: &str = "paper <artifact> [--quick]";
    const CLUSTER: &str = "cluster_soak [--quick | --scale N]";

    fn parse(usage: &str, args: &[&str]) -> Result<Args, String> {
        Args::parse(usage, args.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_what_each_binary_takes() {
        let full = Args {
            name: None,
            scale: Scale::Full,
            hosts: None,
        };
        assert_eq!(parse(CLUSTER, &[]), Ok(full.clone()));
        assert_eq!(parse(PAPER, &[]), Ok(full.clone()));
        assert_eq!(
            parse(CLUSTER, &["--quick"]).map(|a| a.scale),
            Ok(Scale::Quick)
        );
        assert_eq!(
            parse(CLUSTER, &["--scale", "64"]),
            Ok(Args {
                hosts: Some(64),
                ..full
            })
        );
        assert_eq!(
            parse(PAPER, &["--quick", "fig4_exec_time"]),
            Ok(Args {
                name: Some("fig4_exec_time".into()),
                scale: Scale::Quick,
                hosts: None,
            })
        );
    }

    #[test]
    fn rejects_what_a_binary_does_not_take() {
        for (usage, args) in [
            (CLUSTER, &["--quik"][..]),
            (CLUSTER, &["--quick", "--scale", "64"]),
            (CLUSTER, &["--scale", "64", "--quick"]),
            (CLUSTER, &["--scale"]),
            (CLUSTER, &["--scale", "lots"]),
            (CLUSTER, &["--scale", "0"]),
            (CLUSTER, &["--scale", "-1"]),
            (CLUSTER, &["--scale", "8", "--scale", "8"]),
            (CLUSTER, &["table2_config"]),
            (PAPER, &["--scale", "64"]),
            (PAPER, &["table1_transforms", "table2_config"]),
            (PAPER, &["table2_config", "--full"]),
            ("fleet_soak [--quick]", &["table2_config"]),
            ("fleet_soak [--quick]", &["--scale", "64"]),
        ] {
            assert!(parse(usage, args).is_err(), "{usage} took {args:?}");
        }
    }
}
