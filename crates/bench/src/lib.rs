//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the experiment index). Binaries print simulated,
//! deterministic columns only, and `regen.sh` pastes each one's stdout
//! verbatim into EXPERIMENTS.md, so CI can diff the record against the
//! code. Host time is measured by the benchmark harness alone.
//!
//! Nothing else in the workspace depends on this crate: the job service's
//! JSON writer lives in `ra-obs`, and its load generator keeps its own
//! percentile.

/// Arithmetic mean (0 if empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Prints a figure/table banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Exits the process non-zero when a claim's expected shape does not hold.
///
/// Binaries call this after printing their table, so a regenerated
/// EXPERIMENTS.md block can never quietly record a broken claim.
pub fn assert_shape(claim: &str, holds: bool, detail: &str) {
    if !holds {
        eprintln!("FAIL: {claim}: {detail}");
        std::process::exit(1);
    }
}

/// Experiment scale knobs, read from the command line.
///
/// `--quick` shrinks every run for smoke-testing; `--full` enlarges them
/// for closer-to-paper statistics. The default takes seconds per binary in
/// release mode and is the scale EXPERIMENTS.md records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Smoke test: seconds per binary.
    Quick,
    /// Default: the scale EXPERIMENTS.md records.
    #[default]
    Normal,
    /// Large: closest to the paper's run lengths.
    Full,
}

impl Scale {
    /// Parses the process arguments.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Normal
        }
    }

    /// Instructions per core for accuracy experiments.
    pub fn instructions(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Normal => 1_500,
            Scale::Full => 6_000,
        }
    }

    /// Cycle budget guarding each run.
    pub fn budget(self) -> u64 {
        match self {
            Scale::Quick => 2_000_000,
            Scale::Normal => 20_000_000,
            Scale::Full => 100_000_000,
        }
    }
}

/// Full command-line options of the experiment binaries.
///
/// Beyond the [`Scale`] flags, `exp_error` swaps its target for a chiplet
/// system (`--chiplet`) or its workload suite for a recorded trace
/// (`--trace-in`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchArgs {
    /// Run scale (`--quick` / `--full`).
    pub scale: Scale,
    /// Replace the preset target sweep with one chiplet system
    /// (`--chiplet <islands>x<cols>x<rows>[,interposer=<class>]`).
    pub chiplet: Option<ra_cosim::Target>,
    /// Replace the workload with a recorded trace streamed from
    /// `$RA_TRACE_DIR/<name>.ratr` (`--trace-in <name>`).
    pub trace_in: Option<String>,
}

impl BenchArgs {
    /// Parses the process arguments.
    pub fn from_args() -> BenchArgs {
        Self::parse(std::env::args().skip(1))
    }

    fn parse(mut args: impl Iterator<Item = String>) -> BenchArgs {
        let mut out = BenchArgs::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.scale = Scale::Quick,
                "--full" => out.scale = Scale::Full,
                "--chiplet" => {
                    if let Some(spec) = args.next() {
                        match ra_cosim::Target::from_chiplet_spec(&spec) {
                            Ok(target) => out.chiplet = Some(target),
                            Err(e) => eprintln!("ignoring --chiplet {spec}: {e}"),
                        }
                    }
                }
                "--trace-in" => out.trace_in = args.next(),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.instructions() < Scale::Normal.instructions());
        assert!(Scale::Normal.instructions() < Scale::Full.instructions());
        assert!(Scale::Quick.budget() < Scale::Full.budget());
    }

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn bench_args_parse_scale() {
        assert_eq!(parse(&[]), BenchArgs::default());
        assert_eq!(parse(&["--quick"]).scale, Scale::Quick);
        assert_eq!(parse(&["--full"]).scale, Scale::Full);
    }

    #[test]
    fn bench_args_parse_chiplet_and_trace_in() {
        use ra_cosim::{InterposerClass, Target};

        let a = parse(&["--chiplet", "2x4x4,interposer=organic", "--trace-in", "smoke"]);
        assert_eq!(
            a.chiplet,
            Some(Target::chiplet(2, 4, 4, InterposerClass::Organic))
        );
        assert_eq!(a.trace_in.as_deref(), Some("smoke"));
        let junk = parse(&["--chiplet", "1x4x4"]);
        assert_eq!(junk.chiplet, None, "unparseable chiplet spec is ignored");
    }
}
