//! Shared reporting helpers for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md for the experiment index). Binaries print simulated,
//! deterministic columns only, and `regen.sh` pastes each one's stdout
//! verbatim into EXPERIMENTS.md, so CI can diff the record against the
//! code. Host time is measured by the benchmark harness alone.

/// Arithmetic mean (0 if empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile of an unsorted sample (0 if empty).
///
/// `p` is in percent: `percentile(&xs, 50.0)` is the median,
/// `percentile(&xs, 99.0)` the tail the serving experiments report.
///
/// # Example
///
/// ```
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(ra_bench::percentile(&xs, 50.0), 2.0);
/// assert_eq!(ra_bench::percentile(&xs, 100.0), 4.0);
/// ```
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
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

/// One field of a hand-rolled JSON object (the vendored `serde` stub cannot
/// serialize, so `ra-serve` formats its JSON output through this).
#[derive(Debug, Clone)]
pub enum JsonField {
    /// A JSON string (escaped on output).
    Str(String),
    /// A finite float, emitted with full precision.
    Num(f64),
    /// An unsigned integer.
    Int(u64),
    /// Pre-formatted JSON emitted verbatim (nested objects built with
    /// [`json_object`]).
    Raw(String),
}

/// Formats one JSON object from field name/value pairs.
///
/// # Example
///
/// ```
/// use ra_bench::{json_object, JsonField};
/// let row = json_object(&[
///     ("name", JsonField::Str("mesh".into())),
///     ("cycles", JsonField::Int(100)),
/// ]);
/// assert_eq!(row, r#"{"name":"mesh","cycles":100}"#);
/// ```
pub fn json_object(fields: &[(&str, JsonField)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&escape_json(key));
        out.push_str("\":");
        match value {
            JsonField::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            JsonField::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            JsonField::Num(_) => out.push_str("null"),
            JsonField::Int(n) => out.push_str(&format!("{n}")),
            JsonField::Raw(json) => out.push_str(json),
        }
    }
    out.push('}');
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0, "p0 clamps to the minimum");
        // Order must not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95.0), 95.0);
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

    #[test]
    fn json_raw_embeds_verbatim() {
        let row = json_object(&[("trips", JsonField::Raw("[{\"cycle\":5}]".into()))]);
        assert_eq!(row, "{\"trips\":[{\"cycle\":5}]}");
    }

    #[test]
    fn json_escapes_and_formats() {
        let row = json_object(&[
            ("s", JsonField::Str("a\"b\\c\nd".into())),
            ("x", JsonField::Num(1.5)),
            ("nan", JsonField::Num(f64::NAN)),
            ("n", JsonField::Int(7)),
        ]);
        assert_eq!(row, "{\"s\":\"a\\\"b\\\\c\\nd\",\"x\":1.5,\"nan\":null,\"n\":7}");
    }
}
