//! A/A check: two interleaved sets of runs of one build must agree within
//! the benchmark's own bounds, or the bounds mean nothing.

use std::collections::BTreeMap;
use std::process::Command;

use ra_serve::Json;

use crate::metrics::manifest;
use crate::stats::{median, quartiles};

struct Options {
    runs: u64,
    /// Seed of each set's first run: the committed A/A has a second
    /// session on other seeds than the first's.
    seed_base: u64,
}

fn parse(args: &[String]) -> Option<Options> {
    let mut options = Options {
        runs: 0,
        seed_base: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--runs" => options.runs = value.parse().ok()?,
            "--seed-base" => options.seed_base = value.parse().ok()?,
            _ => return None,
        }
    }
    (options.runs >= 2).then_some(options)
}

/// One untraced run in a process of its own; its end-to-end metrics.
fn run_once(workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed={seed} exited with {}:\n{stdout}",
            output.status
        ));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    manifest()
        .end_to_end
        .iter()
        .map(|def| {
            json.get("metrics")
                .and_then(|m| m.get(&def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .map(|value| (def.name.clone(), value))
                .ok_or_else(|| format!("result line lacks `{}`", def.name))
        })
        .collect()
}

struct SetSummary {
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarize(values: &[f64]) -> SetSummary {
    let (q1, q3) = quartiles(values).expect("two runs at least");
    SetSummary {
        median: median(values).expect("two runs at least"),
        q1,
        q3,
    }
}

pub fn main(args: &[String]) -> i32 {
    let Some(options) = parse(args) else {
        eprintln!("usage: ra-benchmark aa --runs <n, at least 2> [--seed-base <n>]");
        return 2;
    };
    println!(
        "A/A: two interleaved sets of {} runs per workload, seeds {}..={}, {} s measured per run, \
         nproc={}, load average at start {}.\n",
        options.runs,
        options.seed_base,
        options.seed_base + options.runs - 1,
        manifest().run_seconds,
        crate::host::nproc(),
        crate::host::load_average_1m().map_or("unknown".to_owned(), |l| l.to_string()),
    );
    println!("| workload | metric | median A | Q1..Q3 A | spread A | median B | Q1..Q3 B | spread B | B against A | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for workload in &manifest().workloads {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for index in 0..options.runs {
            let seed = options.seed_base + index;
            for set in &mut sets {
                eprintln!("aa: {workload} seed={seed}");
                match run_once(workload, seed) {
                    Ok(metrics) => {
                        eprintln!("aa: {metrics:?}");
                        for (name, value) in metrics {
                            set.entry(name).or_default().push(value);
                        }
                    }
                    Err(err) => {
                        eprintln!("aa: {err}");
                        return 1;
                    }
                }
            }
        }
        for def in &manifest().end_to_end {
            let bound = def.bound.expect("an end-to-end metric has a bound");
            let (a, b) = (
                summarize(&sets[0][&def.name]),
                summarize(&sets[1][&def.name]),
            );
            let spread = |s: &SetSummary| (s.q3 - s.q1) / s.median;
            // Positive when set B is worse than set A.
            let worse = match def.better.as_str() {
                "lower" => (b.median - a.median) / a.median,
                _ => (a.median - b.median) / a.median,
            };
            // The set-up's spread across seeds has no bound of its own;
            // its medians must still agree.
            let spread_ok = def.name == "setup_s" || spread(&a).max(spread(&b)) <= bound;
            let ok = spread_ok && worse.abs() <= bound;
            breaches += u32::from(!ok);
            println!(
                "| {workload} | {} ({}) | {:.5} | {:.5}..{:.5} | {:.2} % | {:.5} | {:.5}..{:.5} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                def.name,
                def.unit,
                a.median,
                a.q1,
                a.q3,
                100.0 * spread(&a),
                b.median,
                b.q1,
                b.q3,
                100.0 * spread(&b),
                100.0 * worse,
                100.0 * bound,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    println!("\n{breaches} breaches.");
    i32::from(breaches > 0)
}
