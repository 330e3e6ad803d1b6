//! `nekbench` — the repository benchmark.
//!
//! ```text
//! nekbench --workload <insitu_pb146|intransit_rbc|staging_fanout>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the entry points
//! users call (`run_insitu`, `run_intransit`, `StagingService` +
//! `ConsumerClient`) for about `--seconds` host seconds. `--trace 1` runs
//! the same workload once more, composed from the layers' public calls with
//! host-clock spans around each, and reports the per-layer metrics. Both
//! print a table of every metric (unit and sample count) and end with one
//! JSON result line; a failed output check makes the exit code nonzero.
//! See README.md for the workloads and the metric → layer map.

mod common;
mod insitu_pb146;
mod intransit_rbc;
mod report;
mod shape;
mod spans;
mod staging_fanout;
mod stats;

use report::Report;
use std::time::Duration;

/// End-to-end metrics and their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("virtual_step_s", "s"),
    ("frame_latency_ms.p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in `BENCHMARK.json` order: those
/// every workload's traced run measures. The workload-specific ones
/// (transport write/recv, staging sessions, the TCP virtual ratio, the
/// open-loop lag) are printed in the table where they apply.
const PER_LAYER: &[(&str, &str)] = &[
    ("sem.self_ms", "ms"),
    ("sem.step_ms.p50", "ms"),
    ("sem.step_ms.p90", "ms"),
    ("sem.pressure_iters", "count"),
    ("sem.velocity_iters", "count"),
    ("sem.ax_us", "us"),
    ("sem.gs_us", "us"),
    ("sem.build_ms", "ms"),
    ("commsim.self_ms", "ms"),
    ("commsim.wait_ms.p50", "ms"),
    ("commsim.wait_ms.p90", "ms"),
    ("commsim.allreduce_us", "us"),
    ("commsim.spawn_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.geometry_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.publish_bytes", "B"),
    ("render.self_ms", "ms"),
    ("render.frame_ms.p50", "ms"),
    ("render.frame_ms.p90", "ms"),
    ("render.composite_ms", "ms"),
    ("render.images", "count"),
    ("transport.self_ms", "ms"),
    ("transport.marshal_ms", "ms"),
    ("transport.marshal_bytes", "B"),
    ("transport.crc_ms", "ms"),
    ("transport.unmarshal_ms", "ms"),
    ("memtrack.rank_peak_mb", "MiB"),
    ("memtrack.snapshot_pool_peak_mb", "MiB"),
    ("bench.trace_overhead", "ratio"),
    ("bench.attributed_fraction", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let shape = shape::RunShape::for_workload(&args.workload)?;
    // Pin the rank pool width for every world this process spawns; the
    // ranks themselves already outnumber the cores.
    let mut report = rayon::pool::with_override(shape.pool_threads, || {
        match (args.workload.as_str(), args.trace) {
            ("insitu_pb146", false) => insitu_pb146::measure(args.seed, args.seconds),
            ("insitu_pb146", true) => insitu_pb146::traced(args.seed),
            ("intransit_rbc", false) => intransit_rbc::measure(args.seed, args.seconds),
            ("intransit_rbc", true) => intransit_rbc::traced(args.seed),
            ("staging_fanout", false) => staging_fanout::measure(args.seed, args.seconds),
            ("staging_fanout", true) => staging_fanout::traced(args.seed),
            _ => unreachable!("RunShape::for_workload accepted it"),
        }
    });
    report.push("peak_rss_mb", shape::peak_rss_mb(), "MiB", 1);
    report.push_error_rate();
    report.notes.insert(0, shape.describe(args));
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nekbench: {e}");
            eprintln!(
                "usage: nekbench --workload <insitu_pb146|intransit_rbc|staging_fanout> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nekbench: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.table());
    let listed = if args.trace { PER_LAYER } else { END_TO_END };
    match report.result_json(listed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("nekbench: {e}");
            std::process::exit(1);
        }
    }
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload hit --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, "hit");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(12));
        assert!(a.trace);
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    /// The metric lists here and in BENCHMARK.json must agree, units too.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside nekbench/");
        // (name, unit) pairs of one section, in order.
        let listed_in = |section: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let end = body.find(']').expect("section end");
            let field = |entry: &str, key: &str| {
                let at = entry.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                entry[at..at + entry[at..].find('"').unwrap()].to_string()
            };
            body[..end]
                .split('{')
                .skip(1)
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(listed_in("end_to_end"), owned(END_TO_END));
        assert_eq!(listed_in("per_layer"), owned(PER_LAYER));
    }
}
