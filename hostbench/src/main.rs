//! Host wall-clock benchmark of flit-rs.
//!
//! ```text
//! flit-hostbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! flit-hostbench worker        # process-backend worker (spawned by workflow-process)
//! ```
//!
//! Prints a table of the run's metrics, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Exits 1 when any output is wrong, 2 on bad usage.
//! See `README.md` for the workloads and metrics.

mod draw;
mod harness;
mod layers;
mod probe;
mod report;
mod stats;
mod workflow;
mod workloads;

use harness::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        if let Err(e) = flit_cli::run_worker() {
            eprintln!("worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flit-hostbench: {e}");
            eprintln!(
                "usage: flit-hostbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("flit-hostbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let kind = if args.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end"
    };
    println!(
        "{}",
        outcome.table(&format!(
            "flit-hostbench {} seed {} | {kind} | {} threads available",
            args.workload,
            args.seed,
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        ))
    );
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use serde::Deserialize;

    use crate::harness::{end_to_end, Timings};
    use crate::layers::{metrics, Traced};
    use crate::report::Metric;
    use crate::workloads::NAMES;

    #[derive(Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(Deserialize)]
    struct Listed {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Benchmark {
        workloads: Vec<Named>,
        end_to_end: Vec<Listed>,
        per_layer: Vec<Listed>,
    }

    fn pairs(listed: &[Listed]) -> Vec<(&str, &str)> {
        listed
            .iter()
            .map(|l| (l.name.as_str(), l.unit.as_str()))
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(&str, &str)> {
        metrics.iter().map(|m| (m.name, m.unit)).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let e2e = end_to_end(&Timings::default(), "", "");
        assert_eq!(pairs(&doc.end_to_end), reported(&e2e));
        let layers = metrics(&Traced::default());
        assert_eq!(pairs(&doc.per_layer), reported(&layers));
        let workloads: Vec<&str> = doc.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, NAMES);
    }
}
