//! Experiment driver: regenerates every figure of the paper's evaluation.
//!
//! ```text
//! experiments <id>|all [--fast] [--write <path>]
//! ```
//!
//! * `<id>` — one of fig6..fig18, headline, abl-trig, abl-cells,
//!   abl-chunks (`ALL_EXPERIMENTS` is the index), or `all`;
//! * `--fast` — shrunken workloads (smoke-test mode);
//! * `--write <path>` — additionally append the results to a markdown
//!   file.

use kagen_bench::{run_experiment, ALL_EXPERIMENTS};
use kagen_obs::{error, info, trace};
use std::io::Write;

fn main() {
    kagen_obs::log::init_from_env();
    kagen_obs::log::set_prefix("experiments");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut fast = false;
    let mut write_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--write" => write_path = it.next(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        error!("usage: experiments <id>|all [--fast] [--write <path>]");
        error!("available: {}", ALL_EXPERIMENTS.join(", "));
        std::process::exit(2);
    }
    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids.iter().map(|s| s.as_str()).collect()
    };

    let mut output = String::new();
    for id in selected {
        let span = trace::span(format!("experiment.{id}"));
        match run_experiment(id, fast) {
            Some(section) => {
                info!("[{id}] done in {:.1}s", span.finish());
                println!("{section}");
                output.push_str(&section);
                output.push('\n');
            }
            None => {
                error!("unknown experiment id: {id}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = write_path {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("cannot open output file");
        f.write_all(output.as_bytes()).expect("write failed");
        info!("appended results to {path}");
    }
}
