//! `perfbench --workload <apps|apps-recover|serve> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints every metric with its unit, one per line, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when an output check fails, 2 on bad arguments.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::{per_layer, RunConfig, END_TO_END, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <apps|apps-recover|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            toy: false,
        },
    })
}

fn main() -> ExitCode {
    let Args { workload, cfg } = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = perfbench::run(&workload, &cfg).expect("workload name validated by parse");
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    let layers_only = out
        .layers
        .0
        .iter()
        .filter(|(n, ..)| out.e2e.get(n).is_none());
    for (name, value, unit) in out.e2e.0.iter().chain(layers_only) {
        println!("metric {name} {value} {unit}");
    }

    // The result line: the end-to-end metrics, or with --trace 1 every
    // per-layer metric (0 where this workload does not exercise the layer).
    let wanted: Vec<(String, &str)> = if cfg.trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    let source = if cfg.trace { &out.layers } else { &out.e2e };
    let mut unexercised = Vec::new();
    let mut metrics = String::new();
    for (name, unit) in &wanted {
        let value = match source.get(name) {
            Some(v) => v,
            None if cfg.trace => {
                unexercised.push(name.as_str());
                0.0
            }
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if !value.is_finite() {
            out.failures.push(format!("{name} is not finite: {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    if !unexercised.is_empty() {
        println!(
            "# {workload}: layers not exercised (reported as 0): {}",
            unexercised.join(" ")
        );
    }
    if !out.spans.is_empty() {
        let path = perfbench::out_dir().join(format!("trace-{workload}-{}.tsv", cfg.seed));
        match std::fs::write(&path, perfbench::trace::to_tsv(&out.spans)) {
            Ok(()) => println!(
                "# {workload}: {} spans written to {}",
                out.spans.len(),
                path.display()
            ),
            Err(e) => out
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    if out.attempted == 0 {
        out.failures.push("no operation ran".into());
    }
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
