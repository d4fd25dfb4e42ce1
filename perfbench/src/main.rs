//! One benchmark for the PiPAD reproduction: three workloads through the
//! public APIs of `pipad`, `pipad-serve` and `pipad-dyngraph`, with
//! simulated device time and host wall-clock, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <epinions-mpnn|covid-serve|covid-mpnn-2gpu> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metrics.

mod chrome;
mod layers;
mod spans;
mod stats;
mod workloads;

use spans::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Ctx, Outcome, BACKLOG_METRICS};

// Makes the `tensor.*` heap counters and the trainers' per-epoch
// allocation records live.
#[global_allocator]
static ALLOC: pipad_tensor::CountingAllocator = pipad_tensor::CountingAllocator;

/// The end-to-end metrics of the JSON result (`--trace 0`), which every
/// workload reports. `BENCHMARK.json` declares the same list.
const END_TO_END: [(&str, &str); 5] = [
    ("steady_epoch_sim_ms", "ms"),
    ("prep_sim_ms", "ms"),
    ("peak_device_mb", "MB"),
    ("run_host_s", "s"),
    ("setup_s", "s"),
];

/// The per-layer metrics of the JSON result (`--trace 1`). A layer a
/// workload does not exercise reports 0. `BENCHMARK.json` declares the
/// same list.
const PER_LAYER: [(&str, &str); 50] = [
    ("dyngraph.generate_s", "s"),
    ("analyzer.run_s", "s"),
    ("analyzer.slicing_sim_ms", "ms"),
    ("prep.build_s", "s"),
    ("prep.overlap_sim_ms", "ms"),
    ("prep.partition_sim_ms", "ms"),
    ("prep.mean_overlap_rate", "ratio"),
    ("tuner.mean_s_per", "snapshots"),
    ("reuse.cpu_hit_rate", "ratio"),
    ("reuse.gpu_hit_rate", "ratio"),
    ("kernels.aggregation_sim_ms", "ms"),
    ("kernels.update_sim_ms", "ms"),
    ("kernels.rnn_sim_ms", "ms"),
    ("kernels.elementwise_sim_ms", "ms"),
    ("kernels.launches", "count"),
    ("kernels.gmem_transactions", "count"),
    ("kernels.warp_efficiency", "ratio"),
    ("gpusim.compute_busy_ms", "ms"),
    ("gpusim.transfer_busy_ms", "ms"),
    ("gpusim.overlap_ms", "ms"),
    ("gpusim.bubble_ms", "ms"),
    ("gpusim.sync_stall_ms", "ms"),
    ("gpusim.sm_util", "ratio"),
    ("gpusim.device_allocs", "count"),
    ("gpusim.host_ns_per_launch", "ns"),
    ("tensor.heap_allocs_per_steady_epoch", "count"),
    ("tensor.pool_misses_per_steady_epoch", "count"),
    ("multigpu.halo_mb_per_epoch", "MB"),
    ("multigpu.allreduce_mb_per_epoch", "MB"),
    ("multigpu.allreduce_sim_ms_per_epoch", "ms"),
    ("multigpu.sm_util_min", "ratio"),
    ("multigpu.single_gpu_steady_epoch_sim_ms", "ms"),
    ("ckpt.train_leg_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("serve.replay_s", "s"),
    ("serve.form_batches_s", "s"),
    ("serve.mean_batch_size", "requests"),
    ("serve.queue_high_water", "requests"),
    ("serve.queue_wait_p50_sim_ms", "ms"),
    ("serve.forward_p50_sim_ms", "ms"),
    ("serve.p50_sim_ms", "ms"),
    ("serve.p99_sim_ms", "ms"),
    ("serve.max_rps", "1/s"),
    (BACKLOG_METRICS[0], "ratio"),
    (BACKLOG_METRICS[1], "ratio"),
    (BACKLOG_METRICS[2], "ratio"),
    (BACKLOG_METRICS[3], "ratio"),
    ("trace.run_host_s", "s"),
    ("trace.overhead_s", "s"),
];

const WORKLOADS: [&str; 3] = ["epinions-mpnn", "covid-serve", "covid-mpnn-2gpu"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? >= 1 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be at least 1".to_string()),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checked-out commit, if the working directory is a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(PathBuf::from(".perfbench_tmp").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  nproc {nproc}, PIPAD_THREADS {}, {}, commit {}",
        std::env::var("PIPAD_THREADS").unwrap_or_else(|_| "unset".to_string()),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit()
    );

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        traced: args.trace,
        spans: Spans::new(args.trace),
        scratch: scratch.0.clone(),
    };
    let out: Outcome = match args.workload.as_str() {
        "epinions-mpnn" => workloads::epinions_mpnn(&mut ctx),
        "covid-serve" => workloads::covid_serve(&mut ctx),
        _ => workloads::covid_mpnn_2gpu(&mut ctx),
    };

    println!("end-to-end:");
    for (name, unit, value) in &out.e2e {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    for (what, crc) in &out.crcs {
        println!("  crc32 {what:<22} {crc:08x}");
    }
    for note in &out.notes {
        println!("  {note}");
    }
    if args.trace {
        println!("per-layer (a layer this workload does not run reads 0):");
        for (name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<42} {value:>16.6} {unit}");
        }
    }
    let mut correct = out.gate.is_empty();
    for g in &out.gate {
        println!("GATE FAILED: {g}");
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, out.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = out.e2e.iter().find(|(n, _, _)| *n == name).map(|m| m.2);
                correct &= value.is_some();
                (name, unit, value.unwrap_or(0.0))
            })
            .collect()
    };
    let metrics: Vec<(&str, &str, f64)> = metrics
        .into_iter()
        .map(|(n, u, v)| {
            correct &= v.is_finite();
            (n, u, if v.is_finite() { v } else { 0.0 })
        })
        .collect();
    println!(
        "{}",
        json_result(correct, out.attempted.max(1), out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_metrics::Json;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let src = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&src).expect("BENCHMARK.json parses");
        let list = |v: Option<&Json>| -> Vec<Json> {
            match v {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("expected a list, got {other:?}"),
            }
        };
        let text = |m: &Json, f: &str| match m.get(f) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("expected a string `{f}`, got {other:?}"),
        };
        let names = |key: &str| -> Vec<(String, String)> {
            list(json.get(key))
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = list(json.get("workloads"))
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload covid-serve --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("covid-serve", 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload covid-serve --seed 3 --seconds 0 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload covid-serve --seed x --seconds 10 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload covid-serve --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload covid-serve --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv(
            "--workload covid-serve --seed 3 --seconds 10 --trace"
        ))
        .is_err());
    }

    #[test]
    fn json_result_has_the_four_keys() {
        let line = json_result(true, 10, 0, &[("a_ms", "ms", 1.25), ("b", "count", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(Json::parse(&line).is_ok());
    }
}
