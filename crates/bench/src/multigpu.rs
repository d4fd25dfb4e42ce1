//! `repro multigpu` — data-parallel scaling demonstration (the paper's
//! §4.5 future-work extension).
//!
//! Trains all three DGNN models data-parallel at 1, 2 and 4 simulated
//! devices and reports, per run: steady-epoch time, scaling factor over
//! the 1-device run, the ratio to single-GPU `train_pipad`'s steady epoch
//! on the same model and graph (below 1 beats the single-GPU system), halo
//! bytes (input features plus hidden-activation exchange, forward and
//! backward), ring-allreduce bytes and time, and per-device SM utilization
//! and peak memory. The virtual-shard design makes the loss trajectory a
//! pure function of the workload — `measure` asserts the final loss is
//! bit-identical across device counts, and `run` asserts the whole JSON
//! artifact is byte-identical across repeated runs and host-pool thread
//! counts.

use crate::util::{dataset, default_training_config, Method, RunScale};
use pipad::{train_data_parallel, MultiGpuConfig, MultiTrainReport};
use pipad_dyngraph::{DatasetId, DynamicGraph};
use pipad_gpu_sim::validate_json;
use pipad_models::{ModelKind, TrainingConfig};
use pipad_pool::with_threads;
use std::fmt::Write as _;

/// Everything `repro multigpu` produces.
pub struct MultigpuArtifact {
    /// Machine-readable report (`results/multigpu.json`).
    pub json: String,
    /// Text summary (`results/multigpu.txt`).
    pub summary: String,
}

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];
const HIDDEN: usize = 16;

fn run_one(
    model: ModelKind,
    graph: &DynamicGraph,
    cfg: &TrainingConfig,
    n_gpus: usize,
) -> MultiTrainReport {
    train_data_parallel(
        model,
        graph,
        HIDDEN,
        cfg,
        &MultiGpuConfig {
            n_gpus,
            ..Default::default()
        },
    )
    .expect("multi-GPU training")
}

/// `milli` as `N.NN` (truncated).
fn fmt_milli(milli: u64) -> String {
    format!("{}.{:02}", milli / 1000, (milli % 1000) / 10)
}

fn measure(scale: RunScale) -> MultigpuArtifact {
    let graph = dataset(DatasetId::Covid19England, scale);
    let cfg = default_training_config(scale);
    let mut json = String::from("{\"experiment\":\"multigpu\"");
    let _ = write!(json, ",\"scale\":{:?},\"models\":[", scale.label());
    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "multigpu: COVID-19-England ({}), devices {:?}, virtual shards {}",
        scale.label(),
        DEVICE_COUNTS,
        MultiGpuConfig::default().virtual_shards
    );
    let _ = writeln!(
        summary,
        "  {:<10} {:>5} {:>14} {:>8} {:>9} {:>12} {:>12} {:>12} {:>8}",
        "model",
        "gpus",
        "epoch(ns)",
        "scaling",
        "vs_pipad",
        "halo(B)",
        "ar(B)",
        "ar(ns)",
        "sm_util"
    );

    for (mi, model) in ModelKind::ALL.iter().enumerate() {
        if mi > 0 {
            json.push(',');
        }
        let pipad_epoch_ns = Method::Pipad
            .run(*model, &graph, HIDDEN, &cfg)
            .steady_epoch_time
            .as_nanos();
        let _ = write!(
            json,
            "{{\"model\":{:?},\"pipad_steady_epoch_ns\":{},\"runs\":[",
            model.name(),
            pipad_epoch_ns
        );
        let mut base_epoch_ns = 0u64;
        let mut base_loss_bits = 0u32;
        for (ni, &n_gpus) in DEVICE_COUNTS.iter().enumerate() {
            let r = run_one(*model, &graph, &cfg, n_gpus);
            let epoch_ns = r.steady_epoch_time.as_nanos();
            let final_loss = r.epochs.last().expect("epochs").mean_loss;
            if ni == 0 {
                base_epoch_ns = epoch_ns;
                base_loss_bits = final_loss.to_bits();
            } else {
                assert_eq!(
                    final_loss.to_bits(),
                    base_loss_bits,
                    "{model:?}: n_gpus={n_gpus} diverged from the single-device loss"
                );
            }
            let scaling_milli = (base_epoch_ns * 1000).checked_div(epoch_ns).unwrap_or(0);
            let vs_pipad_milli = (epoch_ns * 1000).checked_div(pipad_epoch_ns).unwrap_or(0);
            let sm_milli: Vec<u64> = r
                .per_device_sm_util
                .iter()
                .map(|&u| (u * 1000.0).round() as u64)
                .collect();
            if ni > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"n_gpus\":{},\"steady_epoch_ns\":{},\"scaling_milli\":{},\
                 \"vs_pipad_milli\":{},\"halo_bytes_per_epoch\":{},\"allreduce_bytes_per_epoch\":{},\
                 \"allreduce_ns_per_epoch\":{},\"final_loss_bits\":{},\
                 \"sm_util_milli\":{:?},\"peak_bytes\":{:?}}}",
                r.n_gpus,
                epoch_ns,
                scaling_milli,
                vs_pipad_milli,
                r.halo_bytes_per_epoch,
                r.allreduce_bytes_per_epoch,
                r.allreduce_time_per_epoch.as_nanos(),
                final_loss.to_bits(),
                sm_milli,
                r.per_device_peak,
            );
            let mean_sm = if sm_milli.is_empty() {
                0
            } else {
                sm_milli.iter().sum::<u64>() / sm_milli.len() as u64
            };
            let _ = writeln!(
                summary,
                "  {:<10} {:>5} {:>14} {:>7}x {:>8}x {:>12} {:>12} {:>12} {:>7}%",
                model.name(),
                r.n_gpus,
                epoch_ns,
                fmt_milli(scaling_milli),
                fmt_milli(vs_pipad_milli),
                r.halo_bytes_per_epoch,
                r.allreduce_bytes_per_epoch,
                r.allreduce_time_per_epoch.as_nanos(),
                mean_sm / 10,
            );
        }
        json.push_str("]}");
        let _ = writeln!(
            summary,
            "  {:<10} final loss bit-identical across device counts; \
             train_pipad steady epoch {} ns",
            model.name(),
            pipad_epoch_ns
        );
    }
    json.push_str("]}");
    validate_json(&json).expect("multigpu report is not well-formed JSON");
    let _ = writeln!(
        summary,
        "loss trajectories are a pure function of the workload (virtual shards); \
         vs_pipad = steady epoch / single-GPU train_pipad's"
    );
    MultigpuArtifact { json, summary }
}

/// Run the scaling experiment and verify the determinism contract: the
/// JSON report must be byte-identical across repeated runs and host-pool
/// thread counts.
pub fn run(scale: RunScale) -> MultigpuArtifact {
    let first = measure(scale);
    let serial = with_threads(1, || measure(scale));
    let pooled = with_threads(4, || measure(scale));
    assert_eq!(
        first.json, serial.json,
        "multigpu JSON differs under a 1-thread host pool"
    );
    assert_eq!(
        first.json, pooled.json,
        "multigpu JSON differs under a 4-thread host pool"
    );
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_multigpu_artifact_is_deterministic_and_complete() {
        let art = run(RunScale::Tiny);
        assert!(art.json.starts_with("{\"experiment\":\"multigpu\""));
        for model in ModelKind::ALL {
            assert!(art.json.contains(&format!("{:?}", model.name())));
        }
        for n in DEVICE_COUNTS {
            assert!(art.json.contains(&format!("\"n_gpus\":{n}")));
        }
        assert!(art.json.contains("\"pipad_steady_epoch_ns\":"));
        assert!(art.json.contains("\"vs_pipad_milli\":"));
        assert!(art.summary.contains("bit-identical"));
    }
}
