//! Differential equivalence gate for multi-GPU data-parallel training.
//!
//! The virtual-shard design pins the vertex partition (and with it every
//! floating-point reduction order) independently of the device count, so
//! distributing training must be a *pure placement change*: for each of
//! the three paper models, the per-epoch loss trajectory of an `n_gpus ∈
//! {2, 4}` run must equal the single-GPU run **bit for bit** — with the
//! host buffer pool on or off — and the per-device Chrome traces must be
//! byte-identical across host-pool thread counts. The traces also show
//! where CUDA-graph mode applies: in every steady frame, on every device,
//! and in no preparing frame.

use pipad::{train_data_parallel, MultiGpuConfig, MultiTrainReport};
use pipad_dyngraph::{DatasetId, DynamicGraph, FrameIter, Scale};
use pipad_gpu_sim::validate_json;
use pipad_models::{ModelKind, TrainingConfig};
use pipad_pool::with_threads;
use pipad_tensor::{reset_pool, with_pool_enabled};

fn graph() -> DynamicGraph {
    DatasetId::Covid19England.gen_config(Scale::Tiny).generate()
}

fn cfg() -> TrainingConfig {
    TrainingConfig {
        window: 8,
        epochs: 4,
        preparing_epochs: 2,
        lr: 0.01,
        seed: 7,
    }
}

fn run(model: ModelKind, g: &DynamicGraph, n_gpus: usize) -> MultiTrainReport {
    train_data_parallel(
        model,
        g,
        8,
        &cfg(),
        &MultiGpuConfig {
            n_gpus,
            ..Default::default()
        },
    )
    .expect("train")
}

fn loss_bits(r: &MultiTrainReport) -> Vec<u32> {
    r.epochs.iter().map(|e| e.mean_loss.to_bits()).collect()
}

#[test]
fn device_count_and_pool_do_not_change_losses() {
    let g = graph();
    for model in ModelKind::ALL {
        reset_pool();
        let base = with_pool_enabled(true, || loss_bits(&run(model, &g, 1)));
        assert!(
            base.iter().any(|&b| f32::from_bits(b).is_finite()),
            "{model:?}: reference run produced no finite losses"
        );
        for n_gpus in [2usize, 4] {
            for pool_on in [true, false] {
                reset_pool();
                let multi = with_pool_enabled(pool_on, || loss_bits(&run(model, &g, n_gpus)));
                assert_eq!(
                    base, multi,
                    "{model:?}: losses diverged (n_gpus={n_gpus}, pool_on={pool_on})"
                );
            }
        }
    }
}

#[test]
fn per_device_traces_are_thread_invariant() {
    let g = graph();
    for model in ModelKind::ALL {
        reset_pool();
        let base = with_threads(1, || run(model, &g, 2));
        assert_eq!(base.traces.len(), 2);
        for t in &base.traces {
            validate_json(t).expect("well-formed per-device trace");
        }
        reset_pool();
        let four = with_threads(4, || run(model, &g, 2));
        assert_eq!(
            base.traces, four.traces,
            "{model:?}: per-device traces diverged across thread counts"
        );
        assert_eq!(
            loss_bits(&base),
            loss_bits(&four),
            "{model:?}: losses diverged across thread counts"
        );
    }
}

/// `(name, start ns, end ns)` of every complete (`"ph":"X"`) event in a
/// per-device Chrome trace, which exports one event per line with
/// microsecond timestamps carrying exactly three decimals.
fn spans(trace: &str) -> Vec<(String, u64, u64)> {
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let rest = &line[at..];
        &rest[..rest.find([',', '"', '}']).unwrap_or(rest.len())]
    }
    let nanos = |us: &str| -> u64 { us.replace('.', "").parse().expect("µs with 3 decimals") };
    trace
        .lines()
        .filter(|l| l.contains("\"ph\":\"X\""))
        .map(|l| {
            let ts = nanos(field(l, "\"ts\":"));
            let dur = nanos(field(l, "\"dur\":"));
            (field(l, "\"name\":\"").to_string(), ts, ts + dur)
        })
        .collect()
}

#[test]
fn steady_frames_replay_as_cuda_graphs_on_every_device() {
    let g = graph();
    let c = cfg();
    let frames_per_epoch = FrameIter::new(&g, c.window).count();
    let shards = MultiGpuConfig::default().virtual_shards;
    let r = run(ModelKind::MpnnLstm, &g, 2);
    assert_eq!(r.traces.len(), 2);
    let mut per_frame_total = vec![0usize; c.epochs * frames_per_epoch];
    for (dev, trace) in r.traces.iter().enumerate() {
        let spans = spans(trace);
        // Every frame ends in one ring-allreduce span per device; the next
        // frame's device work starts after it.
        let mut frame_ends: Vec<u64> = spans
            .iter()
            .filter(|(n, _, _)| n == "allreduce")
            .map(|&(_, _, end)| end)
            .collect();
        frame_ends.sort_unstable();
        assert_eq!(frame_ends.len(), per_frame_total.len(), "device {dev}");
        let mut launches = vec![0usize; frame_ends.len()];
        for (_, start, _) in spans.iter().filter(|(n, _, _)| n == "cuda_graph_launch") {
            let frame = frame_ends.partition_point(|&end| end <= *start);
            assert!(
                frame < launches.len(),
                "device {dev}: graph launch after the last frame"
            );
            launches[frame] += 1;
        }
        for (frame, &n) in launches.iter().enumerate() {
            let epoch = frame / frames_per_epoch;
            if epoch < c.preparing_epochs {
                assert_eq!(
                    n, 0,
                    "device {dev} frame {frame}: graph launch in a preparing epoch"
                );
            } else {
                assert!(
                    n >= 1,
                    "device {dev} frame {frame}: steady frame ran without a graph"
                );
            }
            per_frame_total[frame] += n;
        }
    }
    // One scope per shard (forward + sweep-1 backward) and one per device
    // (sweep-2 halo-gradient injection) in each steady frame.
    for (frame, &n) in per_frame_total.iter().enumerate() {
        if frame / frames_per_epoch >= c.preparing_epochs {
            assert_eq!(
                n,
                shards + 2,
                "frame {frame}: graph launches across both devices"
            );
        }
    }
}
