//! The three workloads. Each sets up its inputs from the seed, times the
//! measured call at 2 host threads for the run's seconds, repeats it once
//! at 1 thread as part of the correctness gate, and reads the per-layer
//! metrics from the returned reports and device traces.

use crate::chrome::tracer_from_chrome;
use crate::layers::{self, hit_rate, span_durations, window_metrics, Layers};
use crate::spans::Spans;
use crate::stats::{self, LadderPoint};
use pipad::{
    train_data_parallel, train_pipad, GraphAnalyzer, MultiGpuConfig, MultiTrainReport,
    PartitionCatalog, PipadConfig,
};
use pipad_ckpt::{crc32, latest_checkpoint, CheckpointPolicy};
use pipad_dyngraph::{DatasetId, DynamicGraph, FrameIter, Scale};
use pipad_gpu_sim::{ArgValue, DeviceConfig, Gpu, Lane, Profiler, SimNanos, TraceKind, Tracer};
use pipad_metrics::{analyze, percentile_nearest_rank};
use pipad_models::{EpochReport, ModelKind, TrainReport, TrainingConfig};
use pipad_pool::with_threads;
use pipad_serve::{
    form_batches, generate_requests, serve_open_loop, BatchPolicy, EngineConfig, RequestGenConfig,
    RequestOutcome, ServeEngine, ServeSimConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Host threads of the timed repetitions; the gate repetition uses 1.
const TIMED_THREADS: usize = 2;
/// Epochs of every training call: 2 preparing, 2 steady.
const EPOCHS: usize = 4;
const PREPARING_EPOCHS: usize = 2;
/// Hidden width of the serving workload's T-GCN.
const SERVE_HIDDEN: usize = 16;
/// Requests offered at each rate of the serving ladder; 1200 leave 12
/// samples beyond the p99.
const REQUESTS_PER_RATE: usize = 1200;
/// Mean interarrival gaps of the serving ladder, ns: 500 rps (the fixed
/// rate the latency metrics use), 700 rps just below the serving
/// capacity, and 1000 and 6667 rps past it, so an overload shows.
pub const LADDER_GAPS_NS: [u64; 4] = [2_000_000, 1_428_571, 1_000_000, 150_000];
/// The fixed-rate replay: 500 rps.
const FIXED_GAP_NS: u64 = LADDER_GAPS_NS[0];
/// Per-layer names of the ladder's backlog growth, one per rate.
pub const BACKLOG_METRICS: [&str; 4] = [
    "serve.backlog_growth.rps500",
    "serve.backlog_growth.rps700",
    "serve.backlog_growth.rps1000",
    "serve.backlog_growth.rps6667",
];

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics that apply to this workload: name, unit, value.
    pub e2e: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Operations attempted and failed in the fixed-rate measurement:
    /// training frames, or requests offered at 500 rps.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty when the run is correct.
    pub gate: Vec<String>,
    /// CRC-32s of loss and served-logit bits, for diffing across commits.
    pub crcs: Vec<(String, u32)>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

/// Run settings shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub spans: Spans,
    /// Scratch directory inside the checkout for checkpoints.
    pub scratch: PathBuf,
}

/// splitmix64 of `seed ^ salt`: the per-input seeds derived from the
/// benchmark seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn training_config() -> TrainingConfig {
    TrainingConfig {
        window: 16,
        epochs: EPOCHS,
        preparing_epochs: PREPARING_EPOCHS,
        lr: 0.01,
        seed: 7,
    }
}

/// The dataset at laptop scale, drawn from the seed: the generator's seed,
/// and a scale within ±1% of the dataset's vertex and per-snapshot edge
/// counts. Without the scale, COVID-19-England graphs of every seed have
/// the same sizes and so the same simulated times; the edge count alone
/// does not move the T-GCN steady epoch there.
fn generate(spans: &mut Spans, id: DatasetId, seed: u64) -> DynamicGraph {
    let mut cfg = id.gen_config(Scale::Laptop);
    let scale = 0.99 + (derive_seed(seed, 0x5CA1E) % 201) as f64 / 10_000.0;
    let jitter = |n: usize| (n as f64 * scale).round() as usize;
    cfg.n_vertices = jitter(cfg.n_vertices);
    cfg.edges_per_snapshot = jitter(cfg.edges_per_snapshot);
    cfg.seed = derive_seed(seed, cfg.seed);
    spans.time("GenConfig::generate", |_| cfg.generate())
}

/// The workload's set-up, timed every time it runs. It runs in blocks
/// spread over the whole run, before the first timed repetition and after
/// each one: a shared host's speed drifts in phases of several seconds,
/// and `setup_s` should not depend on the phase of a single block.
struct SetUp<F> {
    f: F,
    times: Vec<f64>,
    blocks: usize,
}

/// A set-up block repeats the set-up until this many seconds have passed
/// and it has run at least [`SETUP_MIN_PER_BLOCK`] times.
const SETUP_BLOCK_S: f64 = 0.25;
const SETUP_MIN_PER_BLOCK: usize = 2;

impl<F> SetUp<F> {
    fn new(f: F) -> Self {
        SetUp {
            f,
            times: Vec::new(),
            blocks: 0,
        }
    }

    /// Run one block and return the last result.
    fn block<T>(&mut self, ctx: &mut Ctx) -> T
    where
        F: FnMut(&mut Ctx) -> T,
    {
        self.blocks += 1;
        let start = Instant::now();
        let mut n = 0;
        loop {
            let t = Instant::now();
            let out = with_threads(TIMED_THREADS, || (self.f)(ctx));
            self.times.push(t.elapsed().as_secs_f64());
            n += 1;
            if n >= SETUP_MIN_PER_BLOCK && start.elapsed().as_secs_f64() >= SETUP_BLOCK_S {
                return out;
            }
        }
    }

    /// `setup_s` over every set-up of the run ([`stats::setup_time`]),
    /// and a report line saying what it was taken from.
    fn value(&self) -> (f64, String) {
        let n = self.times.len();
        let value = stats::setup_time(&self.times).expect("at least one set-up");
        let how = if n >= stats::FASTEST_SETUP_MIN_SAMPLES {
            "fastest"
        } else {
            "median"
        };
        let note = format!(
            "set-up {how} {value:.4} s of {n} set-ups in {} blocks",
            self.blocks
        );
        (value, note)
    }
}

/// One repetition of the measured call.
struct Rep<T> {
    /// Host time of the measured call alone.
    host_s: f64,
    /// Whether the benchmark's spans were recording.
    traced: bool,
    out: T,
}

/// Repeat `call` at [`TIMED_THREADS`] host threads at least twice and
/// until the run's seconds have passed, then once at 1 thread, with a
/// set-up block (`between`) after each. A traced run alternates spans on
/// and off, so the tracing overhead can be measured. `call` returns the
/// host time of its measured part.
fn measure<T>(
    ctx: &mut Ctx,
    mut call: impl FnMut(&mut Ctx, bool) -> (f64, T),
    mut between: impl FnMut(&mut Ctx),
) -> (Vec<Rep<T>>, T) {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.traced && reps.len() % 2 == 0;
        ctx.spans.set_enabled(traced);
        // Only the first traced repetition is analysed layer by layer.
        let analyse = traced && reps.is_empty();
        let (host_s, out) = with_threads(TIMED_THREADS, || call(ctx, analyse));
        reps.push(Rep {
            host_s,
            traced,
            out,
        });
        ctx.spans.set_enabled(ctx.traced);
        between(ctx);
    }
    ctx.spans.set_enabled(false);
    let (_, gate) = with_threads(1, || call(ctx, false));
    ctx.spans.set_enabled(ctx.traced);
    between(ctx);
    (reps, gate)
}

/// Median host time of the timed repetitions, and in a traced run the
/// traced median minus the untraced one.
fn host_times<T>(reps: &[Rep<T>]) -> (f64, Option<(f64, f64)>) {
    let pick = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.host_s)
            .collect()
    };
    let all: Vec<f64> = reps.iter().map(|r| r.host_s).collect();
    let median = stats::median(&all).expect("at least one repetition");
    match (stats::median(&pick(true)), stats::median(&pick(false))) {
        (Some(t), Some(u)) => (median, Some((t, t - u))),
        _ => (median, None),
    }
}

/// Compare every repetition's digest (and the 1-thread one) against the
/// first.
fn gate_digests(out: &mut Outcome, what: &str, digests: &[&str], gate: &str) {
    let first = digests[0];
    for (i, d) in digests.iter().enumerate().skip(1) {
        if *d != first {
            out.gate
                .push(format!("{what}: repetition {i} differs from repetition 0"));
        }
    }
    if gate != first {
        out.gate.push(format!(
            "{what}: the 1-thread run differs from the 2-thread run"
        ));
    }
}

fn loss_crc(epochs: &[EpochReport]) -> u32 {
    let bits: Vec<u8> = epochs
        .iter()
        .flat_map(|e| e.mean_loss.to_bits().to_le_bytes())
        .collect();
    crc32(&bits)
}

/// Losses must be finite and fall from the first epoch to the last.
fn gate_losses(out: &mut Outcome, what: &str, epochs: &[EpochReport]) {
    let losses: Vec<f32> = epochs.iter().map(|e| e.mean_loss).collect();
    if losses.iter().any(|l| !l.is_finite()) {
        out.gate
            .push(format!("{what}: non-finite epoch loss {losses:?}"));
    } else if losses.last() >= losses.first() {
        out.gate
            .push(format!("{what}: loss did not fall, {losses:?}"));
    }
}

fn sim_ms(t: SimNanos) -> f64 {
    t.as_nanos() as f64 / 1e6
}

fn prep_time(epochs: &[EpochReport]) -> SimNanos {
    epochs
        .iter()
        .take(PREPARING_EPOCHS)
        .fold(SimNanos::ZERO, |a, e| a + e.sim_time)
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// `tensor.*`: host heap allocations and buffer-pool misses per steady
/// epoch, as the trainers record them.
fn tensor_metrics(l: &mut Layers, epochs: &[EpochReport]) {
    let steady = &epochs[PREPARING_EPOCHS.min(epochs.len())..];
    let n = steady.len().max(1) as f64;
    l.insert(
        "tensor.heap_allocs_per_steady_epoch",
        steady.iter().map(|e| e.alloc.heap_allocs).sum::<u64>() as f64 / n,
    );
    l.insert(
        "tensor.pool_misses_per_steady_epoch",
        steady.iter().map(|e| e.alloc.pool_misses).sum::<u64>() as f64 / n,
    );
}

/// A single-GPU training call, reduced to what the run reports.
struct TrainRun {
    digest: String,
    report: Option<TrainReport>,
    error: Option<String>,
    skipped: u64,
    layers: Layers,
    time_shares: Vec<(String, f64)>,
}

/// Train on a fresh device; the host time covers `train_pipad` alone. With `analyse`, read the per-layer metrics from
/// the device's trace and profiler afterwards.
fn run_train_pipad(
    spans: &mut Spans,
    model: ModelKind,
    graph: &DynamicGraph,
    hidden: usize,
    pcfg: &PipadConfig,
    analyse: bool,
) -> (f64, TrainRun) {
    let cfg = training_config();
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let t = Instant::now();
    let result = spans.time("train_pipad", |_| {
        train_pipad(&mut gpu, model, graph, hidden, &cfg, pcfg)
    });
    let host_s = t.elapsed().as_secs_f64();
    let skipped = layers::skipped_steps(gpu.trace());
    let mut run = TrainRun {
        digest: String::new(),
        report: None,
        error: None,
        skipped,
        layers: Layers::new(),
        time_shares: Vec::new(),
    };
    match result {
        Ok(r) => {
            run.digest = format!(
                "epochs={:?} steady={} peak={} skipped={} loss_crc={:08x}",
                r.epochs
                    .iter()
                    .map(|e| e.sim_time.as_nanos())
                    .collect::<Vec<_>>(),
                r.steady_epoch_time.as_nanos(),
                r.peak_mem,
                skipped,
                loss_crc(&r.epochs)
            );
            if analyse {
                let health = analyze(gpu.trace(), gpu.profiler());
                if let Some(steady) = &health.steady {
                    let per = (r.epochs.len() - PREPARING_EPOCHS) as f64;
                    run.time_shares =
                        window_metrics(&mut run.layers, &[(gpu.trace(), steady)], per);
                }
                let launches = gpu.profiler().full().kernel_launches;
                run.layers.insert(
                    "gpusim.host_ns_per_launch",
                    host_s * 1e9 / launches.max(1) as f64,
                );
                run.layers
                    .insert("tuner.mean_s_per", layers::mean_s_per(gpu.trace()));
                run.layers.insert(
                    "reuse.cpu_hit_rate",
                    layers::reuse_hit_rate(gpu.trace(), "cpu"),
                );
                run.layers.insert(
                    "reuse.gpu_hit_rate",
                    layers::reuse_hit_rate(gpu.trace(), "gpu"),
                );
                tensor_metrics(&mut run.layers, &r.epochs);
            }
            run.report = Some(r);
        }
        Err(e) => {
            run.digest = format!("error: {e}");
            run.error = Some(e.to_string());
        }
    }
    (host_s, run)
}

/// Gate and summarize the training repetitions of a single-GPU workload.
fn train_outcome(out: &mut Outcome, what: &str, runs: &[&TrainRun], frames: u64) {
    let digests: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
    let (gate, timed) = digests.split_last().expect("a gate run");
    gate_digests(out, what, timed, gate);
    for r in runs {
        out.attempted += frames;
        match (&r.report, &r.error) {
            (Some(report), _) => {
                out.failed += r.skipped;
                gate_losses(out, what, &report.epochs);
            }
            (None, e) => {
                out.failed += frames;
                out.gate.push(format!("{what}: aborted: {e:?}"));
            }
        }
    }
}

/// Run the standalone analyzer and partition-catalog calls on `graph`:
/// `analyzer.*` and `prep.*` set-up costs, host and simulated.
fn analyzer_and_catalog(spans: &mut Spans, l: &mut Layers, graph: &DynamicGraph) {
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let mut host = SimNanos::ZERO;
    let analyzer = spans.time("GraphAnalyzer::run", |_| {
        GraphAnalyzer::run(&mut gpu, graph, &mut host)
    });
    let slicing = host;
    let catalog = spans.time("PartitionCatalog::build", |_| {
        PartitionCatalog::build(&mut gpu, &analyzer, &mut host)
    });
    l.insert("analyzer.slicing_sim_ms", sim_ms(slicing));
    l.insert("prep.overlap_sim_ms", sim_ms(host - slicing));
    l.insert("prep.mean_overlap_rate", catalog.mean_overlap_rate(4));
    let first = |v: Vec<f64>| v.first().copied().unwrap_or(0.0);
    l.insert(
        "analyzer.run_s",
        first(spans.self_times_s("GraphAnalyzer::run")),
    );
    l.insert(
        "prep.build_s",
        first(spans.self_times_s("PartitionCatalog::build")),
    );
}

/// Report where the measured window's simulated time went; the first
/// entry is the workload's dominant layer.
fn note_time_shares(out: &mut Outcome, shares: &[(String, f64)]) {
    let top: Vec<String> = shares
        .iter()
        .take(6)
        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
        .collect();
    out.notes.push(format!(
        "simulated time of the measured window, largest first: {}",
        top.join(", ")
    ));
}

/// Record the generated input's size in the report.
fn note_input(out: &mut Outcome, graph: &DynamicGraph) {
    let edges: usize = graph.snapshots.iter().map(|s| s.n_edges()).sum();
    out.notes.push(format!(
        "input: {} ({} vertices, {} snapshots, {} stored edges per snapshot on average)",
        graph.name,
        graph.n(),
        graph.len(),
        edges / graph.len().max(1)
    ));
}

/// Median self time of the spans named `name`, if any were recorded.
fn median_span(spans: &Spans, name: &str) -> Option<f64> {
    stats::median(&spans.self_times_s(name))
}

fn common_e2e(
    out: &mut Outcome,
    steady: SimNanos,
    prep: SimNanos,
    peak_bytes: u64,
    run_host_s: f64,
    setup_s: f64,
) {
    out.e2e.push(("steady_epoch_sim_ms", "ms", sim_ms(steady)));
    out.e2e.push(("prep_sim_ms", "ms", sim_ms(prep)));
    out.e2e.push(("peak_device_mb", "MB", mb(peak_bytes)));
    out.e2e.push(("run_host_s", "s", run_host_s));
    out.e2e.push(("setup_s", "s", setup_s));
}

fn finish_host_metrics<T>(
    out: &mut Outcome,
    ctx: &Ctx,
    reps: &[Rep<T>],
    setup_note: String,
) -> f64 {
    let (run_host_s, traced) = host_times(reps);
    if let Some((traced_s, overhead_s)) = traced {
        out.layers.insert("trace.run_host_s", traced_s);
        out.layers.insert("trace.overhead_s", overhead_s);
    }
    if let Some(g) = median_span(&ctx.spans, "GenConfig::generate") {
        out.layers.insert("dyngraph.generate_s", g);
    }
    let times: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.host_s)).collect();
    out.notes.push(format!(
        "timed repetitions at {TIMED_THREADS} host threads: {} s; {setup_note}",
        times.join(" ")
    ));
    run_host_s
}

/// `epinions-mpnn`: single-GPU PiPAD training of MPNN-LSTM on Epinions.
pub fn epinions_mpnn(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let id = DatasetId::Epinions;
    let mut setup = SetUp::new(|c: &mut Ctx| generate(&mut c.spans, id, c.seed));
    let graph = setup.block(ctx);
    note_input(&mut out, &graph);
    let hidden = id.hidden_dim();
    let pcfg = PipadConfig::default();
    let (reps, gate) = measure(
        ctx,
        |c, analyse| {
            run_train_pipad(
                &mut c.spans,
                ModelKind::MpnnLstm,
                &graph,
                hidden,
                &pcfg,
                analyse,
            )
        },
        |c| drop(setup.block(c)),
    );
    let (setup_s, setup_note) = setup.value();
    let frames = (FrameIter::count_frames(&graph, training_config().window) * EPOCHS) as u64;
    let runs: Vec<&TrainRun> = reps.iter().map(|r| &r.out).chain([&gate]).collect();
    train_outcome(&mut out, "train_pipad", &runs, frames);
    let run_host_s = finish_host_metrics(&mut out, ctx, &reps, setup_note);
    let first = &reps[0].out;
    if let Some(r) = &first.report {
        out.crcs.push(("loss".to_string(), loss_crc(&r.epochs)));
        common_e2e(
            &mut out,
            r.steady_epoch_time,
            prep_time(&r.epochs),
            r.peak_mem,
            run_host_s,
            setup_s,
        );
    }
    out.e2e.push((
        "failed_frac",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    if ctx.traced {
        out.layers.extend(first.layers.iter());
        note_time_shares(&mut out, &first.time_shares);
        analyzer_and_catalog(&mut ctx.spans, &mut out.layers, &graph);
    }
    out
}

/// `covid-mpnn-2gpu`: data-parallel MPNN-LSTM on COVID-19-England over 2
/// simulated devices.
pub fn covid_mpnn_2gpu(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let id = DatasetId::Covid19England;
    let mut setup = SetUp::new(|c: &mut Ctx| generate(&mut c.spans, id, c.seed));
    let graph = setup.block(ctx);
    note_input(&mut out, &graph);
    let hidden = id.hidden_dim();
    let cfg = training_config();
    let mcfg = MultiGpuConfig {
        n_gpus: 2,
        ..Default::default()
    };
    let (reps, gate) = measure(
        ctx,
        |c, _| {
            let t = Instant::now();
            let r = c.spans.time("train_data_parallel", |_| {
                train_data_parallel(ModelKind::MpnnLstm, &graph, hidden, &cfg, &mcfg)
            });
            (t.elapsed().as_secs_f64(), r.map_err(|e| e.to_string()))
        },
        |c| drop(setup.block(c)),
    );
    let (setup_s, setup_note) = setup.value();
    let digest = multi_gpu_digest;
    let digests: Vec<String> = reps.iter().map(|r| digest(&r.out)).collect();
    let digest_refs: Vec<&str> = digests.iter().map(String::as_str).collect();
    gate_digests(
        &mut out,
        "train_data_parallel",
        &digest_refs,
        &digest(&gate),
    );
    let frames = (FrameIter::count_frames(&graph, cfg.window) * EPOCHS) as u64;
    for r in reps.iter().map(|r| &r.out).chain([&gate]) {
        out.attempted += frames;
        match r {
            Ok(r) => gate_losses(&mut out, "train_data_parallel", &r.epochs),
            Err(e) => {
                out.failed += frames;
                out.gate.push(format!("train_data_parallel: aborted: {e}"));
            }
        }
    }
    let run_host_s = finish_host_metrics(&mut out, ctx, &reps, setup_note);
    if let Ok(r) = &reps[0].out {
        out.crcs.push(("loss".to_string(), loss_crc(&r.epochs)));
        let peak = r.per_device_peak.iter().copied().max().unwrap_or(0);
        common_e2e(
            &mut out,
            r.steady_epoch_time,
            prep_time(&r.epochs),
            peak,
            run_host_s,
            setup_s,
        );
        if ctx.traced {
            multigpu_layers(ctx, &mut out, r, reps[0].host_s, &graph, hidden);
        }
    }
    out.e2e.push((
        "failed_frac",
        "ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out
}

/// Everything a 2-device run must repeat exactly, with the CRC-32 of each
/// device's Chrome trace.
fn multi_gpu_digest(r: &Result<MultiTrainReport, String>) -> String {
    let Ok(r) = r else {
        return format!("error: {r:?}");
    };
    format!(
        "epochs={:?} steady={} halo={} allreduce={} peaks={:?} loss_crc={:08x} trace_crcs={:?}",
        r.epochs
            .iter()
            .map(|e| e.sim_time.as_nanos())
            .collect::<Vec<_>>(),
        r.steady_epoch_time.as_nanos(),
        r.halo_bytes_per_epoch,
        r.allreduce_bytes_per_epoch,
        r.per_device_peak,
        loss_crc(&r.epochs),
        r.traces
            .iter()
            .map(|t| crc32(t.as_bytes()))
            .collect::<Vec<_>>()
    )
}

/// Per-layer metrics of a 2-device run: each device's Chrome trace is
/// rebuilt into a tracer, given the report's epoch boundaries, and
/// analysed like a single device.
fn multigpu_layers(
    ctx: &mut Ctx,
    out: &mut Outcome,
    r: &MultiTrainReport,
    host_s: f64,
    graph: &DynamicGraph,
    hidden: usize,
) {
    let mut tracers = Vec::new();
    for json in &r.traces {
        match tracer_from_chrome(json) {
            Ok(t) => tracers.push(t),
            Err(e) => out.gate.push(format!("device trace does not parse: {e}")),
        }
    }
    // The devices share one epoch clock, and the last epoch ends at the
    // last event of any device: lay the report's epochs back from there.
    let t_end = tracers
        .iter()
        .flat_map(|t| t.events().iter().map(|e| e.end().as_nanos()))
        .max()
        .unwrap_or(0);
    for t in &mut tracers {
        add_epoch_spans(t, &r.epochs, t_end);
    }
    let profiler = Profiler::new();
    let healths: Vec<_> = tracers.iter().map(|t| analyze(t, &profiler)).collect();
    let windows: Vec<(&Tracer, &pipad_metrics::WindowHealth)> = tracers
        .iter()
        .zip(&healths)
        .filter_map(|(t, h)| h.steady.as_ref().map(|w| (t, w)))
        .collect();
    let per = (r.epochs.len() - PREPARING_EPOCHS) as f64;
    let shares = window_metrics(&mut out.layers, &windows, per);
    note_time_shares(out, &shares);
    let launches: usize = tracers
        .iter()
        .map(|t| {
            t.events()
                .iter()
                .filter(|e| e.kind == TraceKind::Kernel)
                .count()
        })
        .sum();
    let l = &mut out.layers;
    l.insert(
        "gpusim.host_ns_per_launch",
        host_s * 1e9 / launches.max(1) as f64,
    );
    l.insert("multigpu.halo_mb_per_epoch", mb(r.halo_bytes_per_epoch));
    l.insert(
        "multigpu.allreduce_mb_per_epoch",
        mb(r.allreduce_bytes_per_epoch),
    );
    l.insert(
        "multigpu.allreduce_sim_ms_per_epoch",
        sim_ms(r.allreduce_time_per_epoch),
    );
    l.insert(
        "multigpu.sm_util_min",
        r.per_device_sm_util
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    tensor_metrics(l, &r.epochs);
    // Reference: the single-GPU trainer on the same graph.
    ctx.spans.set_enabled(false);
    let (_, single) = run_train_pipad(
        &mut ctx.spans,
        ModelKind::MpnnLstm,
        graph,
        hidden,
        &PipadConfig::default(),
        false,
    );
    ctx.spans.set_enabled(true);
    if let Some(s) = single.report {
        out.layers.insert(
            "multigpu.single_gpu_steady_epoch_sim_ms",
            sim_ms(s.steady_epoch_time),
        );
    }
    analyzer_and_catalog(&mut ctx.spans, &mut out.layers, graph);
}

/// Add one `epoch` span per report epoch, ending at `t_end` ns.
fn add_epoch_spans(t: &mut Tracer, epochs: &[EpochReport], t_end: u64) {
    let mut end = t_end;
    for e in epochs.iter().rev() {
        let start = end.saturating_sub(e.sim_time.as_nanos());
        t.span(
            "epoch",
            TraceKind::Span,
            Lane::Control,
            SimNanos::from_nanos(start),
            SimNanos::from_nanos(end),
            vec![
                ("epoch", ArgValue::U64(e.epoch as u64)),
                ("preparing", ArgValue::Bool(e.epoch < PREPARING_EPOCHS)),
            ],
        );
        end = start;
    }
}

/// One rate of one serving replay, reduced to what the run reports.
struct RatePoint {
    gap_ns: u64,
    host_s: f64,
    digest: String,
    offered: usize,
    rejected: usize,
    /// Served latencies in arrival order, ns.
    latencies: Vec<u64>,
    logits_crc: u32,
    peak: u64,
    gate: Vec<String>,
    batches: usize,
    queue_high_water: usize,
    layers: Layers,
    time_shares: Vec<(String, f64)>,
}

impl RatePoint {
    fn rps(&self) -> f64 {
        1e9 / self.gap_ns as f64
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.latencies.clone();
        v.sort_unstable();
        v
    }

    fn point(&self) -> LadderPoint {
        let lat_ms: Vec<f64> = self.latencies.iter().map(|&l| l as f64 / 1e6).collect();
        LadderPoint {
            rps: self.rps(),
            p99_ms: percentile_nearest_rank(&self.sorted(), 99) as f64 / 1e6,
            failed_frac: self.rejected as f64 / self.offered as f64,
            backlog_growth: stats::backlog_growth(&lat_ms),
        }
    }
}

fn serve_config(seed: u64, gap_ns: u64, n_frames: usize) -> ServeSimConfig {
    ServeSimConfig {
        batch: BatchPolicy::default(),
        gen: RequestGenConfig {
            seed: derive_seed(seed, gap_ns),
            n_requests: REQUESTS_PER_RATE,
            mean_interarrival_ns: gap_ns,
            max_targets: 8,
            // Every rate walks the whole snapshot stream once.
            snapshot_period_ns: gap_ns * REQUESTS_PER_RATE as u64 / n_frames as u64,
        },
    }
}

/// Restore a fresh engine from `dir` and replay one ladder rate. The host
/// time covers `serve_open_loop` alone.
fn replay(
    spans: &mut Spans,
    graph: &DynamicGraph,
    dir: &Path,
    seed: u64,
    gap_ns: u64,
    analyse: bool,
) -> Result<(f64, RatePoint), String> {
    let cfg = training_config();
    let ecfg = EngineConfig {
        hidden: SERVE_HIDDEN,
        ..EngineConfig::default()
    };
    let mut gpu = Gpu::new(DeviceConfig::v100());
    let mut engine = ServeEngine::from_latest(&mut gpu, dir, ModelKind::TGcn, graph, &cfg, &ecfg)
        .map_err(|e| format!("restore: {e}"))?;
    let scfg = serve_config(seed, gap_ns, engine.n_frames());
    let t = Instant::now();
    let report = spans
        .time("serve_open_loop", |_| {
            serve_open_loop(&mut gpu, &mut engine, &scfg)
        })
        .map_err(|e| format!("serve_open_loop: {e}"))?;
    let host_s = t.elapsed().as_secs_f64();

    let mut gate = Vec::new();
    let mut latencies = Vec::new();
    let mut rejected = 0;
    for rec in &report.records {
        match &rec.outcome {
            RequestOutcome::Served { logits, .. } => {
                if logits.rows() != rec.request.targets.len()
                    || logits.as_slice().iter().any(|v| !v.is_finite())
                {
                    gate.push(format!(
                        "request {} served without one finite logit row per target",
                        rec.request.id
                    ));
                }
                latencies.push(rec.latency().expect("served").as_nanos());
            }
            RequestOutcome::Rejected { .. } => rejected += 1,
        }
    }
    if report.records.len() != REQUESTS_PER_RATE || latencies.len() + rejected != REQUESTS_PER_RATE
    {
        gate.push(format!(
            "{} of {REQUESTS_PER_RATE} requests accounted for",
            latencies.len() + rejected
        ));
    }
    let logits_crc = crc32(&report.served_logit_bytes());
    let latency_bytes: Vec<u8> = latencies.iter().flat_map(|l| l.to_le_bytes()).collect();
    let digest = format!(
        "gap={gap_ns} served={} rejected={rejected} batches={} qhw={} logits={logits_crc:08x} latencies={:08x}",
        latencies.len(),
        report.batches,
        report.queue_high_water,
        crc32(&latency_bytes)
    );
    let mut layers = Layers::new();
    let mut time_shares = Vec::new();
    if analyse {
        let health = analyze(gpu.trace(), gpu.profiler());
        time_shares = window_metrics(&mut layers, &[(gpu.trace(), &health.run)], 1.0);
        let launches = gpu.profiler().full().kernel_launches;
        layers.insert(
            "gpusim.host_ns_per_launch",
            host_s * 1e9 / launches.max(1) as f64,
        );
        let p50_ms = |v: Vec<u64>| percentile_nearest_rank(&v, 50) as f64 / 1e6;
        layers.insert(
            "serve.queue_wait_p50_sim_ms",
            p50_ms(span_durations(gpu.trace(), "enqueue", Some("admitted"))),
        );
        layers.insert(
            "serve.forward_p50_sim_ms",
            p50_ms(span_durations(gpu.trace(), "serve_forward", None)),
        );
        layers.insert(
            "reuse.gpu_hit_rate",
            hit_rate(report.gpu_reuse_hits, report.gpu_reuse_misses),
        );
    }
    Ok((
        host_s,
        RatePoint {
            gap_ns,
            host_s,
            digest,
            offered: REQUESTS_PER_RATE,
            rejected,
            latencies,
            logits_crc,
            peak: gpu.mem().peak(),
            gate,
            batches: report.batches,
            queue_high_water: report.queue_high_water,
            layers,
            time_shares,
        },
    ))
}

/// Replay every ladder rate but the fixed one.
fn replay_rates(
    spans: &mut Spans,
    graph: &DynamicGraph,
    dir: &Path,
    seed: u64,
) -> Vec<Result<RatePoint, String>> {
    LADDER_GAPS_NS[1..]
        .iter()
        .map(|&gap| replay(spans, graph, dir, seed, gap, false).map(|(_, p)| p))
        .collect()
}

/// The covid-serve training leg: train with checkpoints into `dir`.
fn train_leg(spans: &mut Spans, graph: &DynamicGraph, dir: &Path, analyse: bool) -> TrainRun {
    let _ = std::fs::remove_dir_all(dir);
    let pcfg = PipadConfig {
        checkpoint: Some(CheckpointPolicy::new(dir.to_path_buf(), 2)),
        ..PipadConfig::default()
    };
    run_train_pipad(spans, ModelKind::TGcn, graph, SERVE_HIDDEN, &pcfg, analyse).1
}

/// `covid-serve`: T-GCN on COVID-19-England trained with checkpoints,
/// restored into the serving engine, and replayed open loop at a ladder
/// of offered rates.
pub fn covid_serve(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let id = DatasetId::Covid19England;
    // Set-up: dataset, training leg with checkpoints, one engine restore.
    let dir = ctx.scratch.join("ckpt");
    let mut legs = Vec::new();
    let mut setup = SetUp::new(|c: &mut Ctx| -> Result<DynamicGraph, String> {
        let graph = generate(&mut c.spans, id, c.seed);
        legs.push(train_leg(&mut c.spans, &graph, &dir, false));
        c.spans.time("ServeEngine::from_latest", |_| {
            let mut gpu = Gpu::new(DeviceConfig::v100());
            ServeEngine::from_latest(
                &mut gpu,
                &dir,
                ModelKind::TGcn,
                &graph,
                &training_config(),
                &EngineConfig {
                    hidden: SERVE_HIDDEN,
                    ..EngineConfig::default()
                },
            )
            .map(|_| ())
            .map_err(|e| format!("ServeEngine::from_latest: {e}"))
        })?;
        Ok(graph)
    });
    let graph = match setup.block(ctx) {
        Ok(graph) => graph,
        Err(e) => {
            out.gate.push(e);
            return out;
        }
    };
    note_input(&mut out, &graph);
    // The training leg again, analysed, and once at 1 thread for the gate.
    let leg_dir = ctx.scratch.join("leg");
    ctx.spans.set_enabled(false);
    let analysed_leg = ctx.traced.then(|| {
        with_threads(TIMED_THREADS, || {
            train_leg(&mut ctx.spans, &graph, &leg_dir, true)
        })
    });
    let gate_leg = with_threads(1, || train_leg(&mut ctx.spans, &graph, &leg_dir, false));
    ctx.spans.set_enabled(ctx.traced);

    // Measured: the fixed-rate replay, each from a fresh restore.
    let seed = ctx.seed;
    let mut setup_errors = Vec::new();
    let (reps, gate) = measure(
        ctx,
        |c, analyse| match replay(&mut c.spans, &graph, &dir, seed, FIXED_GAP_NS, analyse) {
            Ok((h, p)) => (h, Ok(p)),
            Err(e) => (0.0, Err(e)),
        },
        |c| {
            if let Err(e) = setup.block(c) {
                setup_errors.push(e);
            }
        },
    );
    let (setup_s, setup_note) = setup.value();
    drop(setup);
    out.gate.append(&mut setup_errors);
    let mut runs: Vec<&TrainRun> = legs.iter().collect();
    runs.extend(analysed_leg.iter());
    runs.push(&gate_leg);
    let mut leg_gate = Outcome::default();
    train_outcome(&mut leg_gate, "training leg", &runs, 0);
    out.gate.append(&mut leg_gate.gate);

    // The rest of the ladder, once at 2 threads and once at 1 for the gate.
    let rest = with_threads(TIMED_THREADS, || {
        replay_rates(&mut ctx.spans, &graph, &dir, seed)
    });
    ctx.spans.set_enabled(false);
    let rest_gate = with_threads(1, || replay_rates(&mut ctx.spans, &graph, &dir, seed));
    ctx.spans.set_enabled(ctx.traced);

    let digest = |points: &[Result<RatePoint, String>]| -> String {
        points
            .iter()
            .map(|p| match p {
                Ok(p) => p.digest.clone(),
                Err(e) => format!("error: {e}"),
            })
            .collect::<Vec<_>>()
            .join("; ")
    };
    let digests: Vec<String> = reps
        .iter()
        .map(|r| digest(std::slice::from_ref(&r.out)))
        .collect();
    let digest_refs: Vec<&str> = digests.iter().map(String::as_str).collect();
    gate_digests(
        &mut out,
        "serve_open_loop at 500 rps",
        &digest_refs,
        &digest(std::slice::from_ref(&gate)),
    );
    gate_digests(
        &mut out,
        "serve_open_loop ladder",
        &[digest(&rest).as_str()],
        &digest(&rest_gate),
    );
    for (i, p) in reps
        .iter()
        .map(|r| &r.out)
        .chain([&gate])
        .chain(&rest)
        .chain(&rest_gate)
        .enumerate()
    {
        let fixed_rate = i <= reps.len();
        match p {
            Ok(p) => {
                out.gate.extend(p.gate.iter().cloned());
                if fixed_rate {
                    out.attempted += p.offered as u64;
                    out.failed += p.rejected as u64;
                }
            }
            Err(e) => {
                out.gate.push(e.clone());
                if fixed_rate {
                    out.attempted += REQUESTS_PER_RATE as u64;
                    out.failed += REQUESTS_PER_RATE as u64;
                }
            }
        }
    }
    let run_host_s = finish_host_metrics(&mut out, ctx, &reps, setup_note);
    let points: Vec<&RatePoint> = std::iter::once(&reps[0].out)
        .chain(&rest)
        .filter_map(|p| p.as_ref().ok())
        .collect();
    let (Some(report), Some(fixed)) = (
        legs.last().and_then(|l| l.report.as_ref()),
        points.iter().find(|p| p.gap_ns == FIXED_GAP_NS),
    ) else {
        out.gate
            .push("no training report or no fixed-rate replay".to_string());
        return out;
    };
    out.crcs
        .push(("loss".to_string(), loss_crc(&report.epochs)));
    out.crcs
        .push(("logits@500rps".to_string(), fixed.logits_crc));
    let all_logits: Vec<u8> = points
        .iter()
        .flat_map(|p| p.logits_crc.to_le_bytes())
        .collect();
    out.crcs
        .push(("logits@ladder".to_string(), crc32(&all_logits)));

    let peak = points
        .iter()
        .map(|p| p.peak)
        .chain([report.peak_mem])
        .max()
        .unwrap_or(0);
    common_e2e(
        &mut out,
        report.steady_epoch_time,
        prep_time(&report.epochs),
        peak,
        run_host_s,
        setup_s,
    );
    let sorted = fixed.sorted();
    let failed_frac = fixed.rejected as f64 / fixed.offered as f64;
    let p50 = percentile_nearest_rank(&sorted, 50) as f64 / 1e6;
    let p99 = percentile_nearest_rank(&sorted, 99) as f64 / 1e6;
    let ladder: Vec<LadderPoint> = points.iter().map(|p| p.point()).collect();
    let max_rps = stats::max_sustained_rps(&ladder);
    out.e2e.push(("failed_frac", "ratio", failed_frac));
    out.e2e.push(("serve_p50_sim_ms", "ms", p50));
    if stats::percentile_supported(sorted.len(), 99) {
        out.e2e.push(("serve_p99_sim_ms", "ms", p99));
    } else {
        out.gate.push(format!(
            "p99 of {} samples leaves fewer than {} beyond it",
            sorted.len(),
            stats::MIN_BEYOND
        ));
    }
    out.e2e.push(("serve_max_rps", "1/s", max_rps));
    out.notes.push(format!(
        "serving at 500 rps: {} requests offered, {} served; p99 leaves {} samples beyond it",
        fixed.offered,
        sorted.len(),
        stats::samples_beyond(sorted.len(), 99)
    ));
    out.notes.push(
        "ladder (open loop, latency from each request's scheduled arrival, simulated):".to_string(),
    );
    out.notes.push(format!(
        "  {:>8} {:>7} {:>8} {:>9} {:>9} {:>12} {:>12} {:>8} {:>6} {:>7}",
        "rps",
        "served",
        "rejected",
        "p50_ms",
        "p99_ms",
        "first10_ms",
        "last10_ms",
        "growth",
        "meets",
        "host_s"
    ));
    for (p, lp) in points.iter().zip(&ladder) {
        let decile = (p.latencies.len() / 10).max(1);
        let mean_ms = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64 / 1e6;
        out.notes.push(format!(
            "  {:>8.0} {:>7} {:>8} {:>9.3} {:>9.3} {:>12.3} {:>12.3} {:>8.3} {:>6} {:>7.3}",
            lp.rps,
            p.latencies.len(),
            p.rejected,
            percentile_nearest_rank(&p.sorted(), 50) as f64 / 1e6,
            lp.p99_ms,
            mean_ms(&p.latencies[..decile.min(p.latencies.len())]),
            mean_ms(&p.latencies[p.latencies.len().saturating_sub(decile)..]),
            lp.backlog_growth,
            if stats::meets_limits(lp) { "yes" } else { "no" },
            p.host_s
        ));
    }

    if ctx.traced {
        let l = &mut out.layers;
        l.extend(fixed.layers.iter());
        note_time_shares(&mut out, &fixed.time_shares);
        let l = &mut out.layers;
        if let Some(a) = &analysed_leg {
            for k in [
                "tuner.mean_s_per",
                "reuse.cpu_hit_rate",
                "tensor.heap_allocs_per_steady_epoch",
                "tensor.pool_misses_per_steady_epoch",
            ] {
                if let Some(v) = a.layers.get(k) {
                    l.insert(k, *v);
                }
            }
        }
        l.insert("serve.p50_sim_ms", p50);
        l.insert("serve.p99_sim_ms", p99);
        l.insert("serve.max_rps", max_rps);
        for (name, lp) in BACKLOG_METRICS.iter().zip(&ladder) {
            l.insert(name, lp.backlog_growth);
        }
        l.insert(
            "serve.mean_batch_size",
            (fixed.offered - fixed.rejected) as f64 / fixed.batches.max(1) as f64,
        );
        l.insert("serve.queue_high_water", fixed.queue_high_water as f64);
        // Only the set-up's training legs run with spans on.
        if let Some(s) = median_span(&ctx.spans, "train_pipad") {
            l.insert("ckpt.train_leg_s", s);
        }
        if let Some(s) = median_span(&ctx.spans, "ServeEngine::from_latest") {
            l.insert("ckpt.restore_s", s);
        }
        let bytes = latest_checkpoint(&dir)
            .ok()
            .flatten()
            .and_then(|(_, path)| std::fs::metadata(path).ok())
            .map_or(0, |m| m.len());
        l.insert("ckpt.bytes", bytes as f64);
        // The analysed (first) fixed-rate replay.
        if let Some(s) = ctx.spans.self_times_s("serve_open_loop").first() {
            l.insert("serve.replay_s", *s);
        }
        // Standalone request generation and batching, per ladder rate.
        let n_frames = FrameIter::count_frames(&graph, training_config().window);
        let mut batch_s = 0.0;
        for &gap in &LADDER_GAPS_NS {
            let scfg = serve_config(seed, gap, n_frames);
            let requests = ctx.spans.time("generate_requests", |_| {
                generate_requests(&scfg.gen, n_frames, graph.n())
            });
            let t = Instant::now();
            let batched = ctx
                .spans
                .time("form_batches", |_| form_batches(&requests, &scfg.batch));
            batch_s += t.elapsed().as_secs_f64();
            std::hint::black_box(batched);
        }
        out.layers.insert("serve.form_batches_s", batch_s);
        analyzer_and_catalog(&mut ctx.spans, &mut out.layers, &graph);
    }
    out
}
