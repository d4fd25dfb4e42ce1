//! Per-layer metrics read from a device trace after a call returns: the
//! kernel totals and the pipeline health (`pipad_metrics::analyze`) of the
//! measured window, and which layer that window spent most time in.

use pipad_gpu_sim::{ArgValue, TraceEvent, TraceKind, Tracer};
use pipad_metrics::WindowHealth;
use std::collections::BTreeMap;

/// Per-layer metric values by name. A declared metric that a workload
/// does not exercise is absent here and reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

fn arg<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e ArgValue> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn arg_u64(e: &TraceEvent, key: &str) -> u64 {
    match arg(e, key) {
        Some(ArgValue::U64(v)) => *v,
        _ => 0,
    }
}

/// Kernel totals over one or more trace windows.
#[derive(Default)]
pub struct KernelTotals {
    /// Kernel time by category label, ns.
    pub by_category: BTreeMap<String, u64>,
    /// Kernel launches.
    pub launches: u64,
    /// Global-memory transactions.
    pub gmem_transactions: u64,
    eff_weighted: u128,
    eff_time: u128,
}

impl KernelTotals {
    /// Add the kernels lying entirely inside `[t0, t1]` ns.
    pub fn add_window(&mut self, tracer: &Tracer, t0: u64, t1: u64) {
        for e in tracer.events() {
            if e.kind != TraceKind::Kernel || e.ts.as_nanos() < t0 || e.end().as_nanos() > t1 {
                continue;
            }
            let dur = e.dur.as_nanos();
            let category = match arg(e, "category") {
                Some(ArgValue::Str(c)) => c.clone(),
                _ => "uncategorized".to_string(),
            };
            *self.by_category.entry(category).or_insert(0) += dur;
            self.launches += 1;
            self.gmem_transactions += arg_u64(e, "gmem_transactions");
            self.eff_weighted += arg_u64(e, "warp_efficiency_milli") as u128 * dur as u128;
            self.eff_time += dur as u128;
        }
    }

    /// Time-weighted warp execution efficiency, 0..=1.
    pub fn warp_efficiency(&self) -> f64 {
        if self.eff_time == 0 {
            0.0
        } else {
            self.eff_weighted as f64 / self.eff_time as f64 / 1000.0
        }
    }
}

/// The layer a host operation's simulated time is charged to.
fn host_op_layer(name: &str) -> &str {
    match name {
        "partition_prep" | "mgpu_prep" | "overlap_extraction" => "prep",
        "p2p_halo" | "allreduce" => "multigpu",
        "graph_slicing" => "analyzer",
        other => other,
    }
}

/// Fill the `kernels.*`, `gpusim.*` and `prep.partition_sim_ms` metrics
/// from one measured window per device, each divided by `per` (the number
/// of steady epochs, or 1 for a serving replay). Returns where the
/// window's simulated time went, largest first, as shares of the total:
/// kernel categories, PCIe transfer, host operations by layer, and device
/// idle time (kernel launch overhead and waits, which the trace does not
/// record as events).
pub fn window_metrics(
    l: &mut Layers,
    windows: &[(&Tracer, &WindowHealth)],
    per: f64,
) -> Vec<(String, f64)> {
    let mut kt = KernelTotals::default();
    let ms = |ns: u64| ns as f64 / 1e6 / per;
    let (mut busy, mut transfer, mut overlap, mut bubble, mut stall, mut allocs) =
        (0, 0, 0, 0, 0, 0);
    let mut sm_util = 0.0;
    let mut charged: BTreeMap<String, u64> = BTreeMap::new();
    for (tracer, w) in windows {
        kt.add_window(tracer, w.start_ns, w.end_ns);
        busy += w.compute_busy_ns;
        transfer += w.transfer_busy_ns;
        overlap += w.overlap_ns;
        bubble += w.bubble_ns;
        stall += w.sync_stall_ns;
        allocs += w.device_allocs;
        sm_util += w.sm_utilization_milli() as f64 / 1000.0 / windows.len() as f64;
        for (name, ns) in &w.host_op_ns {
            *charged.entry(host_op_layer(name).to_string()).or_insert(0) += ns;
        }
    }
    let partition_ns = windows
        .iter()
        .map(|(_, w)| {
            ["partition_prep", "mgpu_prep"]
                .iter()
                .map(|k| w.host_op_ns.get(k).copied().unwrap_or(0))
                .sum::<u64>()
        })
        .sum();
    for (category, ns) in &kt.by_category {
        charged.insert(format!("kernels.{category}"), *ns);
    }
    charged.insert("gpusim.transfer".to_string(), transfer);
    charged.insert("gpusim.idle".to_string(), bubble);

    let cat = |c: &str| kt.by_category.get(c).copied().unwrap_or(0);
    l.insert("kernels.aggregation_sim_ms", ms(cat("aggregation")));
    l.insert("kernels.update_sim_ms", ms(cat("update")));
    l.insert("kernels.rnn_sim_ms", ms(cat("rnn")));
    l.insert("kernels.elementwise_sim_ms", ms(cat("elementwise")));
    l.insert("kernels.launches", kt.launches as f64 / per);
    l.insert(
        "kernels.gmem_transactions",
        kt.gmem_transactions as f64 / per,
    );
    l.insert("kernels.warp_efficiency", kt.warp_efficiency());
    l.insert("gpusim.compute_busy_ms", ms(busy));
    l.insert("gpusim.transfer_busy_ms", ms(transfer));
    l.insert("gpusim.overlap_ms", ms(overlap));
    l.insert("gpusim.bubble_ms", ms(bubble));
    l.insert("gpusim.sync_stall_ms", ms(stall));
    l.insert("gpusim.sm_util", sm_util);
    l.insert("gpusim.device_allocs", allocs as f64 / per);
    l.insert("prep.partition_sim_ms", ms(partition_ns));

    let total = charged.values().sum::<u64>().max(1) as f64;
    let mut shares: Vec<(String, f64)> = charged
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / total))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Mean `s_per` over the tuner's `tuner_decision` instants (0 if the run
/// made no decision).
pub fn mean_s_per(tracer: &Tracer) -> f64 {
    let picks: Vec<u64> = tracer
        .events()
        .iter()
        .filter(|e| e.name == "tuner_decision")
        .map(|e| arg_u64(e, "s_per"))
        .collect();
    if picks.is_empty() {
        0.0
    } else {
        picks.iter().sum::<u64>() as f64 / picks.len() as f64
    }
}

/// Hit rate of one reuse tier from the trainer's run-level trace metadata.
pub fn reuse_hit_rate(tracer: &Tracer, tier: &str) -> f64 {
    let meta: BTreeMap<&str, u64> = tracer.meta().collect();
    let get = |k: String| meta.get(k.as_str()).copied().unwrap_or(0);
    let hits = get(format!("reuse_{tier}_hits"));
    let misses = get(format!("reuse_{tier}_misses"));
    hit_rate(hits, misses)
}

/// `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Optimizer steps the trainer skipped for a non-finite loss.
pub fn skipped_steps(tracer: &Tracer) -> u64 {
    tracer
        .events()
        .iter()
        .filter(|e| {
            e.name == "recovery"
                && matches!(arg(e, "policy"), Some(ArgValue::Str(p)) if p == "nan_skip")
        })
        .count() as u64
}

/// Durations, ns, of every span named `name` (optionally only those whose
/// boolean argument `flag` is true), sorted ascending.
pub fn span_durations(tracer: &Tracer, name: &str, flag: Option<&str>) -> Vec<u64> {
    let mut v: Vec<u64> = tracer
        .events()
        .iter()
        .filter(|e| e.name == name && e.kind.is_span())
        .filter(|e| flag.is_none_or(|f| matches!(arg(e, f), Some(ArgValue::Bool(true)))))
        .map(|e| e.dur.as_nanos())
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::{Lane, SimNanos};

    #[test]
    fn kernel_totals_respect_the_window_and_weight_efficiency_by_time() {
        let mut t = Tracer::new();
        let ns = SimNanos::from_nanos;
        let kernel = |cat: &str, eff: u64| {
            vec![
                ("category", ArgValue::Str(cat.to_string())),
                ("gmem_transactions", ArgValue::U64(10)),
                ("warp_efficiency_milli", ArgValue::U64(eff)),
            ]
        };
        t.span(
            "a",
            TraceKind::Kernel,
            Lane::Stream(0),
            ns(0),
            ns(100),
            kernel("aggregation", 1000),
        );
        t.span(
            "b",
            TraceKind::Kernel,
            Lane::Stream(0),
            ns(100),
            ns(400),
            kernel("rnn", 500),
        );
        // Straddles the window's end: excluded.
        t.span(
            "c",
            TraceKind::Kernel,
            Lane::Stream(0),
            ns(450),
            ns(600),
            kernel("rnn", 0),
        );
        let mut kt = KernelTotals::default();
        kt.add_window(&t, 0, 500);
        assert_eq!(kt.launches, 2);
        assert_eq!(kt.by_category["aggregation"], 100);
        assert_eq!(kt.by_category["rnn"], 300);
        assert_eq!(kt.gmem_transactions, 20);
        assert!((kt.warp_efficiency() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_no_lookups() {
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(3, 1), 0.75);
    }
}
