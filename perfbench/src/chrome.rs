//! Rebuild a [`Tracer`] from the Chrome-trace JSON that
//! `train_data_parallel` returns for each device, so the multi-GPU run
//! goes through the same `pipad_metrics::analyze` as the single-GPU runs.

use pipad_gpu_sim::{ArgValue, Lane, SimNanos, TraceKind, Tracer};
use pipad_metrics::Json;
use std::collections::HashMap;

/// Interns event names and argument keys, which [`Tracer`] keeps as
/// `&'static str`. The set of distinct names is small and fixed by the
/// program, so leaking one copy of each per rebuilt trace is bounded.
#[derive(Default)]
struct Interner(HashMap<String, &'static str>);

impl Interner {
    fn get(&mut self, s: &str) -> &'static str {
        if let Some(&v) = self.0.get(s) {
            return v;
        }
        let v: &'static str = Box::leak(s.to_string().into_boxed_str());
        self.0.insert(s.to_string(), v);
        v
    }
}

/// Simulated ns from a Chrome-trace time in microseconds (the export
/// writes exactly 3 decimals).
fn ns(v: &Json) -> Result<SimNanos, String> {
    match v {
        Json::Num(us) if *us >= 0.0 => Ok(SimNanos::from_nanos((us * 1000.0).round() as u64)),
        other => Err(format!("bad time {other:?}")),
    }
}

fn arg_value(v: &Json) -> ArgValue {
    match v {
        Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x < 2f64.powi(53) => {
            ArgValue::U64(*x as u64)
        }
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 2f64.powi(53) => ArgValue::I64(*x as i64),
        Json::Num(x) => ArgValue::F64(*x),
        Json::Str(s) => ArgValue::Str(s.clone()),
        Json::Bool(b) => ArgValue::Bool(*b),
        _ => ArgValue::F64(f64::NAN),
    }
}

fn lane_of(tid: u64) -> Lane {
    match tid {
        0 => Lane::Host,
        1 => Lane::Control,
        2 => Lane::Memory,
        3 => Lane::H2D,
        4 => Lane::D2H,
        t => Lane::Stream((t - 5) as usize),
    }
}

/// Rebuild the tracer a Chrome-trace export was made from. Metadata
/// records (`"ph":"M"`) are skipped; every other event comes back with
/// its kind, lane, times and arguments. Integral float arguments come
/// back as integers.
pub fn tracer_from_chrome(json: &str) -> Result<Tracer, String> {
    let doc = Json::parse(json)?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("no traceEvents array".to_string());
    };
    let mut interner = Interner::default();
    let mut tracer = Tracer::new();
    for e in events {
        let text = |k: &str| match e.get(k) {
            Some(Json::Str(s)) => Ok(s.as_str()),
            _ => Err(format!("event without `{k}`: {e:?}")),
        };
        if text("ph")? == "M" {
            continue;
        }
        let name = interner.get(text("name")?);
        let lane = match e.get("tid") {
            Some(Json::Num(t)) if *t >= 0.0 => lane_of(*t as u64),
            _ => return Err(format!("event without a tid: {e:?}")),
        };
        let ts = ns(e.get("ts").unwrap_or(&Json::Null))?;
        let args: Vec<(&'static str, ArgValue)> = match e.get("args") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (interner.get(k), arg_value(v)))
                .collect(),
            _ => Vec::new(),
        };
        match text("cat")? {
            "counter" => {
                let value = match args.first() {
                    Some((_, ArgValue::U64(v))) => *v,
                    _ => return Err(format!("counter without a value: {e:?}")),
                };
                tracer.counter(name, lane, ts, value);
            }
            "fault" => tracer.fault(name, lane, ts, args),
            "instant" => tracer.instant(name, lane, ts, args),
            cat => {
                let kind = match cat {
                    "kernel" => TraceKind::Kernel,
                    "memcpy" => TraceKind::Memcpy,
                    "host" => TraceKind::HostOp,
                    "control" => TraceKind::Span,
                    other => return Err(format!("unknown category `{other}`")),
                };
                let end = ts + ns(e.get("dur").unwrap_or(&Json::Null))?;
                tracer.span(name, kind, lane, ts, end, args);
            }
        }
    }
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::export_chrome_trace;

    #[test]
    fn export_then_rebuild_round_trips_byte_for_byte() {
        let mut t = Tracer::new();
        let ns = SimNanos::from_nanos;
        t.span(
            "spmm_sliced",
            TraceKind::Kernel,
            Lane::Stream(1),
            ns(1_234),
            ns(5_678),
            vec![
                ("category", ArgValue::Str("aggregation".to_string())),
                ("gmem_transactions", ArgValue::U64(42)),
            ],
        );
        t.span(
            "memcpy_h2d",
            TraceKind::Memcpy,
            Lane::H2D,
            ns(0),
            ns(999),
            vec![],
        );
        t.span(
            "partition_prep",
            TraceKind::HostOp,
            Lane::Host,
            ns(10),
            ns(20),
            vec![],
        );
        t.instant(
            "recovery",
            Lane::Control,
            ns(7),
            vec![
                ("policy", ArgValue::Str("nan_skip \"q\"".to_string())),
                ("ok", ArgValue::Bool(false)),
                ("delta", ArgValue::I64(-3)),
                ("speedup", ArgValue::F64(1.5)),
                ("ratio", ArgValue::F64(2.0)),
            ],
        );
        t.fault("fault_injected", Lane::Control, ns(8), vec![]);
        t.counter("device_mem_in_use", Lane::Memory, ns(3), 4096);
        let json = export_chrome_trace(&t, 1);
        let back = tracer_from_chrome(&json).expect("parse");
        assert_eq!(back.len(), t.len());
        // Byte-identical except that the integral float argument comes
        // back as an integer.
        assert_eq!(
            export_chrome_trace(&back, 1),
            json.replace("\"ratio\":2.0", "\"ratio\":2")
        );
        assert_eq!(back.counter_peak("device_mem_in_use"), 4096);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        assert!(tracer_from_chrome("{\"traceEvents\":[{\"name\":\"x\"").is_err());
        assert!(tracer_from_chrome("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"bogus\",\"ph\":\"X\",\"tid\":5,\"ts\":1.0,\"dur\":1.0}]}").is_err());
        assert!(tracer_from_chrome("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"kernel\",\"ph\":\"X\",\"tid\":5,\"ts\":-1}]}").is_err());
        assert!(tracer_from_chrome("{}").is_err());
    }
}
