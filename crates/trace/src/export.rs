//! Exporters: Chrome `trace_event` JSON.
//!
//! [`chrome_trace_json`] renders recorded event streams in the Chrome
//! Trace Event format (the JSON array flavour), loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
//!
//! * one **process per endpoint** (the eleven tile kinds plus memory,
//!   in the caller's name table order) and one extra process for the
//!   temporal-instruction timeline;
//! * one **thread per traced stream** (typically one stream per query),
//!   named after the stream;
//! * tile occupancy and memory bandwidth as **counter** tracks, tinsts
//!   as **complete** slices, link peaks and stage spill/fill volumes as
//!   **instant** events.
//!
//! Timestamps are simulated cycles rendered as microseconds (1 cycle =
//! 1 µs on the trace viewer's axis); no wall-clock is involved, so the
//! export is byte-stable for a given simulation.

use std::fmt::Write as _;

use crate::analyze::BlameCause;
use crate::metrics::{json_escape, json_num};
use crate::sink::TraceEvent;

/// One traced simulation: a name (shown as the thread name on every
/// endpoint process) and its recorded events in emission order.
#[derive(Debug, Clone)]
pub struct TraceStream {
    /// Display name, e.g. the query name.
    pub name: String,
    /// Events in emission (time) order.
    pub events: Vec<TraceEvent>,
}

fn push_event(out: &mut String, body: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("\n  {");
    out.push_str(body);
    out.push('}');
}

/// Renders `streams` as a Chrome `trace_event` JSON document.
///
/// `endpoint_names` maps endpoint indices to display names, with
/// **memory last** (the simulator's `ENDPOINTS` convention); memory
/// bandwidth counters attach to that last process. `bpc_to_gbps`
/// converts bytes-per-cycle into GB/s for the bandwidth counter tracks
/// (pass `q100_core::bytes_per_cycle_to_gbps(1.0)`).
#[must_use]
pub fn chrome_trace_json(
    streams: &[TraceStream],
    endpoint_names: &[&str],
    bpc_to_gbps: f64,
) -> String {
    let tinst_pid = endpoint_names.len();
    let serve_pid = endpoint_names.len() + 1;
    let mem_pid = endpoint_names.len().saturating_sub(1);
    let mut out = String::from("{\n\"traceEvents\": [");

    // Process/thread name metadata.
    for (pid, name) in endpoint_names.iter().enumerate() {
        push_event(
            &mut out,
            &format!(
                "\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {pid}, \"tid\": 0, \
                 \"args\": {{\"name\": \"{}\"}}",
                json_escape(name)
            ),
        );
    }
    push_event(
        &mut out,
        &format!(
            "\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {tinst_pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"Temporal instructions\"}}"
        ),
    );
    push_event(
        &mut out,
        &format!(
            "\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {serve_pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"Serving\"}}"
        ),
    );
    for (tid, stream) in streams.iter().enumerate() {
        for pid in 0..=serve_pid {
            push_event(
                &mut out,
                &format!(
                    "\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"args\": {{\"name\": \"{}\"}}",
                    json_escape(&stream.name)
                ),
            );
        }
    }

    for (tid, stream) in streams.iter().enumerate() {
        // Per-tile occupancy counters drop to zero when a busy run
        // ends; track the open run per endpoint.
        let mut open_run: Vec<Option<(u64, u16)>> = vec![None; endpoint_names.len()];
        let mut tinst_begin: Option<(u32, u64, u32)> = None;
        // (end_cycle, read, write) of the open memory-counter run.
        let mut mem_run: Option<u64> = None;
        // End cycle of the open per-cause blame counter run.
        let mut blame_run: [Option<u64>; BlameCause::COUNT] = [None; BlameCause::COUNT];

        for ev in &stream.events {
            match *ev {
                TraceEvent::TinstBegin { stage, cycle, nodes } => {
                    tinst_begin = Some((stage, cycle, nodes));
                }
                TraceEvent::TinstEnd { stage, cycle } => {
                    let (bstage, begin, nodes) = tinst_begin.take().unwrap_or((stage, cycle, 0));
                    push_event(
                        &mut out,
                        &format!(
                            "\"ph\": \"X\", \"name\": \"tinst {bstage}\", \"pid\": {tinst_pid}, \
                             \"tid\": {tid}, \"ts\": {begin}, \"dur\": {}, \
                             \"args\": {{\"sinsts\": {nodes}}}",
                            cycle.saturating_sub(begin)
                        ),
                    );
                }
                TraceEvent::TileBusy { tile, cycle, dt, busy } => {
                    let pid = usize::from(tile).min(endpoint_names.len().saturating_sub(1));
                    let run = &mut open_run[pid];
                    match run {
                        Some((end, value)) if *end == cycle && *value == busy => {
                            *end = cycle + u64::from(dt);
                        }
                        _ => {
                            if let Some((end, _)) = run.take() {
                                if end <= cycle {
                                    counter(&mut out, pid, tid, end, "occupancy", "busy", 0.0);
                                }
                            }
                            counter(
                                &mut out,
                                pid,
                                tid,
                                cycle,
                                "occupancy",
                                "busy",
                                f64::from(busy),
                            );
                            *run = Some((cycle + u64::from(dt), busy));
                        }
                    }
                }
                TraceEvent::MemSample { cycle, dt, read_bytes, write_bytes } => {
                    if mem_run.is_some_and(|end| end < cycle) {
                        let end = mem_run.take().unwrap();
                        counter2(&mut out, mem_pid, tid, end, "bandwidth GB/s", 0.0, 0.0);
                    }
                    let gbps = |bytes: f64| bytes / f64::from(dt.max(1)) * bpc_to_gbps;
                    counter2(
                        &mut out,
                        mem_pid,
                        tid,
                        cycle,
                        "bandwidth GB/s",
                        gbps(read_bytes),
                        gbps(write_bytes),
                    );
                    mem_run = Some(cycle + u64::from(dt));
                }
                TraceEvent::LinkPeak { stage, cycle, src, dst, gbps } => {
                    let names = |i: u16| {
                        endpoint_names.get(usize::from(i)).copied().unwrap_or("?").to_string()
                    };
                    push_event(
                        &mut out,
                        &format!(
                            "\"ph\": \"i\", \"s\": \"p\", \"name\": \"peak {} -> {}\", \
                             \"pid\": {}, \"tid\": {tid}, \"ts\": {cycle}, \
                             \"args\": {{\"gbps\": {}, \"stage\": {stage}}}",
                            json_escape(&names(src)),
                            json_escape(&names(dst)),
                            usize::from(src).min(endpoint_names.len().saturating_sub(1)),
                            json_num(gbps)
                        ),
                    );
                }
                TraceEvent::StageMem { stage, cycle, fill_bytes, spill_bytes } => {
                    push_event(
                        &mut out,
                        &format!(
                            "\"ph\": \"i\", \"s\": \"p\", \"name\": \"stage {stage} stream \
                             volumes\", \"pid\": {mem_pid}, \"tid\": {tid}, \"ts\": {cycle}, \
                             \"args\": {{\"fill_bytes\": {fill_bytes}, \"spill_bytes\": \
                             {spill_bytes}}}"
                        ),
                    );
                }
                // One event per quantum would dwarf every other track;
                // programmatic consumers read these from the recorder.
                TraceEvent::DegradedQuantum { .. } => {}
                TraceEvent::ServeRequest { cycle, end_cycle, tenant, query, disposition } => {
                    push_event(
                        &mut out,
                        &format!(
                            "\"ph\": \"X\", \"name\": \"serve.request\", \"pid\": {serve_pid}, \
                             \"tid\": {tid}, \"ts\": {cycle}, \"dur\": {}, \
                             \"args\": {{\"tenant\": {tenant}, \"query\": {query}, \
                             \"disposition\": {disposition}}}",
                            end_cycle.saturating_sub(cycle)
                        ),
                    );
                }
                TraceEvent::BlameSample { cycle, dt, cause, cycles, .. } => {
                    let c = usize::from(cause).min(BlameCause::COUNT - 1);
                    let name = format!("blame {}", BlameCause::ALL[c].name());
                    if blame_run[c].is_some_and(|end| end < cycle) {
                        let end = blame_run[c].take().unwrap();
                        counter(&mut out, tinst_pid, tid, end, &name, "cycles", 0.0);
                    }
                    // Normalize to blamed cycles per simulated cycle so
                    // variable-length quanta plot on a comparable axis.
                    let rate = cycles / f64::from(dt.max(1));
                    counter(&mut out, tinst_pid, tid, cycle, &name, "cycles", rate);
                    blame_run[c] = Some(cycle + u64::from(dt));
                }
            }
        }
        // Close open counter runs so tracks return to zero.
        for (pid, run) in open_run.into_iter().enumerate() {
            if let Some((end, _)) = run {
                counter(&mut out, pid, tid, end, "occupancy", "busy", 0.0);
            }
        }
        if let Some(end) = mem_run {
            counter2(&mut out, mem_pid, tid, end, "bandwidth GB/s", 0.0, 0.0);
        }
        for (c, run) in blame_run.into_iter().enumerate() {
            if let Some(end) = run {
                let name = format!("blame {}", BlameCause::ALL[c].name());
                counter(&mut out, tinst_pid, tid, end, &name, "cycles", 0.0);
            }
        }
    }

    out.push_str("\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
    out
}

fn counter(out: &mut String, pid: usize, tid: usize, ts: u64, name: &str, key: &str, v: f64) {
    let mut body = String::new();
    let _ = write!(
        body,
        "\"ph\": \"C\", \"name\": \"{}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}, \
         \"args\": {{\"{}\": {}}}",
        json_escape(name),
        json_escape(key),
        json_num(v)
    );
    push_event(out, &body);
}

fn counter2(out: &mut String, pid: usize, tid: usize, ts: u64, name: &str, read: f64, write: f64) {
    let mut body = String::new();
    let _ = write!(
        body,
        "\"ph\": \"C\", \"name\": \"{}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts}, \
         \"args\": {{\"read\": {}, \"write\": {}}}",
        json_escape(name),
        json_num(read),
        json_num(write)
    );
    push_event(out, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_chrome_trace_json;

    fn stream() -> TraceStream {
        TraceStream {
            name: "q6".into(),
            events: vec![
                TraceEvent::TinstBegin { stage: 0, cycle: 0, nodes: 3 },
                TraceEvent::StageMem { stage: 0, cycle: 0, fill_bytes: 64, spill_bytes: 0 },
                TraceEvent::TileBusy { tile: 0, cycle: 0, dt: 64, busy: 2 },
                TraceEvent::MemSample { cycle: 0, dt: 64, read_bytes: 512.0, write_bytes: 0.0 },
                TraceEvent::TileBusy { tile: 0, cycle: 64, dt: 64, busy: 2 },
                TraceEvent::TileBusy { tile: 0, cycle: 128, dt: 64, busy: 1 },
                TraceEvent::LinkPeak { stage: 0, cycle: 192, src: 0, dst: 11, gbps: 2.5 },
                TraceEvent::TinstEnd { stage: 0, cycle: 242 },
            ],
        }
    }

    const NAMES: [&str; 12] = [
        "ColSelect",
        "ColFilter",
        "BoolGen",
        "Alu",
        "Joiner",
        "Sorter",
        "Partitioner",
        "Aggregator",
        "Append",
        "Concat",
        "Stitch",
        "Memory",
    ];

    #[test]
    fn export_is_valid_and_merges_counter_runs() {
        let text = chrome_trace_json(&[stream()], &NAMES, 2.52);
        validate_chrome_trace_json(&text).unwrap();
        // The two equal-occupancy quanta merged: busy=2 appears once.
        assert_eq!(text.matches("\"busy\": 2").count(), 1);
        // The run closes back to zero after the busy=1 quantum.
        assert!(text.contains("\"busy\": 0"));
        assert!(text.contains("\"name\": \"tinst 0\""));
        assert!(text.contains("\"dur\": 242"));
        assert!(text.contains("peak ColSelect -> Memory"));
        assert!(text.contains("\"fill_bytes\": 64"));
    }

    #[test]
    fn degraded_quanta_are_not_exported() {
        let s = TraceStream {
            name: "q1".into(),
            events: vec![TraceEvent::DegradedQuantum { stage: 0, cycle: 0, dt: 64 }],
        };
        let text = chrome_trace_json(&[s], &NAMES, 2.52);
        validate_chrome_trace_json(&text).unwrap();
        // DegradedQuantum is deliberately not exported.
        assert!(!text.contains("degraded"));
    }

    #[test]
    fn blame_samples_export_as_counter_tracks() {
        let s = TraceStream {
            name: "q14".into(),
            events: vec![
                TraceEvent::TinstBegin { stage: 0, cycle: 0, nodes: 2 },
                TraceEvent::BlameSample { stage: 0, cycle: 0, dt: 64, cause: 0, cycles: 32.0 },
                TraceEvent::BlameSample { stage: 0, cycle: 64, dt: 64, cause: 2, cycles: 16.0 },
                TraceEvent::TinstEnd { stage: 0, cycle: 128 },
            ],
        };
        let text = chrome_trace_json(&[s], &NAMES, 2.52);
        validate_chrome_trace_json(&text).unwrap();
        assert!(text.contains("\"name\": \"blame input_starvation\""));
        assert!(text.contains("\"name\": \"blame noc_bandwidth\""));
        // Rates normalized by dt, and every open run closes to zero.
        assert!(text.contains("\"cycles\": 0.5"));
        assert!(text.contains("\"cycles\": 0.25"));
        assert_eq!(text.matches("\"cycles\": 0}").count(), 2);
    }

    #[test]
    fn serve_requests_export_as_slices_on_the_serving_process() {
        let s = TraceStream {
            name: "service".into(),
            events: vec![
                TraceEvent::ServeRequest {
                    cycle: 100,
                    end_cycle: 900,
                    tenant: 1,
                    query: 4,
                    disposition: 0,
                },
                TraceEvent::ServeRequest {
                    cycle: 250,
                    end_cycle: 4000,
                    tenant: 0,
                    query: 2,
                    disposition: 3,
                },
            ],
        };
        let text = chrome_trace_json(&[s], &NAMES, 2.52);
        validate_chrome_trace_json(&text).unwrap();
        assert!(text.contains("\"name\": \"Serving\""));
        assert!(text.contains("\"name\": \"serve.request\""));
        assert!(text.contains("\"dur\": 800"));
        assert!(text.contains("\"disposition\": 3"));
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&[stream()], &NAMES, 2.52);
        let b = chrome_trace_json(&[stream()], &NAMES, 2.52);
        assert_eq!(a, b);
    }
}
