//! Chrome-trace / Perfetto JSON export for machine traces.
//!
//! Serializes per-CPU [`Trace`](crate::trace::Trace) records into the Trace
//! Event Format (the `{"traceEvents": [...]}` JSON consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)), so a
//! livelock interleaving can be *looked at*: interrupt frames render as a
//! nesting flame track, thread occupancy as duration slices, idle entries
//! and external events as instant markers.
//!
//! Mapping, one process group per CPU (`pid = cpu + 1`, so the
//! single-CPU trace stays on `pid` 1):
//!
//! - `IntrEnter`/`IntrExit` → `"B"`/`"E"` begin/end pairs on the
//!   *interrupts* track (`tid` 1). Interrupt frames strictly nest (IPL
//!   stack discipline), which is exactly the nesting `B`/`E` requires.
//!   A ring-truncated head (an exit whose enter was evicted) is skipped;
//!   frames still open at the end are closed at the final timestamp so
//!   the array is always balanced.
//! - `ThreadRun` → an `"X"` complete event on the *threads* track
//!   (`tid` 2) lasting until the next scheduling record ends the thread's
//!   occupancy.
//! - `Idle` / `External` → `"i"` instant events on the *markers* track
//!   (`tid` 3).
//!
//! Timestamps are microseconds (`ts` floats), converted from cycles with
//! the machine's [`Freq`]. Output is deterministic: same records, same
//! JSON bytes.

use livelock_sim::{Cycles, Freq};

use crate::cpu::CpuId;
use crate::intr::IntrSrc;
use crate::thread::ThreadId;
use crate::trace::{TraceEvent, TraceRecord};

/// Escapes a string for inclusion in a JSON string literal (everything
/// between, not including, the quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The Chrome-trace `pid` a CPU's tracks render under: CPU *k* is process
/// `k + 1`, so a one-CPU trace keeps its historical `pid` 1 and a
/// cluster's trace shows one process group per CPU.
fn pid_of(cpu: CpuId) -> u32 {
    cpu.0 as u32 + 1
}

const TID_INTR: u32 = 1;
const TID_THREAD: u32 = 2;
const TID_MARKER: u32 = 3;

fn ts_micros(freq: Freq, at: Cycles) -> f64 {
    freq.nanos_from_cycles(at).as_micros_f64()
}

fn push_event(out: &mut Vec<String>, name: &str, ph: char, ts: f64, pid: u32, tid: u32, extra: &str) {
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}{extra}}}",
        json_escape(name)
    ));
}

/// One CPU's `(records, markers)`, as [`chrome_trace_json`] takes them.
type CpuTrack<'a> = (&'a [TraceRecord], &'a [(Cycles, String)]);

/// Renders per-CPU trace records as one Chrome-trace JSON document.
///
/// `cpus[k]` is CPU *k*'s `(records, markers)`: its scheduling trace, and
/// extra named instants merged onto its *markers* track — the
/// fault-injection and observability layers use these to make every
/// injected fault, recovery action and detector event visible next to
/// the interleaving it perturbed. Each CPU renders under its own process
/// group (`pid = k + 1`), its markers in slice order after its
/// record-derived events, so a one-CPU document is the historical
/// single-CPU output byte for byte and output stays deterministic.
///
/// `intr_name` and `thread_name` supply human-readable labels (typically
/// [`IntrController::name_of`](crate::intr::IntrController::name_of) and
/// [`Scheduler::name`](crate::thread::Scheduler::name) of that CPU's
/// engine); `freq` converts cycle timestamps to microseconds.
pub fn chrome_trace_json(
    cpus: &[CpuTrack<'_>],
    freq: Freq,
    mut intr_name: impl FnMut(CpuId, IntrSrc) -> String,
    mut thread_name: impl FnMut(CpuId, ThreadId) -> String,
) -> String {
    let mut events: Vec<String> = Vec::new();
    for (k, &(records, markers)) in cpus.iter().enumerate() {
        cpu_events(
            &mut events,
            CpuId(k),
            records,
            markers,
            freq,
            &mut intr_name,
            &mut thread_name,
        );
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Appends one CPU's tracks — metadata, record-derived events, markers —
/// to `events` under that CPU's process group.
fn cpu_events(
    events: &mut Vec<String>,
    cpu: CpuId,
    records: &[TraceRecord],
    markers: &[(Cycles, String)],
    freq: Freq,
    intr_name: &mut impl FnMut(CpuId, IntrSrc) -> String,
    thread_name: &mut impl FnMut(CpuId, ThreadId) -> String,
) {
    let pid = pid_of(cpu);
    events.reserve(records.len() + 8);
    for (tid, label) in [
        (TID_INTR, "interrupts"),
        (TID_THREAD, "threads"),
        (TID_MARKER, "markers"),
    ] {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{label}\"}}}}"
        ));
    }

    // Open interrupt frames, for nesting checks and final balancing.
    let mut open: Vec<IntrSrc> = Vec::new();
    let last_ts = records.last().map_or(0.0, |r| ts_micros(freq, r.at));
    for (i, rec) in records.iter().enumerate() {
        let ts = ts_micros(freq, rec.at);
        match rec.event {
            TraceEvent::IntrEnter(src) => {
                open.push(src);
                push_event(events, &intr_name(cpu, src), 'B', ts, pid, TID_INTR, "");
            }
            TraceEvent::IntrExit(src) => {
                // A ring-truncated head can exit a frame whose enter was
                // evicted; emitting the E would unbalance the track.
                if open.last() == Some(&src) {
                    open.pop();
                    push_event(events, &intr_name(cpu, src), 'E', ts, pid, TID_INTR, "");
                }
            }
            TraceEvent::ThreadRun(t) => {
                // The slice lasts until the next record that ends this
                // thread's occupancy of the CPU (another switch or idle).
                let end = records[i + 1..]
                    .iter()
                    .find(|r| {
                        matches!(r.event, TraceEvent::ThreadRun(_) | TraceEvent::Idle)
                    })
                    .map_or(last_ts, |r| ts_micros(freq, r.at));
                let dur = (end - ts).max(0.0);
                push_event(
                    events,
                    &thread_name(cpu, t),
                    'X',
                    ts,
                    pid,
                    TID_THREAD,
                    &format!(",\"dur\":{dur}"),
                );
            }
            TraceEvent::Idle => {
                push_event(events, "idle", 'i', ts, pid, TID_MARKER, ",\"s\":\"t\"");
            }
            TraceEvent::External => {
                push_event(events, "external", 'i', ts, pid, TID_MARKER, ",\"s\":\"t\"");
            }
        }
    }
    // Close frames still open at the end of the trace window.
    while let Some(src) = open.pop() {
        push_event(events, &intr_name(cpu, src), 'E', last_ts, pid, TID_INTR, "");
    }
    for (at, name) in markers {
        let ts = ts_micros(freq, *at);
        push_event(events, name, 'i', ts, pid, TID_MARKER, ",\"s\":\"t\"");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: Cycles::new(at),
            event,
        }
    }

    /// Renders a one-CPU document with `src{n}` / `thread{n}` labels.
    fn render(records: &[TraceRecord], markers: &[(Cycles, String)]) -> String {
        chrome_trace_json(
            &[(records, markers)],
            Freq::mhz(1), // 1 cycle == 1 us
            |_, s| format!("src{}", s.0),
            |_, t| format!("thread{}", t.0),
        )
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn begin_end_pairs_balance() {
        let records = vec![
            rec(0, TraceEvent::IntrEnter(IntrSrc(0))),
            rec(100, TraceEvent::IntrEnter(IntrSrc(1))),
            rec(200, TraceEvent::IntrExit(IntrSrc(1))),
            rec(300, TraceEvent::IntrExit(IntrSrc(0))),
        ];
        let json = render(&records, &[]);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
    }

    #[test]
    fn unclosed_frames_are_closed_at_the_end() {
        let records = vec![
            rec(0, TraceEvent::IntrEnter(IntrSrc(0))),
            rec(500, TraceEvent::External),
        ];
        let json = render(&records, &[]);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn truncated_head_exit_is_skipped() {
        // The ring evicted the matching IntrEnter.
        let records = vec![
            rec(0, TraceEvent::IntrExit(IntrSrc(7))),
            rec(100, TraceEvent::Idle),
        ];
        let json = render(&records, &[]);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
    }

    #[test]
    fn fault_markers_land_on_the_marker_track() {
        let records = vec![
            rec(0, TraceEvent::IntrEnter(IntrSrc(0))),
            rec(100, TraceEvent::IntrExit(IntrSrc(0))),
        ];
        let markers = vec![
            (Cycles::new(50), "fault: lost-rx-intr".to_string()),
            (Cycles::new(90), "recover: screend-restart".to_string()),
        ];
        let json = render(&records, &markers);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2);
        assert!(json.contains("\"name\":\"fault: lost-rx-intr\""));
        assert!(json.contains("\"name\":\"recover: screend-restart\""));
    }

    #[test]
    fn each_cpu_renders_under_its_own_process_group() {
        let records = vec![
            rec(0, TraceEvent::IntrEnter(IntrSrc(0))),
            rec(100, TraceEvent::IntrExit(IntrSrc(0))),
        ];
        let marker = vec![(Cycles::new(50), "fault: lost-rx-intr".to_string())];
        let solo = render(&records, &marker);
        let duo = chrome_trace_json(
            &[(&records, &marker), (&records, &[])],
            Freq::mhz(1),
            |cpu, s| format!("src{}@{}", s.0, cpu.0),
            |_, t| format!("thread{}", t.0),
        );
        // Per CPU: three track-name records, one B/E pair, its markers.
        assert_eq!(solo.matches("\"pid\":1,").count(), 6);
        assert_eq!(duo.matches("\"pid\":1,").count(), 6);
        assert_eq!(duo.matches("\"pid\":2,").count(), 5);
        assert!(
            duo.contains("\"name\":\"src0@1\""),
            "labels come from the CPU's own engine"
        );
        assert!(!solo.contains("\"pid\":2,"));
    }

    #[test]
    fn thread_slice_duration_spans_to_next_switch() {
        let records = vec![
            rec(0, TraceEvent::ThreadRun(ThreadId(0))),
            rec(250, TraceEvent::ThreadRun(ThreadId(1))),
            rec(400, TraceEvent::Idle),
        ];
        let json = render(&records, &[]);
        assert!(json.contains("\"name\":\"thread0\""));
        assert!(json.contains("\"dur\":250"));
        assert!(json.contains("\"dur\":150"));
    }
}
