//! Spans recorded from outside the program: one at each call into a layer's
//! public functions, with the epoch counts beside it. Kept in a pre-sized
//! `Vec` and written once, at the end, as Chrome trace-event JSON.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::json_str;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer (module) the call belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op share this identifier.
    pub op: u32,
    /// Which backend's lane (0 seq, 1 par, 2 net).
    pub lane: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Load units and rounds the call cost, where it has an epoch.
    pub units: u64,
    pub rounds: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// The currently open spans, innermost last.
    stack: Vec<u32>,
    pub lane: u8,
    pub op: u32,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(8),
            lane: 0,
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            lane: self.lane,
            start_ns,
            end_ns: start_ns,
            units: 0,
            rounds: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32, units: u64, rounds: u64) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.units = units;
        span.rounds = rounds;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ms(&self, id: u32) -> f64 {
        self.spans[id as usize].dur_ns() as f64 / 1e6
    }
}

/// Per span: its duration minus the part its child spans cover. Children of
/// one parent never overlap here (one client, one thread records).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Smallest share of a `name` span's time that its children account for.
pub fn min_attributed_share(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name && s.dur_ns() > 0)
        .map(|(s, &own_ns)| 1.0 - own_ns as f64 / s.dur_ns() as f64)
        .fold(f64::NAN, f64::min)
}

const LANES: [&str; 3] = ["seq", "par", "net"];

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete events,
/// one thread per backend lane.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + 160 * spans.len());
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (tid, lane) in LANES.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": {}}}}},",
            json_str(lane)
        );
    }
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
             \"op\": {}, \"units\": {}, \"rounds\": {}}}}}",
            json_str(s.name),
            json_str(s.layer),
            s.lane,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op,
            s.units,
            s.rounds
        );
        out.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: "test",
            name,
            parent,
            op: 0,
            lane: 0,
            start_ns,
            end_ns,
            units: 0,
            rounds: 0,
        }
    }

    #[test]
    fn recorder_nests_under_the_innermost_open_span() {
        let mut rec = Recorder::with_capacity(4);
        rec.op = 7;
        let op = rec.open("engine", "op");
        let a = rec.open("planner", "plan");
        rec.close(a, 10, 2);
        let b = rec.open("exec", "execute");
        rec.close(b, 30, 5);
        rec.close(op, 40, 7);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!((spans[2].units, spans[2].rounds), (30, 5));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("plan", Some(0), 5, 25),
            span("execute", Some(0), 25, 95),
            span("route", Some(2), 30, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 50, 20]);
        assert!((min_attributed_share(&spans, "op") - 0.9).abs() < 1e-12);
        assert!(min_attributed_share(&spans, "absent").is_nan());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let spans = vec![
            span("op", None, 1_000, 3_500),
            span("plan", Some(0), 1_500, 2_000),
        ];
        let json = chrome_json(&spans);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"ts\": 1.000, \"dur\": 2.500"));
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
        // Balanced and comma-separated: every event line but the last ends in a comma.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.trim_end().ends_with("]}"));
    }
}
