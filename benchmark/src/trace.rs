//! In-memory spans around the benchmark's calls into the simulator.
//!
//! A [`Tracer`] is either off — [`Tracer::span`] is then one branch and a
//! call — or on, in which case every span records its name, start, end,
//! the span that caused it and the unit of work (cell, config run, request
//! batch, schedule) it belongs to. Spans live in memory until the run ends
//! and are then written as Chrome trace-event JSON.
//!
//! On or off, the tracer times every unit of work — one call of an entry
//! point when off, one cell, configuration, traffic run or schedule when
//! on: `wall_s` is built from those times (see `run.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by the spans of one unit of work.
    pub unit: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
    unit_started: Option<Instant>,
    unit_seconds: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            unit_started: None,
            unit_seconds: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new unit of work: spans opened from now on share its id,
    /// and the unit before it ends here.
    pub fn next_unit(&mut self) {
        self.end_unit();
        self.unit += 1;
        self.unit_started = Some(Instant::now());
    }

    fn end_unit(&mut self) {
        if let Some(started) = self.unit_started.take() {
            self.unit_seconds.push(started.elapsed().as_secs_f64());
        }
    }

    /// End the open unit and hand over the seconds of every unit since the
    /// last call, in the order they ran.
    pub fn take_unit_seconds(&mut self) -> Vec<f64> {
        self.end_unit();
        std::mem::take(&mut self.unit_seconds)
    }

    /// Run `f` inside a span called `name`. Child spans are opened through
    /// the tracer handed to `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, unit: self.unit, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per span name: each span's duration minus the part its
    /// child spans cover, summed over all spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as Chrome trace-event JSON (open in `chrome://tracing` or
    /// Perfetto): complete events, microsecond timestamps.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"unit\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.unit
            )
            .expect("write to String");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_no_spans_but_times_units() {
        let mut t = Tracer::new(false);
        t.next_unit();
        assert_eq!(t.span("a", |t| t.span("b", |_| 7)), 7);
        t.next_unit();
        assert!(t.spans().is_empty());
        assert_eq!(t.take_unit_seconds().len(), 2);
        assert!(t.take_unit_seconds().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_unit();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].unit, 1);
        let own = t.self_seconds();
        assert!(own["inner"] >= 0.005);
        assert!(own["outer"] < own["inner"]);
        let json = t.chrome_json();
        assert!(oci_spec_lite::parse_json(&json).is_ok(), "{json}");
    }
}
