//! Host-time spans recorded by the benchmark around each public call it
//! makes. Spans stay in memory during the run and are written out once
//! at the end; a span's self time is its duration minus the part of it
//! that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::json_str;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The request the span serves; `None` for call-level spans.
    pub request: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// In-memory span recorder. Span ids are indices into `spans`.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let t = self.now();
        self.push(name, parent, request, t, t)
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records an already measured interval as a child of `parent`,
    /// starting at `start` (recorder seconds) and lasting `dur` seconds.
    /// Used for the program's own phase timers, which report durations.
    pub fn add(&mut self, name: &'static str, parent: usize, start: f64, dur: f64) -> f64 {
        let request = self.spans[parent].request;
        self.push(name, Some(parent), request, start, start + dur);
        start + dur
    }

    /// Start time of span `id`.
    pub fn start_of(&self, id: usize) -> f64 {
        self.spans[id].start
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        start: f64,
        end: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        id
    }

    /// Total self time and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let own = (s.end - s.start) - covered(s.start, s.end, kids);
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += own.max(0.0);
            e.1 += 1;
        }
        out
    }

    /// All spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}}}{}\n",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                json_str(s.name),
                s.start,
                s.end,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Length of `[start, end]` covered by the union of `kids`.
fn covered(start: f64, end: f64, kids: &mut [(f64, f64)]) -> f64 {
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = start;
    for &(s, e) in kids.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_union_of_children() {
        let mut r = Recorder::new();
        let root = r.push("call", None, None, 0.0, 10.0);
        r.push("a", Some(root), Some(1), 1.0, 4.0);
        r.push("b", Some(root), Some(1), 3.0, 6.0);
        r.push("c", Some(root), Some(2), 8.0, 12.0);
        let t = r.self_times();
        // Children cover [1, 6] and [8, 10] of the root's [0, 10].
        assert!((t["call"].0 - 3.0).abs() < 1e-12);
        assert!((t["a"].0 - 3.0).abs() < 1e-12);
        assert_eq!(t["call"].1, 1);
    }
}
