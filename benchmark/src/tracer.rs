//! The benchmark's own tracer: one span around every call the benchmark
//! makes into a layer's public function. Spans stay in memory and are
//! written out once, at exit; with the tracer off a span costs one
//! branch. Tracing *inside* the program is a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    /// Epoch sequence or query id the span belongs to.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; `id == 0` means the tracer was off when it began.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    key: u64,
    start_ns: u64,
}

impl Open {
    /// Id to hand to child spans as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), next_id: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, key: u64, parent: u32) -> Open {
        if !self.on {
            return Open { id: 0, parent: 0, name, key, start_ns: 0 };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, key, start_ns: self.now_ns() }
    }

    pub fn end(&self, open: Open) {
        if open.id == 0 {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            key: open.key,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("no tracer user panics while recording").push(span);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, key: u64, parent: u32, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, key, parent);
        let out = f();
        self.end(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("no tracer user panics while recording").len()
    }

    /// Per-name totals. Self time of a span is its duration minus the
    /// part of it covered by the union of its child spans.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("no tracer user panics while recording");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered;
        }
        out
    }

    /// Cost of recording one span, measured on a throwaway tracer: how a
    /// paced run (one window, nothing to pair it with) prices its spans.
    pub fn span_cost_ns() -> f64 {
        const N: u32 = 20_000;
        let t = Tracer::new(true);
        let t0 = Instant::now();
        for i in 0..N {
            t.span("calibrate", u64::from(i), 0, || std::hint::black_box(i));
        }
        t0.elapsed().as_nanos() as f64 / f64::from(N)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("no tracer user panics while recording");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"key\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, || 5), 5);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        {
            let mut spans = t.spans.lock().unwrap();
            let mk = |id, parent, name, start_ns, end_ns| Span {
                id,
                parent,
                name,
                key: 0,
                start_ns,
                end_ns,
            };
            spans.push(mk(1, 0, "root", 0, 100));
            // Two overlapping children cover [10, 60) once.
            spans.push(mk(2, 1, "kid", 10, 40));
            spans.push(mk(3, 1, "kid", 30, 60));
        }
        let lt = t.layer_times();
        assert_eq!(lt["root"].total_ns, 100);
        assert_eq!(lt["root"].self_ns, 50);
        assert_eq!(lt["kid"].count, 2);
        assert_eq!(lt["kid"].self_ns, 60);
    }
}
