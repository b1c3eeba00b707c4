//! Outside-in spans. The benchmark records a span around each call it
//! makes into a layer; spans inside the program are a later change. Spans
//! stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; `None` for a job's root span.
    pub parent: Option<u64>,
    /// Spans of one job share this.
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span recorder. A disabled tracer records nothing, so the
/// traced and untraced phases run the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this tracer hands out, so lanes never clash.
    lane: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            lane,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id (0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, job: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = (self.lane << 40) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = (id & ((1 << 40) - 1)) as usize - 1;
        self.spans[index].end_ns = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count, total and self time of the spans of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part the spans' children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, duration.saturating_sub(children))
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let self_ns = self_times(spans);
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.end_ns.saturating_sub(span.start_ns);
        entry.self_ns += self_ns[&span.id];
    }
    totals
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let self_ns = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.id, parent, span.job, span.name, span.start_ns, span.end_ns, self_ns[&span.id]
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 7,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, None, "job", 0, 100),
            span(2, Some(1), "serve.wire.submit", 10, 40),
            span(3, Some(1), "serve.wire.result", 40, 90),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["job"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(totals["serve.wire.result"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_lanes_do_not_clash() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch, 0);
        let id = off.begin("job", None, 1);
        off.end(id);
        assert!(off.into_spans().is_empty());

        let mut a = Tracer::new(true, epoch, 1);
        let mut b = Tracer::new(true, epoch, 2);
        let (ia, ib) = (a.begin("job", None, 1), b.begin("job", None, 1));
        a.end(ia);
        b.end(ib);
        assert_ne!(ia, ib);
        let spans = a.into_spans();
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
