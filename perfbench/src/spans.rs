//! In-memory spans around the benchmark's calls into each layer, and
//! the self time derived from them.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in nanoseconds, summed over every span
    /// of that name: each span's duration minus the time its direct
    /// children cover (children of one span never overlap).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// The spans as one JSON array of `[name, start_ns, end_ns, parent]`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!("[\"{}\",{},{},{}]", s.name, s.start_ns, s.end_ns, parent)
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        s.time("outer", |s| {
            s.time("inner", |s| s.time("leaf", |_| std::hint::black_box(1)));
            s.time("inner", |_| ());
        });
        let total = |n: &str| -> u64 {
            s.spans()
                .iter()
                .filter(|x| x.name == n)
                .map(|x| x.end_ns - x.start_ns)
                .sum()
        };
        let selfs = s.self_ns();
        assert_eq!(selfs["leaf"], total("leaf"));
        assert_eq!(selfs["inner"], total("inner") - total("leaf"));
        assert_eq!(selfs["outer"], total("outer") - total("inner"));
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[2].parent, Some(1));
    }
}
