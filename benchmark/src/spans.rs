//! Host-time spans around each call the harness makes into a layer.
//!
//! Spans live in memory and are written out when the benchmark ends. Each
//! has a name, start, end, the span that caused it (`parent`) and the
//! repetition it belongs to; a span's self time is its duration minus the
//! part its children cover. Time *inside* the event loop per component
//! class needs a kernel self-profile and is not measured here.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rep: u32,
    pub start_s: f64,
    pub end_s: f64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    /// Starts the next repetition: spans opened from now on carry its id.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result together with the span's duration.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, rep: self.rep, start_s: 0.0, end_s: 0.0 });
        self.open.push(id);
        let start = self.origin.elapsed().as_secs_f64();
        let result = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].start_s = start;
        self.spans[id].end_s = end;
        (result, end - start)
    }

    /// [`Spans::timed`] for callers that do not need the duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.timed(name, f).0
    }

    /// Self time of every span: duration minus its direct children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_s - s.start_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.end_s - span.start_s;
            }
        }
        own
    }

    /// Largest relative gap, over the root spans, between a root's duration
    /// and the self times of everything under it (0 when the spans nest
    /// properly — the check the traced run makes before writing the file).
    pub fn worst_self_time_gap(&self) -> f64 {
        let own = self.self_times();
        let mut sums = vec![0.0; self.spans.len()];
        for (i, own) in own.iter().enumerate() {
            let mut root = i;
            while let Some(parent) = self.spans[root].parent {
                root = parent;
            }
            sums[root] += own;
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| {
                let wall = s.end_s - s.start_s;
                if wall > 0.0 {
                    ((sums[i] - wall) / wall).abs()
                } else {
                    0.0
                }
            })
            .fold(0.0, f64::max)
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_times();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("rep", Json::Num(f64::from(s.rep))),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        ("self_s", Json::Num(own[id])),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_a_repetition_sum_to_its_wall_time() {
        let mut spans = Spans::new();
        spans.next_rep();
        spans.span("bench.rep", |s| {
            s.span("system.build", |s| s.span("system.attach", |_| std::hint::black_box(0)));
            s.span("kernel.sim.run", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let own = spans.self_times();
        let wall = spans.spans[0].end_s - spans.spans[0].start_s;
        assert!((own.iter().sum::<f64>() - wall).abs() < 1e-9);
        assert!(spans.worst_self_time_gap() < 1e-9);
        assert_eq!(spans.spans[2].parent, Some(1));
        assert!(own.iter().all(|&t| t >= 0.0));
    }
}
