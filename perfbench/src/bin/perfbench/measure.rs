//! Measurement primitives: an in-memory span recorder, resident-set
//! readings from `/proc`, and order statistics.

use std::fmt::Write as _;
use std::path::Path;
// lint:allow(wall-clock) -- the benchmark times the program from outside; `Clock` is its only clock
use std::time::Instant;

/// A started wall clock. The benchmark reads time only through it.
#[derive(Debug, Clone, Copy)]
// lint:allow(wall-clock) -- see the import above
pub struct Clock(Instant);

impl Clock {
    /// Starts a clock now.
    pub fn start() -> Clock {
        // lint:allow(wall-clock) -- see the import above
        Clock(Instant::now())
    }

    /// Seconds since the clock started.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// One recorded span: a layer call the benchmark made, timed from
/// outside the layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that was open when this one began, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to; every span of one iteration
    /// shares it.
    pub run: u64,
    /// Layer-qualified name, e.g. `feeds.collect`.
    pub name: String,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans in memory while enabled; does nothing otherwise.
/// Spans are written out once, when the run ends.
pub struct Tracer {
    on: bool,
    origin: Clock,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder, enabled or not.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Clock::start(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (the traced run alternates, so that it
    /// can measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the iteration id stamped on the spans that follow.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name: name.to_string(),
            start: self.origin.secs(),
            end: f64::NAN,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`] and returns its
    /// duration (zero when recording is off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(id) = open.0 else { return 0.0 };
        let now = self.origin.secs();
        self.open.retain(|&o| o != id);
        let span = &mut self.spans[id];
        span.end = now;
        span.secs()
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.end.is_finite())
    }

    /// Adds spans recorded by another process, renumbered after this
    /// recorder's own, stamped with iteration `run`, and shifted by
    /// `offset` seconds onto this recorder's clock.
    pub fn absorb(&mut self, spans: Vec<Span>, run: u64, offset: f64) {
        let base = self.spans.len();
        let ids: Vec<usize> = spans.iter().map(|s| s.id).collect();
        let renumber = |id: usize| ids.iter().position(|&i| i == id).map(|p| base + p);
        for s in spans {
            self.spans.push(Span {
                id: self.spans.len(),
                parent: s.parent.and_then(renumber),
                run,
                name: s.name,
                start: s.start + offset,
                end: s.end + offset,
            });
        }
    }

    /// Seconds since this recorder was created.
    pub fn now(&self) -> f64 {
        self.origin.secs()
    }

    /// Self time of each span named `name`, summed per iteration: the
    /// span's duration minus the part its child spans cover.
    pub fn self_secs_per_run(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0.0f64; self.spans.len()];
        for s in self.spans() {
            if let Some(p) = s.parent {
                children[p] += s.secs();
            }
        }
        let mut per_run: Vec<(u64, f64)> = Vec::new();
        for s in self.spans().filter(|s| s.name == name) {
            let own = s.secs() - children[s.id];
            match per_run.iter_mut().find(|(r, _)| *r == s.run) {
                Some((_, acc)) => *acc += own,
                None => per_run.push((s.run, own)),
            }
        }
        per_run.into_iter().map(|(_, v)| v).collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.id, parent, s.run, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Resets the resident-set high-water mark of this process to its
/// current resident set. Returns false when `/proc` refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of a process (this one for `None`), in MB (10^6 bytes).
/// `None` when `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Peak resident set of this process over a stretch of work, read in
/// pieces: each [`Peak::take`] returns the high-water mark since the
/// previous reset and resets it.
pub struct Peak {
    /// Largest reading so far; `None` when `/proc` is unavailable.
    pub max: Option<f64>,
    resettable: bool,
}

impl Peak {
    /// Resets the high-water mark and starts tracking.
    pub fn start() -> Peak {
        Peak {
            max: None,
            resettable: reset_peak_rss(),
        }
    }

    /// The peak since the last reset, in MB; `None` when it cannot be
    /// measured.
    pub fn take(&mut self) -> Option<f64> {
        if !self.resettable {
            return None;
        }
        let mb = peak_rss_mb(None)?;
        self.max = Some(self.max.map_or(mb, |m| m.max(mb)));
        self.resettable = reset_peak_rss();
        Some(mb)
    }
}

/// Median; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile (`q` in 0..=100); `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let own = t.self_secs_per_run("root")[0];
        let child = t.spans().find(|s| s.name == "child").unwrap().secs();
        assert!(child >= 0.005);
        assert!(own >= 0.0 && own < child, "{own} {child}");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x");
        assert_eq!(t.end(open), 0.0);
        assert_eq!(t.spans().count(), 0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 50.0), Some(50.0));
    }

    #[test]
    fn proc_peak_is_positive_where_available() {
        if let Some(mb) = peak_rss_mb(None) {
            assert!(mb > 0.0);
        }
    }
}
