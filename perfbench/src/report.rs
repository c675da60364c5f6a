//! Metrics, their summary statistics, spans, and the printed record.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (the median, for sampled metrics).
    pub value: f64,
    /// Sample count behind `value`.
    pub n: usize,
    /// The highest percentile with at least ten samples beyond it, on the
    /// worse side, as `(percentile, value)`; `None` below eleven samples.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A single-valued metric.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit,
            value: finite(value),
            n: 1,
            tail: None,
        }
    }

    /// The median of `samples`, with the tail on the high side when
    /// `lower_is_better` and on the low side otherwise.
    pub fn sampled(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        lower_is_better: bool,
    ) -> Self {
        let mut s: Vec<f64> = samples.iter().copied().map(finite).collect();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // Percentile of sorted index k: the share of samples below it.
        let tail = (n >= 11).then(|| {
            let k = if lower_is_better { n - 11 } else { 10 };
            (100.0 * k as f64 / n as f64, s[k])
        });
        Metric {
            name,
            unit,
            value: median(&s),
            n,
            tail,
        }
    }

    /// The human-readable line: `metric <name> value=<v> unit=<u> n=<n> tail=<p>:<v>|-`.
    pub fn line(&self) -> String {
        let tail = self
            .tail
            .map_or_else(|| "-".to_string(), |(p, v)| format!("p{p:.1}:{v}"));
        format!(
            "metric {} value={} unit={} n={} tail={}",
            self.name, self.value, self.unit, self.n, tail
        )
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Median of sorted samples (0 for none).
fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median_of(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median(&s)
}

/// The final record line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// The host signature printed with every record, so results are never
/// compared across different machines.
pub fn host_signature() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    /// Layer (crate or module) the call enters.
    layer: &'static str,
    /// The public function called.
    name: &'static str,
    /// The enclosing span, if any.
    parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    dur_ns: u64,
}

/// In-memory span recorder; spans are written out when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose spans all carry `run` as their run id.
    pub fn new(run: String) -> Self {
        Spans {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            layer,
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id];
        s.dur_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(layer, name, parent);
        let r = f();
        self.close(id);
        r
    }

    /// One `span ...` line per recorded span.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().enumerate().map(|(id, s)| {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            format!(
                "span run={} id={id} parent={parent} layer={} name={} start_ns={} dur_ns={}",
                self.run, s.layer, s.name, s.start_ns, s.dur_ns
            )
        })
    }
}
