//! In-tree stand-in for `criterion`, vendored so the workspace builds
//! offline with zero external crates.
//!
//! Implements the measurement loop directly: per benchmark, a warm-up
//! pass sizes the iteration batch, then `sample_size` timed samples run
//! and the median/min/max per-iteration times print as one line. No
//! statistical outlier analysis, plotting, or baseline storage — but the
//! same source-level API (`criterion_group!`, `criterion_main!`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `Throughput`)
//! so the bench targets compile and run unchanged.

use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (deprecated upstream in favor
/// of `std::hint::black_box`, but still referenced by bench code).
pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier composed of a function name and a parameter.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`, criterion's display convention.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// The harness entry point handed to each bench function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup {
            _parent: self,
            name,
            sample_size: 20,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotates per-iteration throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&self.name, &id.into_bench_id(), self.throughput);
        self
    }

    /// Runs one parameterised benchmark.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        b.report(&self.name, &id.id, self.throughput);
        self
    }

    /// Ends the group (printing happens per benchmark; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Accepts both `&str` and `BenchmarkId` benchmark names.
pub trait IntoBenchId {
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.id
    }
}

/// Times closures; handed to the benchmark body.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>, // per-iteration time, one per sample
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples: Vec::new(),
        }
    }

    /// Measures `routine`, adaptively batching fast routines.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up: find how many iterations fill ~5 ms, so timer
        // resolution does not dominate fast routines.
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || batch >= 1 << 20 {
                break;
            }
            batch = (batch * 4).min(1 << 20);
        }
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / batch as u32);
        }
    }

    fn report(&self, group: &str, id: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            eprintln!("  {group}/{id}: no samples");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
        let rate = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:.2} Melem/s", n as f64 / median.as_secs_f64() / 1e6)
            }
            Some(Throughput::Bytes(n)) => {
                format!(
                    "  {:.2} MiB/s",
                    n as f64 / median.as_secs_f64() / (1 << 20) as f64
                )
            }
            None => String::new(),
        };
        eprintln!(
            "  {group}/{id}: median {} [{} .. {}]{rate}",
            fmt_duration(median),
            fmt_duration(lo),
            fmt_duration(hi),
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a group of bench functions (mirrors criterion's macro).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main` running listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
