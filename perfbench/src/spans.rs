//! Host-time spans around the calls into each layer, kept in memory,
//! each with the simulated runs it caused (the `sim.runs` counter, so
//! counts are taken at the same boundary as the time).

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call.
    pub name: &'static str,
    /// Host time.
    pub ns: u64,
    /// Simulated runs inside the span (0 unless telemetry is on).
    pub sim_runs: u64,
}

/// Records spans when on; a plain call when off.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    /// Recorded spans, in call order.
    pub records: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::default()
    }

    /// A recorder that keeps every span.
    pub fn on() -> Spans {
        Spans {
            on: true,
            records: Vec::new(),
        }
    }

    /// Runs `f`, recording its host time under `name` when on.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let runs0 = sim_runs();
        let t0 = Instant::now();
        let out = f();
        let ns = elapsed_ns(t0);
        self.records.push(Span {
            name,
            ns,
            sim_runs: sim_runs() - runs0,
        });
        out
    }

    /// The span recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Span> {
        self.records.iter().copied().find(|s| s.name == name)
    }
}

/// The `sim.runs` telemetry counter.
pub fn sim_runs() -> u64 {
    np_telemetry::global().counter("sim.runs").get()
}

/// Nanoseconds since `t0`, at least 1.
pub fn elapsed_ns(t0: Instant) -> u64 {
    (t0.elapsed().as_nanos() as u64).max(1)
}
