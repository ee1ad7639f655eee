//! Golden-digest oracle for the simulation engine.
//!
//! `run ≡ run_fresh` (see `differential_engine.rs`) cannot notice a change
//! to the cache, directory or page-table model itself, because both paths
//! share those structures. This suite pins the engine's *outputs* instead:
//! for every registry workload on four presets and two seeds it folds the
//! full `RunResult`, the load-sample stream and every timeslice counter
//! snapshot into FNV-1a digests, and compares them with the table in
//! `engine_golden.txt`, recorded before the engine's state layout was
//! reworked. Any change to a simulated statistic shows up as a digest
//! mismatch; the failure message prints the complete table the current
//! engine produces.

mod common;

use np_simulator::{Counters, LoadSample, MachineConfig, MachineSim, ServedBy, SimObserver};
use np_workloads::registry;

const GOLDEN: &str = include_str!("engine_golden.txt");
const SEEDS: [u64; 2] = [7, 0xC0FF_EE00_D15C_0001];

/// 64-bit FNV-1a over little-endian words. Hand-written on purpose:
/// `DefaultHasher`'s algorithm is not stable across Rust releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counters(&mut self, c: &Counters) {
        self.word(c.cores() as u64);
        for core in 0..c.cores() {
            for v in c.core_array(core) {
                self.word(v);
            }
        }
    }
}

/// Folds every load sample and timeslice snapshot as the run streams them.
struct Digesting {
    samples: Fnv,
    sample_count: u64,
    slices: Fnv,
    slice_count: u64,
}

impl SimObserver for Digesting {
    fn on_load_sample(&mut self, s: &LoadSample) {
        let served = match s.served {
            ServedBy::L1 => 1,
            ServedBy::L2 => 2,
            ServedBy::L3 => 3,
            ServedBy::LocalDram => 4,
            ServedBy::RemoteDram { hops } => 0x100 | hops as u64,
            ServedBy::Hitm { remote } => 0x200 | remote as u64,
        };
        for v in [s.core as u64, s.addr, s.latency, served, s.time] {
            self.samples.word(v);
        }
        self.sample_count += 1;
    }

    fn on_timeslice(&mut self, now: u64, counters: &Counters, footprint_bytes: u64) {
        self.slices.word(now);
        self.slices.word(footprint_bytes);
        self.slices.counters(counters);
        self.slice_count += 1;
    }
}

fn presets() -> Vec<(&'static str, MachineConfig)> {
    let mut out = vec![
        ("dl580", MachineConfig::dl580_gen9()),
        ("two-socket", MachineConfig::two_socket_small()),
    ];
    for (name, cfg) in np_patterns::verify::sweep_machines() {
        out.push((
            match name {
                "two-socket" => "two-socket-quiet",
                "ring" => "ring-quiet",
                other => panic!("unexpected sweep preset {other}"),
            },
            cfg,
        ));
    }
    out
}

/// One table line per `(workload, seed)` on `preset`:
/// `preset workload seed run-digest samples/digest slices/digest`.
fn digest_lines(preset: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for (preset, cfg) in presets().into_iter().filter(|(p, _)| *p == preset) {
        let sim = MachineSim::new(cfg.clone());
        for name in registry::NAMES {
            let program = registry::build(name, common::size_for(name), 2, &cfg)
                .expect("registry build")
                .build(&cfg);
            for seed in SEEDS {
                let mut obs = Digesting {
                    samples: Fnv::new(),
                    sample_count: 0,
                    slices: Fnv::new(),
                    slice_count: 0,
                };
                let r = sim.run_observed(&program, seed, &mut obs).expect("run");
                let mut run = Fnv::new();
                run.counters(&r.counters);
                run.word(r.cycles);
                run.word(r.footprint.len() as u64);
                for &(t, b) in &r.footprint {
                    run.word(t);
                    run.word(b);
                }
                run.word(r.regions.len() as u64);
                for (id, events) in &r.regions {
                    run.word(*id as u64);
                    for &v in events {
                        run.word(v);
                    }
                }
                lines.push(format!(
                    "{preset} {name} {seed:#x} {:016x} {}/{:016x} {}/{:016x}",
                    run.0, obs.sample_count, obs.samples.0, obs.slice_count, obs.slices.0
                ));
            }
        }
    }
    lines
}

fn check(preset: &str) {
    let got = digest_lines(preset);
    let want: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| l.split(' ').next() == Some(preset))
        .collect();
    let mismatched: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == want.len(),
        "{preset}: {} of {} engine digests changed ({} golden lines):\n{}\n\nfull table:\n{}",
        mismatched.len(),
        got.len(),
        want.len(),
        mismatched.join("\n"),
        got.join("\n")
    );
}

#[test]
fn dl580_with_noise_matches_the_golden_digests() {
    check("dl580");
}

#[test]
fn two_socket_with_noise_matches_the_golden_digests() {
    check("two-socket");
}

#[test]
fn quiet_two_socket_matches_the_golden_digests() {
    check("two-socket-quiet");
}

#[test]
fn quiet_ring_matches_the_golden_digests() {
    check("ring-quiet");
}
