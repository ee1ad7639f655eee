//! Differential proof that the engine's scratch-state recycling is
//! invisible: for every workload in the registry, on both quiet machine
//! presets and on the noisy DL580 preset, `MachineSim::run` (which reuses
//! pooled per-core caches, TLBs, predictors and the coherence directory
//! via epoch-validated resets) produces results byte-identical to
//! `MachineSim::run_fresh` (which allocates everything from scratch — the
//! pre-refactor semantics).
//!
//! Each sim instance runs every program twice, so the second run always
//! executes on *recycled* state that the previous run dirtied; a reset
//! that forgets to clear any structure (cache line, TLB entry, predictor
//! counter, prefetch stream, directory line, RNG, timer phase) shows up
//! as a counter diff here.

mod common;

use np_simulator::{MachineConfig, MachineSim, RunResult};
use np_workloads::registry;

fn quiet(mut cfg: MachineConfig) -> MachineConfig {
    cfg.noise.timer_interval = 0;
    cfg.noise.dram_jitter = 0.0;
    cfg
}

fn assert_same(name: &str, what: &str, fresh: &RunResult, got: &RunResult) {
    assert_eq!(
        fresh.counters, got.counters,
        "{name}: {what} diverged from run_fresh in event counters"
    );
    assert_eq!(fresh.cycles, got.cycles, "{name}: {what} cycles diverged");
    assert_eq!(
        fresh.footprint, got.footprint,
        "{name}: {what} footprint series diverged"
    );
    assert_eq!(
        fresh.regions, got.regions,
        "{name}: {what} region totals diverged"
    );
}

fn differential_sweep(cfg: MachineConfig) {
    // One sim for the whole registry: every run after the first executes
    // on scratch state dirtied by a *different* workload.
    let sim = MachineSim::new(cfg.clone());
    for (i, name) in registry::NAMES.iter().enumerate() {
        let workload =
            registry::build(name, common::size_for(name), 2, &cfg).expect("registry build");
        let program = workload.build(&cfg);
        let seed = 0x9E37 ^ (i as u64) << 8;
        let fresh = sim.run_fresh(&program, seed).expect("run_fresh");
        let first = sim.run(&program, seed).expect("run (cold scratch)");
        let second = sim.run(&program, seed).expect("run (recycled scratch)");
        assert_same(name, "pooled run", &fresh, &first);
        assert_same(name, "recycled run", &fresh, &second);
    }
}

#[test]
fn registry_is_bit_identical_on_two_socket_quiet() {
    differential_sweep(quiet(MachineConfig::two_socket_small()));
}

#[test]
fn registry_is_bit_identical_on_ring_quiet() {
    differential_sweep(quiet(MachineConfig::eight_socket_ring()));
}

/// The benchmark's preset with noise on: timer interrupts exercise
/// `evict_random` on recycled L1s and DRAM jitter draws from the per-core
/// RNGs, paths the two quiet presets never take.
#[test]
fn registry_is_bit_identical_on_dl580_with_noise() {
    differential_sweep(MachineConfig::dl580_gen9());
}
