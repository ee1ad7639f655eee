//! Per-rule fixtures for `np audit`: for every rule, one reproducer the
//! rule must flag and one near-miss it must stay silent on. The
//! near-misses pin the refinements that keep the token-level scan
//! useful — predicate loops, guard-passing helpers, paired orderings,
//! `SAFETY:` comments, test-module exemptions — so a future "simplify
//! the rule" change that reintroduces false positives fails here first.

use np_analysis::{audit_sources, Baseline};

fn audit(files: &[(&str, &str)]) -> np_analysis::AuditReport {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_sources(&owned, &Baseline::empty())
}

fn rules_fired(report: &np_analysis::AuditReport) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = report.unsuppressed().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

fn rule_lines(report: &np_analysis::AuditReport) -> Vec<(&'static str, usize)> {
    report.unsuppressed().map(|f| (f.rule, f.line)).collect()
}

// ---------------------------------------------------------------- lock-order

#[test]
fn lock_order_flags_opposite_acquisition_orders() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn ab(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn ba(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "    drop(b);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["lock-order"],
        "{}",
        report.render()
    );
    let f = report.unsuppressed().next().unwrap();
    assert!(f.message.contains("s.alpha"), "{}", f.message);
    assert!(f.message.contains("s.beta"), "{}", f.message);
}

#[test]
fn lock_order_flags_a_cycle_through_a_callee() {
    // `ab` holds alpha and calls `lock_beta` (one hop); `ba` nests the
    // other way directly. The cycle only exists through the call edge.
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn ab(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    lock_beta(s);\n",
            "    drop(a);\n",
            "}\n",
            "fn lock_beta(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "}\n",
            "fn ba(s: &S) {\n",
            "    let b = s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "    drop(b);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["lock-order"],
        "{}",
        report.render()
    );
}

#[test]
fn lock_order_ignores_consistent_order_and_temporary_guards() {
    // Same order twice: no cycle. And a temporary (non-let-bound) guard
    // drops at the semicolon, so it cannot be held across the second
    // acquisition.
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn one(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn two(s: &S) {\n",
            "    let a = s.alpha.lock();\n",
            "    let b = s.beta.lock();\n",
            "    drop(b);\n",
            "    drop(a);\n",
            "}\n",
            "fn temporary(s: &S) {\n",
            "    s.beta.lock();\n",
            "    let a = s.alpha.lock();\n",
            "    drop(a);\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn lock_order_does_not_alias_same_field_across_crates() {
    // `self.inner` in two crates is two different mutexes; without
    // crate-qualified labels this would fabricate a cycle.
    let report = audit(&[
        (
            "crates/a/src/lib.rs",
            concat!(
                "fn f(s: &S) {\n",
                "    let a = s.inner.lock();\n",
                "    let b = s.outer.lock();\n",
                "    drop(b);\n",
                "    drop(a);\n",
                "}\n",
            ),
        ),
        (
            "crates/b/src/lib.rs",
            concat!(
                "fn g(s: &S) {\n",
                "    let b = s.outer.lock();\n",
                "    let a = s.inner.lock();\n",
                "    drop(a);\n",
                "    drop(b);\n",
                "}\n",
            ),
        ),
    ]);
    assert!(report.is_clean(), "{}", report.render());
}

// ------------------------------------------------------- condvar-discipline

#[test]
fn condvar_flags_bare_wait_outside_a_loop() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn wait_once(cv: &std::sync::Condvar, g: std::sync::MutexGuard<bool>) {\n",
            "    let _g = cv.wait(g);\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["condvar-discipline"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("predicate loop"));
}

#[test]
fn condvar_accepts_wait_in_a_predicate_loop_and_wait_while() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn wait_looped(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    while !*g {\n",
            "        g = cv.wait(g).unwrap_or_else(|p| p.into_inner());\n",
            "    }\n",
            "}\n",
            "fn wait_predicated(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    let _g = cv.wait_while(g, |ready| !*ready);\n",
            "}\n",
            "fn barrier_wait(b: &std::sync::Barrier) {\n",
            "    b.wait();\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn condvar_flags_notify_without_the_lock() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn poke(cv: &std::sync::Condvar) {\n",
            "    cv.notify_one();\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["condvar-discipline"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("miss the wakeup"));
}

#[test]
fn condvar_accepts_notify_under_the_lock_or_with_a_guard_parameter() {
    // Two proofs of acquisition: an explicit `.lock()` earlier in the
    // fn, or a `MutexGuard` parameter (the helper can only be called
    // with the lock held — the signature is the proof).
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn poke_locked(cv: &std::sync::Condvar, m: &std::sync::Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap_or_else(|p| p.into_inner());\n",
            "    *g = true;\n",
            "    drop(g);\n",
            "    cv.notify_one();\n",
            "}\n",
            "fn poke_guarded(cv: &std::sync::Condvar, _g: &std::sync::MutexGuard<bool>) {\n",
            "    cv.notify_all();\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// --------------------------------------------------------- atomics-ordering

#[test]
fn atomics_flags_relaxed_outside_telemetry() {
    let src = concat!(
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
        "fn bump(c: &AtomicU64) {\n",
        "    c.fetch_add(1, Ordering::Relaxed);\n",
        "}\n",
    );
    let report = audit(&[("crates/a/src/lib.rs", src)]);
    assert_eq!(
        rules_fired(&report),
        vec!["atomics-ordering"],
        "{}",
        report.render()
    );
    // The same line inside the telemetry facade is the sanctioned home
    // for Relaxed counters.
    let report = audit(&[("crates/telemetry/src/counter.rs", src)]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn atomics_flags_one_sided_acquire() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
            "fn check(flag: &AtomicBool) -> bool {\n",
            "    flag.load(Ordering::Acquire)\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["atomics-ordering"],
        "{}",
        report.render()
    );
    assert!(report
        .unsuppressed()
        .next()
        .unwrap()
        .message
        .contains("no Release store"));
}

#[test]
fn atomics_accepts_paired_or_stronger_orderings() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
            "fn check(flag: &AtomicBool) -> bool {\n",
            "    flag.load(Ordering::Acquire)\n",
            "}\n",
            "fn publish(flag: &AtomicBool) {\n",
            "    flag.store(true, Ordering::Release);\n",
            "}\n",
            "fn reset(other: &AtomicBool) {\n",
            "    other.store(false, Ordering::SeqCst);\n",
            "    other.load(Ordering::Acquire);\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// --------------------------------------------------------- hot-path-hygiene

#[test]
fn hot_path_flags_allocation_locking_and_io_in_marked_fns() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "// audit:hot — per-access inner loop\n",
            "fn hot_alloc(xs: &[u32]) -> Vec<u32> {\n",
            "    xs.iter().map(|x| x + 1).collect()\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_lock(m: &std::sync::Mutex<u64>) -> u64 {\n",
            "    *m.lock().unwrap_or_else(|p| p.into_inner())\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_io(x: u64) {\n",
            "    println!(\"{x}\");\n",
            "}\n",
        ),
    )]);
    let hot: Vec<_> = report
        .unsuppressed()
        .filter(|f| f.rule == "hot-path-hygiene")
        .collect();
    assert_eq!(hot.len(), 3, "{}", report.render());
    assert!(hot[0].message.contains("allocates"));
    assert!(hot[1].message.contains("locks/blocks"));
    assert!(hot[2].message.contains("does IO"));
}

#[test]
fn hot_path_ignores_unmarked_fns_and_clean_hot_fns() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn cold_alloc(xs: &[u32]) -> Vec<u32> {\n",
            "    xs.iter().map(|x| x + 1).collect()\n",
            "}\n",
            "// audit:hot\n",
            "fn hot_clean(a: u64, b: u64) -> u64 {\n",
            "    a.wrapping_mul(31).wrapping_add(b)\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
}

// ------------------------------------------------------------ unsafe-safety

#[test]
fn unsafe_without_safety_comment_is_flagged_and_inventoried() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn launder(x: u32) -> u32 {\n",
            "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
            "}\n",
        ),
    )]);
    assert_eq!(
        rules_fired(&report),
        vec!["unsafe-safety"],
        "{}",
        report.render()
    );
    assert_eq!(report.unsafe_sites.len(), 1);
    assert!(report.unsafe_sites[0].justification.is_none());
    assert!(report.inventory_markdown().contains("**MISSING**"));
}

#[test]
fn unsafe_with_safety_comment_passes_but_stays_in_the_inventory() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn launder(x: u32) -> u32 {\n",
            "    // SAFETY: u32 -> u32 is the identity transmute.\n",
            "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.unsafe_sites.len(),
        1,
        "justified sites still inventoried"
    );
    assert_eq!(
        report.unsafe_sites[0].justification.as_deref(),
        Some("u32 -> u32 is the identity transmute.")
    );
    assert!(!report.inventory_markdown().contains("MISSING"));
}

#[test]
fn unsafe_in_test_modules_is_exempt() {
    let report = audit(&[(
        "crates/a/src/lib.rs",
        concat!(
            "fn prod() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        unsafe { std::hint::unreachable_unchecked() }\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        report.unsafe_sites.is_empty(),
        "test unsafe stays out of the inventory"
    );
}

// ------------------------------------------------------- no-panic-reachable

#[test]
fn panic_reachable_flags_unwrap_behind_an_entry_point() {
    // `handle` lives in the serve crate (an entry prefix) and calls
    // `render` — unique across the workspace, so the edge resolves —
    // whose `.unwrap()` is one hop from live traffic.
    let report = audit(&[
        (
            "crates/serve/src/lib.rs",
            "pub fn handle(req: u32) -> String { render(req) }\n",
        ),
        (
            "crates/util/src/lib.rs",
            concat!(
                "pub fn render(req: u32) -> String {\n",
                "    checked(req).unwrap()\n",
                "}\n",
                "fn checked(req: u32) -> Option<String> {\n",
                "    Some(req.to_string())\n",
                "}\n",
            ),
        ),
    ]);
    let f = report
        .unsuppressed()
        .find(|f| f.rule == "no-panic-reachable")
        .unwrap_or_else(|| panic!("expected a finding:\n{}", report.render()));
    assert_eq!(f.path, "crates/util/src/lib.rs");
    assert!(
        f.message.contains("reachable in 1 call(s)"),
        "{}",
        f.message
    );
    assert!(f.message.contains("`handle`"), "{}", f.message);
}

#[test]
fn panic_reachable_flags_entry_files_themselves_but_not_uncalled_helpers() {
    let report = audit(&[
        (
            // Depth 0: a panic token inside an entry file is flagged
            // where it stands.
            "crates/serve/src/lib.rs",
            "pub fn handle(req: u32) -> u32 { req.checked_add(1).unwrap() }\n",
        ),
        (
            // Unreachable from any entry fn: nobody calls it.
            "crates/util/src/lib.rs",
            "pub fn orphan(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    assert_eq!(
        rule_lines(&report),
        vec![("no-panic-reachable", 1)],
        "{}",
        report.render()
    );
    let f = report.unsuppressed().next().unwrap();
    assert_eq!(f.path, "crates/serve/src/lib.rs");
    assert!(f.message.contains("entry `handle`"), "{}", f.message);
}

#[test]
fn panic_reachable_covers_every_entry_file_and_no_other_file() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for path in [
        "crates/core/src/memhist/probe.rs",
        "crates/resilience/src/io.rs",
        "crates/counters/src/acquisition.rs",
        "crates/counters/src/pebs.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/cache.rs",
    ] {
        let report = audit(&[(path, src)]);
        assert_eq!(
            rule_lines(&report),
            vec![("no-panic-reachable", 1)],
            "{path}: {}",
            report.render()
        );
    }
    // Near miss: the same fn outside the entry files is nobody's root.
    let report = audit(&[("crates/counters/src/catalog.rs", src)]);
    assert!(report.is_clean(), "{}", report.render());
}

// ------------------------------------------------------------ bounded-reads

const RAW_TCP_READ: &str = concat!(
    "use std::net::TcpStream;\n",
    "fn f(s: &mut TcpStream, buf: &mut [u8]) {\n",
    "    let _ = s.read(buf);\n",
    "}\n",
);

#[test]
fn bounded_reads_flags_raw_reads_in_files_touching_tcp() {
    for path in ["crates/core/src/session.rs", "crates/serve/src/client.rs"] {
        let report = audit(&[(path, RAW_TCP_READ)]);
        assert_eq!(
            rule_lines(&report),
            vec![("bounded-reads", 3)],
            "{path}: {}",
            report.render()
        );
    }
    let slurp = concat!(
        "use std::net::TcpStream;\n",
        "fn f(s: &mut TcpStream, out: &mut String) {\n",
        "    let _ = s.read_to_string(out);\n",
        "}\n",
    );
    let report = audit(&[("crates/core/src/session.rs", slurp)]);
    assert_eq!(rule_lines(&report), vec![("bounded-reads", 3)]);
}

#[test]
fn bounded_reads_exempts_the_bounded_reader_and_files_without_tcp() {
    // The bounded reader's own file defines the one sanctioned raw read.
    let report = audit(&[("crates/resilience/src/io.rs", RAW_TCP_READ)]);
    assert!(report.is_clean(), "{}", report.render());
    // A `.read(` in a file that never touches a socket is file or lock IO.
    let file_read = "fn f(r: &mut std::fs::File, buf: &mut [u8]) { let _ = r.read(buf); }\n";
    let report = audit(&[("crates/core/src/session.rs", file_read)]);
    assert!(report.is_clean(), "{}", report.render());
    // Going through the bounded reader is the fix.
    let bounded = concat!(
        "use std::net::TcpStream;\n",
        "fn f(s: &mut TcpStream) { let _ = np_resilience::io::read_line_bounded(s, 64); }\n",
    );
    let report = audit(&[("crates/serve/src/client.rs", bounded)]);
    assert!(report.is_clean(), "{}", report.render());
}

// -------------------------------------------------------- guarded-telemetry

const UNGUARDED_COUNTER: &str = concat!(
    "fn record() {\n",
    "    np_telemetry::global().counter(\"x\").add(1);\n",
    "}\n",
);
const UNGUARDED_SAMPLE: &str = concat!(
    "fn record(now: u64) {\n",
    "    np_telemetry::timeseries::sample(\"acq.reps\", now, 1);\n",
    "}\n",
);

#[test]
fn guarded_telemetry_flags_unguarded_metrics_and_sampling() {
    for (path, src) in [
        ("crates/core/src/runner.rs", UNGUARDED_COUNTER),
        ("crates/counters/src/acquisition.rs", UNGUARDED_SAMPLE),
        // The bench matrix harness runs hot measurement loops too.
        ("crates/bench/src/harness/runner.rs", UNGUARDED_SAMPLE),
        (
            "crates/patterns/src/verify.rs",
            "fn f() { np_telemetry::global().snapshot(); }\n",
        ),
    ] {
        let report = audit(&[(path, src)]);
        assert_eq!(
            rules_fired(&report),
            vec!["guarded-telemetry"],
            "{path}: {}",
            report.render()
        );
    }
}

#[test]
fn guarded_telemetry_accepts_a_guard_in_the_enclosing_fn() {
    let report = audit(&[(
        "crates/core/src/runner.rs",
        concat!(
            "fn record() {\n",
            "    if np_telemetry::enabled() {\n",
            "        np_telemetry::global().counter(\"x\").add(1);\n",
            "    }\n",
            "}\n",
            "fn sample(now: u64) {\n",
            "    if np_telemetry::sampling_enabled() {\n",
            "        np_telemetry::sample_cumulative(\"x\", now, 1);\n",
            "    }\n",
            "}\n",
        ),
    )]);
    assert!(report.is_clean(), "{}", report.render());
    // A guard in the *previous* fn does not cover the next one.
    let report = audit(&[(
        "crates/core/src/runner.rs",
        concat!(
            "fn guarded() -> bool {\n",
            "    np_telemetry::enabled()\n",
            "}\n",
            "fn record() {\n",
            "    np_telemetry::global().counter(\"x\").add(1);\n",
            "}\n",
        ),
    )]);
    assert_eq!(rule_lines(&report), vec![("guarded-telemetry", 5)]);
}

#[test]
fn guarded_telemetry_exempts_the_facade_and_the_sampler() {
    for (path, src) in [
        ("crates/telemetry/src/snapshot.rs", UNGUARDED_COUNTER),
        ("crates/telemetry/src/timeseries.rs", UNGUARDED_SAMPLE),
    ] {
        let report = audit(&[(path, src)]);
        assert!(report.is_clean(), "{path}: {}", report.render());
    }
}

// ------------------------------------------------------------ no-wall-clock

const INSTANT_NOW: &str = "fn f() { let _t = std::time::Instant::now(); }\n";

#[test]
fn no_wall_clock_flags_every_deterministic_scope() {
    for path in [
        "crates/numa-sim/src/engine.rs",
        "crates/resilience/src/fault.rs",
        "crates/parallel/src/pool.rs",
        "crates/parallel/src/queue.rs",
        "crates/telemetry/src/timeseries.rs",
        "src/cli/top.rs",
        "crates/bench/src/harness/runner.rs",
        "crates/bench/src/harness/schema.rs",
        "crates/patterns/src/classify.rs",
        "crates/patterns/src/verify.rs",
        "crates/patterns/src/metrics.rs",
    ] {
        let report = audit(&[(path, INSTANT_NOW)]);
        assert_eq!(
            rule_lines(&report),
            vec![("no-wall-clock", 1)],
            "{path}: {}",
            report.render()
        );
    }
    let system_time = "fn f() { let _t = std::time::SystemTime::now(); }\n";
    let report = audit(&[("crates/parallel/src/pool.rs", system_time)]);
    assert_eq!(rule_lines(&report), vec![("no-wall-clock", 1)]);
}

#[test]
fn no_wall_clock_allows_reporting_paths_and_test_trees() {
    // The rest of the CLI, the trace module (now_ns's home), the bench
    // crate outside harness/, the retry policy, and integration tests
    // outside src/ may all read a wall clock.
    for path in [
        "src/cli/commands.rs",
        "crates/telemetry/src/trace.rs",
        "crates/bench/src/lib.rs",
        "crates/resilience/src/retry.rs",
        "crates/patterns/tests/calibration.rs",
        "crates/parallel/tests/pool_stress.rs",
    ] {
        let report = audit(&[(path, INSTANT_NOW)]);
        assert!(report.is_clean(), "{path}: {}", report.render());
    }
}

// ------------------------------------------------------------ cross-cutting

/// Golden fixture: the line-local rules fire at pinned `(rule, line)`s
/// through the blanking lexer, so a lexer change that shifts how
/// comments, strings or test modules blank shows up as a diff here.
#[test]
fn golden_findings_are_pinned() {
    let serve_src = concat!(
        "use std::net::TcpStream;\n",                                     // 1
        "use std::sync::atomic::{AtomicU64, Ordering};\n",                // 2
        "pub fn handle(x: Option<u32>) -> u32 {\n",                       // 3
        "    x.unwrap()\n",                                               // 4: no-panic-reachable
        "}\n",                                                            // 5
        "pub fn slurp(s: &mut TcpStream, buf: &mut [u8]) {\n",            // 6
        "    let _ = s.read(buf);\n",                                     // 7: bounded-reads
        "}\n",                                                            // 8
        "pub fn bump(c: &AtomicU64) {\n",                                 // 9
        "    c.fetch_add(1, Ordering::Relaxed);\n",                       // 10: atomics-ordering
        "}\n",                                                            // 11
        "pub fn observe() {\n",                                           // 12
        "    np_telemetry::global().counter(\"x\").inc();\n",             // 13: guarded-telemetry
        "}\n",                                                            // 14
        "// Comments and strings stay blank: .unwrap() here is prose.\n", // 15
        "#[cfg(test)]\n",                                                 // 16
        "mod tests {\n",                                                  // 17
        "    #[test]\n",                                                  // 18
        "    fn t() { Some(1).unwrap(); }\n",                             // 19: exempt
        "}\n",                                                            // 20
    );
    let report = audit(&[("crates/serve/src/handler.rs", serve_src)]);
    assert_eq!(
        rule_lines(&report),
        vec![
            ("no-panic-reachable", 4),
            ("bounded-reads", 7),
            ("atomics-ordering", 10),
            ("guarded-telemetry", 13),
        ],
        "{}",
        report.render()
    );

    let pool_src = "pub fn tick() -> std::time::Instant { std::time::Instant::now() }\n";
    let report = audit(&[("crates/parallel/src/pool.rs", pool_src)]);
    assert_eq!(rule_lines(&report), vec![("no-wall-clock", 1)]);
}

#[test]
fn comments_strings_and_test_modules_are_blanked() {
    // Every token below sits in a comment, a (raw) string or a test
    // module of an entry file in every line-local rule's scope; only
    // line 10's real unwrap fires.
    let src = concat!(
        "// calling .unwrap() or Instant::now() here would be bad\n",
        "/* outer /* inner .unwrap() */ still comment .expect( */\n",
        "fn f() -> &'static str { \"never .unwrap() or Instant::now() in prose\" }\n",
        "fn g() -> String { String::from(r#\"panic! \"quoted\" .unwrap()\"#) }\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { Some(1).unwrap(); let _ = std::time::Instant::now(); }\n",
        "}\n",
        "fn h(x: Option<u8>) -> u8 { x.unwrap() }\n",
    );
    let report = audit(&[("crates/serve/src/clock.rs", src)]);
    assert_eq!(rule_lines(&report), vec![("no-panic-reachable", 10)]);
    let report = audit(&[("crates/parallel/src/pool.rs", src)]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn allow_marker_silences_one_rule_on_one_line() {
    let src = concat!(
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(no-panic-reachable): startup\n",
        "fn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
        "fn h(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(bounded-reads)\n",
    );
    let report = audit(&[("crates/counters/src/pebs.rs", src)]);
    assert_eq!(
        rule_lines(&report),
        vec![("no-panic-reachable", 2), ("no-panic-reachable", 3)],
        "{}",
        report.render()
    );
    let src = "fn f() { let _t = std::time::Instant::now(); } // audit:allow(no-wall-clock)\n";
    let report = audit(&[("crates/numa-sim/src/engine.rs", src)]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn findings_sort_deterministically_across_rules() {
    // One tree tripping three rules at once: output order is pinned to
    // (path, line, rule, message), so two runs render identically.
    let files = [
        (
            "crates/a/src/lib.rs",
            concat!(
                "use std::sync::atomic::{AtomicU64, Ordering};\n",
                "fn bump(c: &AtomicU64) {\n",
                "    c.fetch_add(1, Ordering::Relaxed);\n",
                "}\n",
                "fn launder(x: u32) -> u32 {\n",
                "    unsafe { std::mem::transmute::<u32, u32>(x) }\n",
                "}\n",
            ),
        ),
        (
            "crates/b/src/lib.rs",
            "fn poke(cv: &std::sync::Condvar) { cv.notify_one(); }\n",
        ),
    ];
    let a = audit(&files);
    let b = audit(&files);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.render(), b.render());
    let rules: Vec<_> = a.unsuppressed().map(|f| (f.path.clone(), f.rule)).collect();
    assert_eq!(
        rules,
        vec![
            ("crates/a/src/lib.rs".to_string(), "atomics-ordering"),
            ("crates/a/src/lib.rs".to_string(), "unsafe-safety"),
            ("crates/b/src/lib.rs".to_string(), "condvar-discipline"),
        ]
    );
}
