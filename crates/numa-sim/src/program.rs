//! Abstract programs: per-thread instruction streams over a shared address
//! space.
//!
//! Workload generators (`np-workloads`) compile the paper's benchmarks —
//! the row/column-major sums of Listings 1–2, the parallel sort of
//! Listing 3, the SIFT pyramid, `mlc`-style pointer chases — into these op
//! streams; the engine then executes them with full microarchitectural
//! accounting. Keeping programs as data (rather than callbacks into the
//! engine) is what makes every run exactly replayable, which the
//! measurement layer depends on: EvSel repeats *identically configured*
//! program runs to batch counter registers (§IV-A-1).

use crate::cache::TAG_BITS;
use crate::mem::{AddressSpace, AllocPolicy};
use crate::topology::{CoreId, Topology};

/// One simulated instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A load from `addr`. `dependent` loads serialise on the miss (pointer
    /// chase); independent loads overlap through the fill buffers.
    Load {
        /// Virtual byte address.
        addr: u64,
        /// True for address-dependent chains (e.g. `mlc` pointer chases).
        dependent: bool,
    },
    /// A store to `addr` (write-allocate, posted through the store buffer).
    Store {
        /// Virtual byte address.
        addr: u64,
    },
    /// `n` ALU instructions at one cycle each.
    Exec(u32),
    /// A conditional branch at static site `site` with outcome `taken`.
    Branch {
        /// Static branch identifier (hashes into the predictor table).
        site: u32,
        /// Actual direction.
        taken: bool,
    },
    /// Synchronises all threads of the program.
    Barrier(u32),
    /// Flushes this core's data TLB — the effect of a shootdown IPI, e.g.
    /// when a parallel runtime frees per-superstep temporary buffers.
    TlbFlush,
    /// Marks the start of source region `id` on this thread: subsequent
    /// events are attributed to it until the next label. This implements
    /// the §VI outlook item — "the mapping from events to lines of code …
    /// is important to developers when searching for performance
    /// bottlenecks" — at the granularity of workload-declared regions.
    Label(u32),
    /// Grows the runtime memory footprint (visible to procfs sampling) and
    /// pays the page-fault/zeroing cost.
    Reserve(u64),
    /// Shrinks the runtime memory footprint.
    Release(u64),
}

/// The instruction stream of one thread, pinned to a core.
#[derive(Debug, Clone)]
pub struct ThreadProgram {
    /// The core this thread is pinned to.
    pub core: CoreId,
    /// The ops, executed in order.
    pub ops: Vec<Op>,
}

/// A complete program: an address space plus one stream per thread.
#[derive(Debug, Clone)]
pub struct Program {
    /// The address space with region/page-policy layout.
    pub space: AddressSpace,
    /// Per-thread instruction streams. Core assignments must be unique.
    pub threads: Vec<ThreadProgram>,
}

/// Why a [`Program`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateError {
    /// The program has no threads.
    NoThreads,
    /// A thread is pinned to a core the topology does not have.
    CoreOutOfRange {
        /// Index of the offending thread.
        thread: usize,
        /// The core it asked for.
        core: CoreId,
        /// Cores the topology actually has.
        total_cores: usize,
    },
    /// Two threads are pinned to the same core.
    CorePinnedTwice {
        /// Index of the second thread claiming the core.
        thread: usize,
        /// The doubly-claimed core.
        core: CoreId,
    },
    /// A `Load`/`Store` addresses memory outside every allocated region.
    AddressOutOfRange {
        /// Index of the offending thread.
        thread: usize,
        /// Index of the offending op within the thread.
        op: usize,
        /// The unmapped address.
        addr: u64,
    },
    /// A region reaches past the caches' packed line tag: its last byte
    /// address is `1 << cache::TAG_BITS` or above.
    RegionBeyondTag {
        /// Index of the offending region, in allocation order.
        region: usize,
        /// The region's last byte address.
        last_addr: u64,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::NoThreads => write!(f, "program has no threads"),
            ValidateError::CoreOutOfRange {
                thread,
                core,
                total_cores,
            } => write!(
                f,
                "thread {thread}: core {core} out of range (machine has {total_cores} cores)"
            ),
            ValidateError::CorePinnedTwice { thread, core } => {
                write!(f, "thread {thread}: core {core} pinned twice")
            }
            ValidateError::AddressOutOfRange { thread, op, addr } => write!(
                f,
                "thread {thread}, op {op}: address {addr:#x} outside every allocated region"
            ),
            ValidateError::RegionBeyondTag { region, last_addr } => write!(
                f,
                "region {region}: last address {last_addr:#x} does not fit the {}-bit cache line tag",
                TAG_BITS
            ),
        }
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Total number of ops across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Validates core pinning (distinct, in range for `topology`), that
    /// every region's line addresses fit the caches' packed tag, and that
    /// every `Load`/`Store` targets an allocated region. This is the same
    /// front door the static analyzer (`np-analysis`) uses before it
    /// reasons about a program.
    pub fn validate(&self, topology: &Topology) -> Result<(), ValidateError> {
        if self.threads.is_empty() {
            return Err(ValidateError::NoThreads);
        }
        // A line address never exceeds its byte address, so a region whose
        // last byte fits the tag fits it at every line size.
        for (region, (base, bytes, _)) in self.space.regions().enumerate() {
            let last_addr = base.saturating_add(bytes - 1);
            if last_addr >> TAG_BITS != 0 {
                return Err(ValidateError::RegionBeyondTag { region, last_addr });
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (i, t) in self.threads.iter().enumerate() {
            if t.core >= topology.total_cores() {
                return Err(ValidateError::CoreOutOfRange {
                    thread: i,
                    core: t.core,
                    total_cores: topology.total_cores(),
                });
            }
            if !seen.insert(t.core) {
                return Err(ValidateError::CorePinnedTwice {
                    thread: i,
                    core: t.core,
                });
            }
            for (j, op) in t.ops.iter().enumerate() {
                let addr = match op {
                    Op::Load { addr, .. } | Op::Store { addr } => *addr,
                    _ => continue,
                };
                if !self.space.contains(addr) {
                    return Err(ValidateError::AddressOutOfRange {
                        thread: i,
                        op: j,
                        addr,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`Program`]s: allocate regions, then append ops per thread.
pub struct ProgramBuilder {
    space: AddressSpace,
    threads: Vec<ThreadProgram>,
}

impl ProgramBuilder {
    /// Starts a program for a machine with `topology` and `page_bytes`
    /// pages.
    pub fn new(topology: &Topology, page_bytes: u64) -> Self {
        ProgramBuilder {
            space: AddressSpace::new(topology, page_bytes),
            threads: Vec::new(),
        }
    }

    /// Reserves a region; see [`AddressSpace::alloc`].
    pub fn alloc(&mut self, bytes: u64, policy: AllocPolicy) -> u64 {
        self.space.alloc(bytes, policy)
    }

    /// Adds a thread pinned to `core`; returns its index for [`Self::ops`].
    pub fn add_thread(&mut self, core: CoreId) -> usize {
        self.threads.push(ThreadProgram {
            core,
            ops: Vec::new(),
        });
        self.threads.len() - 1
    }

    /// Mutable access to a thread's op stream.
    pub fn ops(&mut self, thread: usize) -> &mut Vec<Op> {
        &mut self.threads[thread].ops
    }

    /// Appends a load.
    pub fn load(&mut self, thread: usize, addr: u64) {
        self.threads[thread].ops.push(Op::Load {
            addr,
            dependent: false,
        });
    }

    /// Appends a dependent (serialising) load.
    pub fn load_dependent(&mut self, thread: usize, addr: u64) {
        self.threads[thread].ops.push(Op::Load {
            addr,
            dependent: true,
        });
    }

    /// Appends a store.
    pub fn store(&mut self, thread: usize, addr: u64) {
        self.threads[thread].ops.push(Op::Store { addr });
    }

    /// Appends `n` ALU instructions.
    pub fn exec(&mut self, thread: usize, n: u32) {
        self.threads[thread].ops.push(Op::Exec(n));
    }

    /// Appends a branch.
    pub fn branch(&mut self, thread: usize, site: u32, taken: bool) {
        self.threads[thread].ops.push(Op::Branch { site, taken });
    }

    /// Appends a barrier (one id per superstep).
    pub fn barrier(&mut self, thread: usize, id: u32) {
        self.threads[thread].ops.push(Op::Barrier(id));
    }

    /// Appends a TLB flush (shootdown delivery).
    pub fn tlb_flush(&mut self, thread: usize) {
        self.threads[thread].ops.push(Op::TlbFlush);
    }

    /// Marks the start of source region `id` on `thread`.
    pub fn label(&mut self, thread: usize, id: u32) {
        self.threads[thread].ops.push(Op::Label(id));
    }

    /// Appends a footprint reservation.
    pub fn reserve(&mut self, thread: usize, bytes: u64) {
        self.threads[thread].ops.push(Op::Reserve(bytes));
    }

    /// Appends a footprint release.
    pub fn release(&mut self, thread: usize, bytes: u64) {
        self.threads[thread].ops.push(Op::Release(bytes));
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program {
            space: self.space,
            threads: self.threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn topo() -> Topology {
        Topology::fully_interconnected(2, 4, 1 << 30)
    }

    #[test]
    fn builder_assembles_program() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(8192, AllocPolicy::FirstTouch);
        let t0 = b.add_thread(0);
        let t1 = b.add_thread(4);
        b.load(t0, buf);
        b.store(t0, buf + 64);
        b.exec(t0, 10);
        b.branch(t1, 7, true);
        b.barrier(t0, 1);
        b.barrier(t1, 1);
        b.reserve(t1, 4096);
        b.release(t1, 4096);
        let p = b.build();
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.total_ops(), 8);
        p.validate(&t).unwrap();
        assert_eq!(
            p.threads[0].ops[0],
            Op::Load {
                addr: buf,
                dependent: false
            }
        );
    }

    #[test]
    fn validate_rejects_duplicate_core() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(1);
        b.add_thread(1);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_core() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(99);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_empty_program() {
        let t = topo();
        let b = ProgramBuilder::new(&t, 4096);
        assert!(b.build().validate(&t).is_err());
    }

    #[test]
    fn validate_rejects_unmapped_address() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load(th, buf);
        b.store(th, buf + 4096); // one byte past the region
        let err = b.build().validate(&t).unwrap_err();
        assert_eq!(
            err,
            ValidateError::AddressOutOfRange {
                thread: 0,
                op: 1,
                addr: buf + 4096
            }
        );
        assert!(err.to_string().contains("outside every allocated region"));
    }

    #[test]
    fn validate_rejects_a_region_beyond_the_line_tag() {
        let t = topo();
        let top = 1u64 << TAG_BITS;
        // The space starts at one page, so this region ends one page short
        // of the tag limit and fits.
        let mut b = ProgramBuilder::new(&t, 4096);
        let buf = b.alloc(top - 2 * 4096, AllocPolicy::FirstTouch);
        let th = b.add_thread(0);
        b.load(th, buf);
        b.build().validate(&t).unwrap();

        // One page larger reaches the limit: its last line would need a
        // tag bit the packed way does not have.
        let mut b = ProgramBuilder::new(&t, 4096);
        b.alloc(4096, AllocPolicy::FirstTouch);
        let buf = b.alloc(top - 4096, AllocPolicy::FirstTouch);
        let th = b.add_thread(0);
        b.load(th, buf);
        let err = b.build().validate(&t).unwrap_err();
        assert_eq!(
            err,
            ValidateError::RegionBeyondTag {
                region: 1,
                last_addr: 4096 + top - 1,
            }
        );
        assert!(err.to_string().contains("cache line tag"), "{err}");
    }

    #[test]
    fn validate_errors_are_typed() {
        let t = topo();
        let b = ProgramBuilder::new(&t, 4096);
        assert_eq!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::NoThreads
        );

        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(99);
        assert!(matches!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::CoreOutOfRange {
                thread: 0,
                core: 99,
                ..
            }
        ));

        let mut b = ProgramBuilder::new(&t, 4096);
        b.add_thread(1);
        b.add_thread(1);
        assert!(matches!(
            b.build().validate(&t).unwrap_err(),
            ValidateError::CorePinnedTwice { thread: 1, core: 1 }
        ));
    }

    #[test]
    fn dependent_load_flag_preserved() {
        let t = topo();
        let mut b = ProgramBuilder::new(&t, 4096);
        let a = b.alloc(4096, AllocPolicy::Bind(0));
        let th = b.add_thread(0);
        b.load_dependent(th, a);
        let p = b.build();
        assert_eq!(
            p.threads[0].ops[0],
            Op::Load {
                addr: a,
                dependent: true
            }
        );
    }
}
