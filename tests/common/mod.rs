//! Helpers shared by the engine oracle suites.

/// Bounded sizes: the engine oracles run every registry workload several
/// times per preset, so each workload shrinks well below its
/// characteristic footprint. The oracles need the structures *exercised*
/// (L1/L2/L3 overflow, TLB thrash, directory traffic), not paper-scale
/// runtimes.
pub fn size_for(name: &str) -> Option<usize> {
    match name {
        "row-major" | "column-major" => Some(256),
        "sort" => Some(8 * 1024),
        "sift" | "sift-naive" => Some(512),
        "mlc-local" | "mlc-remote" => Some(1 << 20),
        "stream-local" | "stream-bound" | "stream-interleaved" => Some(16 * 1024),
        "matmul" => Some(48),
        "bfs" | "bfs-bound" | "bfs-interleaved" => Some(4 * 1024),
        "hashjoin-small" => Some(2 * 1024),
        "hashjoin-large" => Some(8 * 1024),
        "chase-small" => Some(1 << 20),
        "chase-large" => Some(2 << 20),
        "stencil-small" => Some(96),
        "stencil-large" => Some(128),
        "walk-small" => Some(4 * 1024),
        "walk-large" => Some(16 * 1024),
        _ => None,
    }
}
