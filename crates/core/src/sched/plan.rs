//! The planning pass: elementwise-chain fusion and stream assignment.

use std::collections::BTreeMap;

use fides_gpu_sim::{KernelDesc, KernelKind};

use super::graph::{ExecGraph, GraphOp};

/// Planner configuration, derived from
/// [`CkksParameters`](crate::CkksParameters).
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Fuse consecutive same-stream elementwise-class launches into single
    /// launches (the graph-level §III-F.5 fusion; `FusionConfig::elementwise`).
    pub fuse_elementwise: bool,
    /// Stream count the plan targets; recorded streams are remapped modulo
    /// this.
    pub num_streams: usize,
    /// Longest elementwise chain one fused launch may absorb (a real fused
    /// kernel is bounded by registers/occupancy; 8 matches the deepest
    /// chain FIDESlib fuses).
    pub max_fuse: usize,
    /// Scheduler v2: derive a dependency DAG (buffer read/write sets +
    /// barriers) and critical-path list-schedule it onto the stream count
    /// (see [`sched`](crate::sched) module docs). `false` restores the v1
    /// modulo stream remap (the A/B baseline `BENCH_PR5.json` gates
    /// against). Driven by
    /// [`CkksParameters::sched_v2`](crate::CkksParameters).
    pub dep_schedule: bool,
    /// First-order cost constants used to rank and place units, calibrated
    /// from the active [`DeviceSpec`](fides_gpu_sim::DeviceSpec) via
    /// [`CostModel::from_spec`](super::CostModel::from_spec) (the default
    /// keeps the historical hard-coded figures for device-free callers).
    pub cost: super::CostModel,
    /// Device shards of the server the plan belongs to. It feeds only the
    /// fingerprint, so a cached plan never rebinds across a change in
    /// device count.
    pub devices: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            fuse_elementwise: true,
            num_streams: crate::context::NUM_STREAMS,
            max_fuse: 8,
            dep_schedule: true,
            cost: super::CostModel::default(),
            devices: 1,
        }
    }
}

/// Counters describing what planning did; accumulated per context into the
/// scheduling ledger the ablation benchmarks report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// Scheduled regions planned.
    pub graphs: u64,
    /// Kernel nodes recorded by the ops.
    pub recorded_kernels: u64,
    /// Launches the plans actually issued (recorded − fused away).
    pub planned_launches: u64,
    /// Kernel launches eliminated by elementwise-chain fusion.
    pub fused_kernels: u64,
    /// Scheduled regions whose plan was served from the plan cache.
    pub plan_cache_hits: u64,
    /// Scheduled regions that ran the full planning pass.
    pub plan_cache_misses: u64,
}

impl SchedStats {
    /// Adds one plan's counters.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.graphs += other.graphs;
        self.recorded_kernels += other.recorded_kernels;
        self.planned_launches += other.planned_launches;
        self.fused_kernels += other.fused_kernels;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_cache_misses += other.plan_cache_misses;
    }
}

/// One planned step.
#[derive(Clone, Debug)]
pub enum PlanStep {
    /// Launch `desc` on `stream`.
    Launch {
        /// Target stream (already remapped to the plan's stream count).
        stream: usize,
        /// Possibly-fused descriptor.
        desc: KernelDesc,
    },
    /// Apply an event fence.
    Fence {
        /// Streams waited upon.
        signals: Vec<usize>,
        /// Streams that wait.
        waiters: Vec<usize>,
    },
}

/// The scheduled form of an [`ExecGraph`]: launches (possibly fused) plus
/// fences, ready for a [`PlanExecutor`](super::PlanExecutor).
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    pub(crate) steps: Vec<PlanStep>,
    pub(crate) stats: SchedStats,
    pub(crate) mem: super::mem::MemPlan,
    /// Buffer → liveness-pool slot binding (empty without the pooling
    /// pass); lets the replay executor alias slot-sharing buffers in the
    /// device's L2 residency model.
    pub(crate) slots: std::collections::HashMap<fides_gpu_sim::BufferId, u64>,
}

impl ExecPlan {
    /// Counters for this plan.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// The memory plan the liveness pass derived (slot-pooled footprint
    /// with scheduler v2, raw per-buffer footprint without).
    pub fn mem(&self) -> &super::mem::MemPlan {
        &self.mem
    }

    /// The buffer → pool-slot binding the liveness pass colored (empty
    /// when the plan was produced without pooling, i.e. scheduler v1).
    pub fn slot_binding(&self) -> &std::collections::HashMap<fides_gpu_sim::BufferId, u64> {
        &self.slots
    }

    /// Number of kernel launches the plan issues.
    pub fn launch_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Launch { .. }))
            .count()
    }

    /// The planned steps in issue order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }
}

/// The scheduling/fusion pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner {
    cfg: PlanConfig,
}

/// An elementwise chain being grown on one stream.
struct Pending {
    desc: KernelDesc,
    chain_len: usize,
    /// Segment the chain belongs to — fusion across segments would cross a
    /// recorded cross-limb sync point.
    segment: usize,
}

impl Planner {
    /// Creates a planner with the given configuration.
    pub fn new(cfg: PlanConfig) -> Self {
        Self { cfg }
    }

    /// Plans a recorded graph.
    ///
    /// With [`PlanConfig::dep_schedule`] set (scheduler v2, the default)
    /// this derives a dependency DAG and critical-path list-schedules it —
    /// see `sched/dag.rs`'s module docs. Otherwise the v1 pass
    /// runs: streams remap modulo the configured count, elementwise chains
    /// fuse (when enabled), and every barrier is preserved. Either way the
    /// liveness pass then derives the plan's memory footprint
    /// ([`ExecPlan::mem`]).
    ///
    /// Per-*recorded*-stream program order is preserved exactly; only
    /// launches on *different* recorded streams may be reordered relative
    /// to each other, and only when no recorded barrier separates work
    /// that touches the same buffers (see the invariant in the
    /// [`sched`](crate::sched) module docs). Op totals are invariant;
    /// traffic *shrinks* where a chain re-touches its own buffers — values
    /// stay in registers across the fused stages (the actual bandwidth
    /// saving of §III-F.5), so the intermediate write→read roundtrips
    /// disappear.
    pub fn plan(&self, graph: &ExecGraph) -> ExecPlan {
        let mut plan = if self.cfg.dep_schedule {
            super::dag::plan_dag(graph, &self.cfg)
        } else {
            self.plan_modulo(graph)
        };
        let (mem, slots) = super::mem::analyze(&plan.steps, self.cfg.dep_schedule);
        plan.mem = mem;
        plan.slots = slots;
        plan
    }

    /// The v1 planning pass: modulo stream remap + in-order chain fusion.
    fn plan_modulo(&self, graph: &ExecGraph) -> ExecPlan {
        let streams = self.cfg.num_streams.max(1);
        let mut steps = Vec::with_capacity(graph.ops.len());
        // Chain being grown per stream (BTreeMap: deterministic flush order).
        let mut pending: BTreeMap<usize, Pending> = BTreeMap::new();
        let mut recorded = 0u64;
        let mut fused = 0u64;

        let flush =
            |pending: &mut BTreeMap<usize, Pending>, steps: &mut Vec<PlanStep>, stream: usize| {
                if let Some(p) = pending.remove(&stream) {
                    steps.push(PlanStep::Launch {
                        stream,
                        desc: p.desc,
                    });
                }
            };

        for op in &graph.ops {
            match op {
                GraphOp::Kernel(node) => {
                    recorded += 1;
                    let stream = node.stream % streams;
                    if self.cfg.fuse_elementwise && node.is_fusible() {
                        if let Some(p) = pending.get_mut(&stream) {
                            // Barriers flush every chain, so a surviving
                            // chain is always in the current segment.
                            debug_assert_eq!(
                                p.segment, node.segment,
                                "pending chain crossed a barrier"
                            );
                            if p.chain_len < self.cfg.max_fuse {
                                merge(&mut p.desc, &node.desc);
                                p.chain_len += 1;
                                fused += 1;
                                continue;
                            }
                            flush(&mut pending, &mut steps, stream);
                        }
                        pending.insert(
                            stream,
                            Pending {
                                desc: node.desc.clone(),
                                chain_len: 1,
                                segment: node.segment,
                            },
                        );
                    } else {
                        flush(&mut pending, &mut steps, stream);
                        steps.push(PlanStep::Launch {
                            stream,
                            desc: node.desc.clone(),
                        });
                    }
                }
                GraphOp::Barrier { signals, waiters } => {
                    // A barrier orders every stream: flush all chains first.
                    let open: Vec<usize> = pending.keys().copied().collect();
                    for s in open {
                        flush(&mut pending, &mut steps, s);
                    }
                    steps.push(PlanStep::Fence {
                        signals: remap_streams(signals, streams),
                        waiters: remap_streams(waiters, streams),
                    });
                }
            }
        }
        let open: Vec<usize> = pending.keys().copied().collect();
        for s in open {
            flush(&mut pending, &mut steps, s);
        }

        let planned = steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Launch { .. }))
            .count() as u64;
        ExecPlan {
            steps,
            stats: SchedStats {
                graphs: 1,
                recorded_kernels: recorded,
                planned_launches: planned,
                fused_kernels: fused,
                ..SchedStats::default()
            },
            mem: Default::default(),
            slots: Default::default(),
        }
    }
}

/// Merges a follower launch into a chain head: compute accumulates, the
/// conservative access efficiency wins, mixed kinds degrade to the generic
/// elementwise label — and traffic dedups. A buffer the chain has already
/// written is live in registers when the follower reads it, and a buffer
/// written twice is stored once at the end, so the intermediate roundtrips
/// are elided. This is the bandwidth saving that makes elementwise fusion
/// profitable on a memory-bound device. (Shared with the v2 scheduler's
/// pre-fusion and emission-fusion stages.)
pub(crate) fn merge(into: &mut KernelDesc, next: &KernelDesc) {
    for &(buf, bytes) in &next.reads {
        let written = into.writes.iter().any(|&(b, _)| b == buf);
        let read = into.reads.iter().any(|&(b, _)| b == buf);
        if !written && !read {
            into.reads.push((buf, bytes));
        }
    }
    for &(buf, bytes) in &next.writes {
        if !into.writes.iter().any(|&(b, _)| b == buf) {
            into.writes.push((buf, bytes));
        }
    }
    into.int32_ops += next.int32_ops;
    if next.access_efficiency < into.access_efficiency {
        into.access_efficiency = next.access_efficiency;
    }
    if into.kind != next.kind {
        into.kind = Some(KernelKind::Elementwise);
    }
}

fn remap_streams(streams: &[usize], n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = streams.iter().map(|s| s % n).collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fides_gpu_sim::{BufferId, GraphEvent};

    fn ew(stream: usize, buf: u64, ops: u64) -> GraphEvent {
        GraphEvent::Launch {
            stream,
            desc: KernelDesc::new(KernelKind::Elementwise)
                .read(BufferId(buf), 1024)
                .write(BufferId(buf), 1024)
                .ops(ops),
        }
    }

    fn ntt(stream: usize) -> GraphEvent {
        GraphEvent::Launch {
            stream,
            desc: KernelDesc::new(KernelKind::NttPhase1).ops(10),
        }
    }

    // The tests below pin the v1 (modulo-remap) pass; scheduler v2 has its
    // own suite in `dag.rs`.
    fn planner(fuse: bool) -> Planner {
        Planner::new(PlanConfig {
            fuse_elementwise: fuse,
            num_streams: 4,
            max_fuse: 8,
            dep_schedule: false,
            ..PlanConfig::default()
        })
    }

    #[test]
    fn fuses_same_stream_elementwise_chains() {
        let g = ExecGraph::from_events(vec![ew(0, 1, 5), ew(0, 2, 7), ew(1, 3, 11)]);
        let plan = planner(true).plan(&g);
        assert_eq!(plan.launch_count(), 2, "stream-0 chain fused");
        assert_eq!(plan.stats().recorded_kernels, 3);
        assert_eq!(plan.stats().fused_kernels, 1);
        // Byte/op totals preserved in the fused launch.
        let fused_desc = plan
            .steps()
            .iter()
            .find_map(|s| match s {
                PlanStep::Launch { stream: 0, desc } => Some(desc),
                _ => None,
            })
            .expect("stream-0 launch");
        assert_eq!(fused_desc.int32_ops, 12);
        assert_eq!(fused_desc.bytes_read(), 2048);
    }

    #[test]
    fn fusion_off_replays_verbatim() {
        let g = ExecGraph::from_events(vec![ew(0, 1, 5), ew(0, 2, 7), ntt(0), ew(0, 3, 1)]);
        let plan = planner(false).plan(&g);
        assert_eq!(plan.launch_count(), 4);
        assert_eq!(plan.stats().fused_kernels, 0);
    }

    #[test]
    fn barriers_break_chains() {
        let g = ExecGraph::from_events(vec![
            ew(0, 1, 5),
            GraphEvent::Fence {
                signals: vec![0],
                waiters: vec![0],
            },
            ew(0, 2, 5),
        ]);
        let plan = planner(true).plan(&g);
        assert_eq!(plan.launch_count(), 2, "no fusion across a barrier");
        assert!(matches!(plan.steps()[1], PlanStep::Fence { .. }));
    }

    #[test]
    fn non_fusible_kinds_break_chains() {
        let g = ExecGraph::from_events(vec![ew(0, 1, 5), ntt(0), ew(0, 2, 5)]);
        let plan = planner(true).plan(&g);
        assert_eq!(plan.launch_count(), 3);
    }

    #[test]
    fn streams_remap_modulo_configured_count() {
        let g = ExecGraph::from_events(vec![ntt(9), ntt(2)]);
        let plan = planner(true).plan(&g);
        let streams: Vec<usize> = plan
            .steps()
            .iter()
            .filter_map(|s| match s {
                PlanStep::Launch { stream, .. } => Some(*stream),
                _ => None,
            })
            .collect();
        assert_eq!(streams, vec![1, 2], "stream 9 remaps to 9 % 4 = 1");
    }

    #[test]
    fn max_fuse_caps_chain_length() {
        let events: Vec<GraphEvent> = (0..10).map(|i| ew(0, i, 1)).collect();
        let plan = Planner::new(PlanConfig {
            fuse_elementwise: true,
            num_streams: 4,
            max_fuse: 4,
            dep_schedule: false,
            ..PlanConfig::default()
        })
        .plan(&ExecGraph::from_events(events));
        assert_eq!(plan.launch_count(), 3, "10 kernels at cap 4 → 4+4+2");
    }
}
