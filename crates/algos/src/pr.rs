//! PageRank (paper §6.1): non-blocking, data-driven, push-based residual
//! algorithm (Whang et al., Euro-Par'15), prioritized by *descending*
//! residual.
//!
//! Every task unconditionally pushes its residual to all out-neighbors with
//! atomic adds — the behaviour behind the paper's §3.2 observation that PR
//! spends 32% of cycles in stores/atomics, and §3.3's finding that removing
//! x86 fences would speed PR up to 5x.

use std::sync::Arc;

use minnow_graph::{Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, Task, TaskCtx};

/// Damping factor.
pub const DAMPING: f64 = 0.85;

/// Maps a residual to an OBIM priority: larger residuals are more urgent
/// (smaller priority). Log-scale bucketing keeps the number of live OBIM
/// buckets small (~`-lg epsilon`), as in the scalable data-driven PageRank
/// the paper builds on (Whang et al., Euro-Par'15).
pub fn residual_priority(r: f64) -> u64 {
    if r >= 1.0 {
        0
    } else if r <= 0.0 {
        40
    } else {
        (-r.log2()).ceil().clamp(0.0, 40.0) as u64
    }
}

/// The push-based PageRank operator.
#[derive(Debug)]
pub struct PageRank {
    graph: Arc<Csr>,
    epsilon: f64,
    rank: Vec<f64>,
    residual: Vec<f64>,
}

impl PageRank {
    /// Creates the operator with convergence threshold `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon <= 0`.
    pub fn new(graph: Arc<Csr>, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let n = graph.nodes();
        PageRank {
            graph,
            epsilon,
            rank: vec![0.0; n],
            residual: vec![1.0; n],
        }
    }

    /// Final ranks.
    pub fn ranks(&self) -> &[f64] {
        &self.rank
    }

    /// Remaining residuals (all `< epsilon` after convergence).
    pub fn residuals(&self) -> &[f64] {
        &self.residual
    }

    /// Serial reference: the same push algorithm processed largest-residual
    /// first until convergence.
    pub fn reference(graph: &Csr, epsilon: f64) -> Vec<f64> {
        let n = graph.nodes();
        let mut rank = vec![0.0; n];
        let mut residual = vec![1.0f64; n];
        loop {
            let mut progressed = false;
            for v in 0..n {
                if residual[v] >= epsilon {
                    progressed = true;
                    let r = residual[v];
                    residual[v] = 0.0;
                    rank[v] += (1.0 - DAMPING) * r;
                    let deg = graph.out_degree(v as NodeId);
                    if deg > 0 {
                        let share = DAMPING * r / deg as f64;
                        for &u in graph.neighbors(v as NodeId) {
                            residual[u as usize] += share;
                        }
                    }
                }
            }
            if !progressed {
                return rank;
            }
        }
    }
}

impl Operator for PageRank {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn initial_tasks(&self) -> Vec<Task> {
        (0..self.graph.nodes() as NodeId)
            .map(|v| Task::new(residual_priority(1.0), v))
            .collect()
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Obim(6)
    }

    fn supports_splitting(&self) -> bool {
        // The residual claim is per-task; sub-range tasks would double-claim.
        false
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(16);
        ctx.add_branches(1);
        let r = self.residual[v as usize];
        if r < self.epsilon {
            return;
        }
        self.residual[v as usize] = 0.0;
        self.rank[v as usize] += (1.0 - DAMPING) * r;
        ctx.store_node(v);
        let graph = self.graph.clone();
        let deg = graph.out_degree(v);
        if deg == 0 {
            return;
        }
        let share = DAMPING * r / deg as f64;
        let base = graph.edge_range(v).start;
        for slot in 0..deg {
            let e = base + slot;
            let u = graph.edge_dst(e);
            ctx.load_edge(e, u);
            ctx.load_node(u);
            // Residual pushed unconditionally: atomic add per edge.
            ctx.atomic_node(u);
            ctx.add_instrs(9);
            let before = self.residual[u as usize];
            let after = before + share;
            self.residual[u as usize] = after;
            ctx.add_branches(1);
            if before < self.epsilon && after >= self.epsilon {
                ctx.push(Task::new(residual_priority(after), u));
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(v) = self.residual.iter().position(|&r| r >= self.epsilon) {
            return Err(format!("residual at node {v} not converged: {}", self.residual[v]));
        }
        let expect = PageRank::reference(&self.graph, self.epsilon);
        for (v, (&got, &want)) in self.rank.iter().zip(expect.iter()).enumerate() {
            // Float accumulation order differs; bound by epsilon-scaled slack.
            let slack = 200.0 * self.epsilon * (1.0 + want.abs());
            if (got - want).abs() > slack {
                return Err(format!("node {v}: rank {got} vs reference {want}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::powerlaw::{self, PowerLawConfig};
    use minnow_runtime::sim_exec::{run_software, ExecConfig};

    #[test]
    fn converges_and_matches_reference() {
        let g = Arc::new(powerlaw::generate(&PowerLawConfig::new(600, 4, 1.2), 4));
        let mut op = PageRank::new(g, 1e-4);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert!(!report.timed_out);
        op.check().unwrap();
    }

    #[test]
    fn hub_nodes_rank_higher() {
        // Star: all leaves point at the hub.
        let edges: Vec<(u32, u32)> = (1..20).map(|v| (v, 0)).collect();
        let g = Arc::new(Csr::from_edges(20, &edges, None));
        let mut op = PageRank::new(g, 1e-6);
        run_software(&mut op, PolicyKind::Obim(6), &ExecConfig::new(2));
        op.check().unwrap();
        let hub = op.ranks()[0];
        let leaf = op.ranks()[1];
        assert!(hub > 3.0 * leaf, "hub {hub} vs leaf {leaf}");
    }

    #[test]
    fn atomics_dominate_the_store_mix() {
        let g = Arc::new(powerlaw::generate(&PowerLawConfig::new(400, 6, 1.1), 5));
        let mut op = PageRank::new(g, 1e-3);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        // PR's fence share must be visible (paper Fig. 5: 32% store cycles).
        let fence = report.breakdown.fraction(report.breakdown.fence);
        assert!(fence > 0.05, "fence share {fence:.3}");
    }

    #[test]
    fn priority_is_monotone_descending_in_residual() {
        assert!(residual_priority(1.0) < residual_priority(0.1));
        assert!(residual_priority(0.1) < residual_priority(0.001));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_rejected() {
        let g = Arc::new(Csr::from_edges(1, &[], None));
        let _ = PageRank::new(g, 0.0);
    }
}
