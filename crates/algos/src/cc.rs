//! Connected components via minimum-label propagation (paper §6.1,
//! Nguyen et al. SOSP'13). Every node starts labeled with its own id; tasks
//! propagate a node's label to neighbors with larger labels, prioritized by
//! ascending component id.
//!
//! Tasks are tiny (a handful of instructions per edge), which is why CC is
//! the paper's most worklist-bottlenecked benchmark — 92% of cycles at 64
//! threads (Fig. 5), negative scaling past 16 threads (Fig. 15).

use std::sync::Arc;

use minnow_graph::{Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, Task, TaskCtx};

/// The CC operator.
#[derive(Debug)]
pub struct Cc {
    graph: Arc<Csr>,
    label: Vec<u32>,
}

impl Cc {
    /// Creates the operator (labels initialized to node ids).
    pub fn new(graph: Arc<Csr>) -> Self {
        let n = graph.nodes();
        Cc {
            graph,
            label: (0..n as u32).collect(),
        }
    }

    /// Final labels (the minimum node id of each component).
    pub fn labels(&self) -> &[u32] {
        &self.label
    }
}

impl Operator for Cc {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn initial_tasks(&self) -> Vec<Task> {
        (0..self.graph.nodes() as NodeId)
            .map(|v| Task::new(v as u64, v))
            .collect()
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Obim(4)
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(6);
        let l = self.label[v as usize];
        if (l as u64) < task.priority {
            ctx.add_branches(1);
            return; // a smaller label already propagated through v
        }
        let graph = self.graph.clone();
        let base = graph.edge_range(v).start;
        for slot in task.resolve_range(graph.out_degree(v)) {
            let e = base + slot;
            let u = graph.edge_dst(e);
            ctx.load_edge(e, u);
            ctx.load_node(u);
            ctx.add_branches(1);
            ctx.add_instrs(5);
            if l < self.label[u as usize] {
                self.label[u as usize] = l;
                ctx.atomic_node(u);
                ctx.push(Task::new(l as u64, u));
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        // Labels must be the component-minimum node id, per union-find.
        let mut dsu = minnow_graph::dsu::Dsu::new(self.graph.nodes());
        for v in 0..self.graph.nodes() as NodeId {
            for &u in self.graph.neighbors(v) {
                dsu.union(v, u);
            }
        }
        let mut min_of_root = std::collections::HashMap::new();
        for v in 0..self.graph.nodes() as u32 {
            let r = dsu.find(v);
            let e = min_of_root.entry(r).or_insert(v);
            *e = (*e).min(v);
        }
        for v in 0..self.graph.nodes() as u32 {
            let want = min_of_root[&dsu.find(v)];
            if self.label[v as usize] != want {
                return Err(format!(
                    "node {v}: label {}, want {want}",
                    self.label[v as usize]
                ));
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
    fn labels_converge_to_component_minima() {
        let g = Arc::new(powerlaw::generate(&PowerLawConfig::new(1200, 6, 1.1), 2));
        let mut op = Cc::new(g);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert!(!report.timed_out);
        op.check().unwrap();
    }

    #[test]
    fn multiple_components_keep_distinct_labels() {
        // Two triangles.
        let g = Arc::new(Csr::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
            None,
        ))
        .symmetrize();
        let g = Arc::new(g);
        let mut op = Cc::new(g);
        run_software(&mut op, PolicyKind::Obim(0), &ExecConfig::new(2));
        op.check().unwrap();
        assert_eq!(op.labels()[..3], [0, 0, 0]);
        assert_eq!(op.labels()[3..], [3, 3, 3]);
    }

    #[test]
    fn isolated_nodes_keep_their_ids() {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 0)], None));
        let mut op = Cc::new(g);
        run_software(&mut op, PolicyKind::Fifo, &ExecConfig::new(1));
        op.check().unwrap();
        assert_eq!(op.labels(), &[0, 0, 2, 3]);
    }

    #[test]
    fn cc_is_worklist_heavy() {
        // Tiny tasks: the worklist share of cycles must dominate memory at
        // moderate thread counts, echoing Fig. 5.
        let g = Arc::new(powerlaw::generate(&PowerLawConfig::new(1500, 5, 1.0), 8));
        let mut op = Cc::new(g);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(8));
        let wl = report.breakdown.fraction(report.breakdown.worklist);
        assert!(wl > 0.3, "CC worklist share {wl:.2} should be large");
    }
}
