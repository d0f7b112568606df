//! Breadth-first search (paper §6.1): push-based, prioritized by ascending
//! hop distance. Runs as both the *BFS* benchmark (uniform random input)
//! and *G500* (Graph500 RMAT input).

use std::sync::Arc;

use minnow_graph::{Csr, NodeId};
use minnow_runtime::{Operator, PolicyKind, Task, TaskCtx};

/// Unreached depth.
pub const UNREACHED: u64 = u64::MAX;

/// The push-based BFS operator.
#[derive(Debug)]
pub struct Bfs {
    graph: Arc<Csr>,
    source: NodeId,
    depth: Vec<u64>,
}

impl Bfs {
    /// Creates the operator for `graph` starting at `source`.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn new(graph: Arc<Csr>, source: NodeId) -> Self {
        assert!((source as usize) < graph.nodes(), "source out of range");
        let n = graph.nodes();
        Bfs {
            graph,
            source,
            depth: vec![UNREACHED; n],
        }
    }

    /// Final hop distances.
    pub fn depths(&self) -> &[u64] {
        &self.depth
    }
}

impl Operator for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn initial_tasks(&self) -> Vec<Task> {
        vec![Task::new(0, self.source)]
    }

    fn default_policy(&self) -> PolicyKind {
        PolicyKind::Obim(0)
    }

    fn execute(&mut self, task: Task, ctx: &mut TaskCtx) {
        let v = task.node;
        ctx.load_node(v);
        ctx.add_instrs(10);
        if self.depth[v as usize] < task.priority {
            ctx.add_branches(1);
            return; // stale: reached at a smaller depth already
        }
        if self.depth[v as usize] > task.priority {
            self.depth[v as usize] = task.priority;
            ctx.store_node(v);
        }
        let d = self.depth[v as usize];
        let graph = self.graph.clone();
        let base = graph.edge_range(v).start;
        for slot in task.resolve_range(graph.out_degree(v)) {
            let e = base + slot;
            let u = graph.edge_dst(e);
            ctx.load_edge(e, u);
            ctx.load_node(u);
            ctx.add_branches(1);
            ctx.add_instrs(8);
            if self.depth[u as usize] > d + 1 {
                self.depth[u as usize] = d + 1;
                ctx.atomic_node(u);
                ctx.push(Task::new(d + 1, u));
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        let (levels, _, _) = minnow_graph::stats::bfs_levels(&self.graph, self.source);
        for (v, &want) in levels.iter().enumerate() {
            let want = if want == usize::MAX {
                UNREACHED
            } else {
                want as u64
            };
            if self.depth[v] != want {
                return Err(format!("node {v}: got {}, want {want}", self.depth[v]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minnow_graph::gen::rmat::{self, RmatConfig};
    use minnow_graph::gen::uniform::{self, UniformConfig};
    use minnow_runtime::sim_exec::{run_software, ExecConfig};

    #[test]
    fn bfs_on_uniform_graph_is_exact() {
        let g = Arc::new(uniform::generate(&UniformConfig::new(1500, 4), 3));
        let mut op = Bfs::new(g, 0);
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &ExecConfig::new(4));
        assert!(!report.timed_out);
        op.check().unwrap();
    }

    #[test]
    fn g500_rmat_with_task_splitting_is_exact() {
        let g = Arc::new(rmat::generate(&RmatConfig::graph500(10, 16), 5));
        let mut op = Bfs::new(g, 0);
        let mut cfg = ExecConfig::new(4);
        cfg.split_threshold = Some(256); // force splitting of the hub
        let policy = op.default_policy();
        let report = run_software(&mut op, policy, &cfg);
        assert!(!report.timed_out);
        op.check().unwrap();
        // The hub's adjacency must have produced split tasks.
        let (hub, degree) = op.graph().max_degree();
        assert!(degree > 256, "hub {hub} degree {degree}");
        assert!(report.tasks as usize > op.graph().nodes() / 2);
    }

    #[test]
    fn lifo_order_still_converges() {
        let g = Arc::new(uniform::generate(&UniformConfig::new(600, 4), 9));
        let mut op = Bfs::new(g, 0);
        run_software(&mut op, PolicyKind::Lifo, &ExecConfig::new(2));
        op.check().unwrap();
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let g = Arc::new(Csr::from_edges(3, &[(1, 2)], None));
        let mut op = Bfs::new(g, 0);
        let report = run_software(&mut op, PolicyKind::Obim(0), &ExecConfig::new(1));
        assert_eq!(report.tasks, 1);
        assert_eq!(op.depths(), &[0, UNREACHED, UNREACHED]);
    }
}
