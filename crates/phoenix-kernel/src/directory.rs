//! Node-daemon lookup shared across actors.
//!
//! Every PPM agent routes job launches by the whole cluster's PPM pids,
//! and every GSD probes foreign watch daemons during regroup. Both read
//! the boot directory, which reaches each of them as the same `Shared`
//! payload. A [`NodeDirectory`] keeps that payload instead of copying it
//! into a per-actor map, so the lookup costs one directory per cluster
//! rather than one per actor; only the per-node updates an actor has
//! seen since are its own.

use phoenix_proto::{NodeServices, ServiceDirectory, Shared};
use phoenix_sim::NodeId;
use std::collections::BTreeMap;

/// Node daemons by node: the shared boot directory, overlaid with the
/// `DirectoryUpdateNode`s received after it. Last writer wins, as with a
/// plain map: an update supersedes the directory, and a later boot
/// supersedes every update for a node it lists.
#[derive(Default)]
pub struct NodeDirectory {
    boot: Shared<ServiceDirectory>,
    updates: BTreeMap<NodeId, NodeServices>,
}

impl NodeDirectory {
    /// Daemons of `node`: its newest update, else its boot entry.
    pub fn get(&self, node: NodeId) -> Option<NodeServices> {
        self.updates
            .get(&node)
            .or_else(|| self.boot.node(node))
            .copied()
    }

    /// Adopt a (re)boot directory. Nodes only the previous directory
    /// listed move to the overlay, so no entry learned earlier is lost.
    pub fn boot(&mut self, dir: Shared<ServiceDirectory>) {
        for ns in &self.boot.nodes {
            if dir.node(ns.node).is_none() {
                self.updates.entry(ns.node).or_insert(*ns);
            }
        }
        self.updates.retain(|&node, _| dir.node(node).is_none());
        self.boot = dir;
    }

    /// A node's daemons were (re)spawned.
    pub fn update(&mut self, services: NodeServices) {
        self.updates.insert(services.node, services);
    }
}
