//! Vehicle network topology graph.
//!
//! The topology is an undirected graph whose nodes are ECUs, bus segments and
//! external interfaces, and whose edges are physical attachments:
//! `interface — ECU`, `ECU — bus`.  Gateways are ECUs attached to more than one
//! bus; they are the only way traffic crosses between segments, which is exactly
//! the structural property the reachability analysis of paper Figure 4 exploits.

use crate::attack_surface::ExternalInterface;
use crate::bus::Bus;
use crate::ecu::Ecu;
use crate::error::VehicleError;
use petgraph::graph::{NodeIndex, UnGraph};
use std::collections::HashMap;

/// The kind of node stored in the topology graph.
#[derive(Debug)]
pub enum NodeKind {
    /// An electronic control unit.
    Ecu(Ecu),
    /// A bus segment.
    Bus(Bus),
    /// An external interface (attached to exactly one ECU).
    Interface(ExternalInterface),
}

impl NodeKind {
    /// The unique name of this node within the topology.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            NodeKind::Ecu(e) => e.name().to_string(),
            NodeKind::Bus(b) => b.name().to_string(),
            NodeKind::Interface(i) => format!("IF:{}", i.label()),
        }
    }
}

/// A complete vehicle E/E topology.
#[derive(Debug)]
pub struct VehicleTopology {
    name: String,
    graph: UnGraph<NodeKind, ()>,
}

impl VehicleTopology {
    /// Starts building a topology with the given name.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> VehicleTopologyBuilder {
        VehicleTopologyBuilder::new(name)
    }

    /// The architecture name (e.g. `"passenger-car"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying undirected graph.
    #[must_use]
    pub fn graph(&self) -> &UnGraph<NodeKind, ()> {
        &self.graph
    }

    /// Number of ECUs in the topology.
    #[must_use]
    pub fn ecu_count(&self) -> usize {
        self.ecus().count()
    }

    /// Iterates over all ECUs.
    pub fn ecus(&self) -> impl Iterator<Item = &Ecu> {
        self.graph.node_weights().filter_map(|n| match n {
            NodeKind::Ecu(e) => Some(e),
            _ => None,
        })
    }
}

/// Builder for [`VehicleTopology`].
#[derive(Debug)]
pub struct VehicleTopologyBuilder {
    name: String,
    buses: Vec<Bus>,
    ecus: Vec<Ecu>,
}

impl VehicleTopologyBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            buses: Vec::new(),
            ecus: Vec::new(),
        }
    }

    /// Adds a bus segment.
    #[must_use]
    pub fn bus(mut self, bus: Bus) -> Self {
        self.buses.push(bus);
        self
    }

    /// Adds an ECU (its `on_bus` attachments must reference buses added to this
    /// builder before [`build`](Self::build) is called).
    #[must_use]
    pub fn ecu(mut self, ecu: Ecu) -> Self {
        self.ecus.push(ecu);
        self
    }

    /// Builds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`VehicleError::DuplicateNode`] if two buses or ECUs share a name,
    /// [`VehicleError::UnknownNode`] if an ECU references an undeclared bus and
    /// [`VehicleError::EmptyTopology`] if no ECU was added.
    pub fn build(self) -> Result<VehicleTopology, VehicleError> {
        if self.ecus.is_empty() {
            return Err(VehicleError::EmptyTopology);
        }
        let mut graph = UnGraph::new_undirected();
        let mut by_name: HashMap<String, NodeIndex> = HashMap::new();

        for bus in &self.buses {
            if by_name.contains_key(bus.name()) {
                return Err(VehicleError::DuplicateNode {
                    name: bus.name().to_string(),
                });
            }
            let idx = graph.add_node(NodeKind::Bus(bus.clone()));
            by_name.insert(bus.name().to_string(), idx);
        }

        for ecu in &self.ecus {
            if by_name.contains_key(ecu.name()) {
                return Err(VehicleError::DuplicateNode {
                    name: ecu.name().to_string(),
                });
            }
            let idx = graph.add_node(NodeKind::Ecu(ecu.clone()));
            by_name.insert(ecu.name().to_string(), idx);
        }

        // Attach ECUs to buses and interfaces to ECUs.
        for ecu in &self.ecus {
            let ecu_idx = by_name[ecu.name()];
            for bus_name in ecu.buses() {
                let bus_idx =
                    by_name
                        .get(bus_name)
                        .copied()
                        .ok_or_else(|| VehicleError::UnknownNode {
                            name: bus_name.clone(),
                        })?;
                graph.add_edge(ecu_idx, bus_idx, ());
            }
            for iface in ecu.interfaces() {
                let iface_idx = graph.add_node(NodeKind::Interface(*iface));
                graph.add_edge(iface_idx, ecu_idx, ());
            }
        }

        Ok(VehicleTopology {
            name: self.name,
            graph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::FunctionalDomain;

    /// Names of the graph neighbours of the named node, sorted.
    fn neighbours(topo: &VehicleTopology, name: &str) -> Vec<String> {
        let graph = topo.graph();
        let idx = graph
            .node_indices()
            .find(|i| graph[*i].name() == name)
            .expect("node present");
        let mut names: Vec<_> = graph.neighbors(idx).map(|n| graph[n].name()).collect();
        names.sort();
        names
    }

    fn tiny_topology() -> VehicleTopology {
        VehicleTopology::builder("tiny")
            .bus(Bus::new("PT-CAN")) // high-speed CAN, powertrain
            .bus(Bus::new("BACKBONE")) // automotive Ethernet, communication
            .ecu(
                Ecu::builder("ECM")
                    .domain(FunctionalDomain::Powertrain)
                    .on_bus("PT-CAN")
                    .build(),
            )
            .ecu(
                Ecu::builder("GW")
                    .domain(FunctionalDomain::Communication)
                    .on_bus("PT-CAN")
                    .on_bus("BACKBONE")
                    .gateway(true)
                    .build(),
            )
            .ecu(
                Ecu::builder("TCU")
                    .domain(FunctionalDomain::Communication)
                    .on_bus("BACKBONE")
                    .interface(ExternalInterface::Cellular)
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_counts_nodes() {
        let topo = tiny_topology();
        assert_eq!(topo.ecu_count(), 3);
        let graph = topo.graph();
        let buses = graph
            .node_weights()
            .filter(|n| matches!(n, NodeKind::Bus(_)))
            .count();
        let interfaces = graph
            .node_weights()
            .filter(|n| matches!(n, NodeKind::Interface(_)))
            .count();
        assert_eq!(buses, 2);
        assert_eq!(interfaces, 1);
    }

    #[test]
    fn ecus_on_bus_finds_attachments() {
        let topo = tiny_topology();
        assert_eq!(neighbours(&topo, "PT-CAN"), vec!["ECM", "GW"]);
    }

    #[test]
    fn interface_is_linked_to_its_ecu() {
        let topo = tiny_topology();
        assert_eq!(neighbours(&topo, "IF:Cellular"), vec!["TCU"]);
    }

    #[test]
    fn duplicate_ecu_rejected() {
        let err = VehicleTopology::builder("dup")
            .ecu(Ecu::builder("ECM").build())
            .ecu(Ecu::builder("ECM").build())
            .build()
            .unwrap_err();
        assert!(matches!(err, VehicleError::DuplicateNode { name } if name == "ECM"));
    }

    #[test]
    fn unknown_bus_rejected() {
        let err = VehicleTopology::builder("bad")
            .ecu(Ecu::builder("ECM").on_bus("MISSING").build())
            .build()
            .unwrap_err();
        assert!(matches!(err, VehicleError::UnknownNode { name } if name == "MISSING"));
    }

    #[test]
    fn empty_topology_rejected() {
        let err = VehicleTopology::builder("empty").build().unwrap_err();
        assert!(matches!(err, VehicleError::EmptyTopology));
    }
}
