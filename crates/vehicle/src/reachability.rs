//! Attack-range reachability analysis (paper Figure 4).
//!
//! Figure 4 of the paper colour-codes the ECUs of a reference passenger car by the
//! attack range that can plausibly reach them: green for long-range, blue for
//! short-range and red for physical access only.  This module reproduces that
//! classification from the topology graph:
//!
//! * an ECU is **directly** exposed to a range if it terminates an external
//!   interface of that range;
//! * an ECU is **transitively** exposed if a path exists from such an interface to
//!   the ECU through bus segments, where every domain crossing goes through a
//!   gateway ECU (the number of gateway hops is reported as the *depth* of the
//!   exposure).

use crate::attack_surface::{AttackRange, AttackVector};
use crate::topology::{NodeKind, VehicleTopology};
use petgraph::graph::NodeIndex;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// How an ECU can be reached from a given attack range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exposure {
    /// The attack range of the entry interface.
    pub range: AttackRange,
    /// The attack vector of the entry interface.
    pub vector: AttackVector,
    /// Number of gateway ECUs that must be traversed (0 = the interface terminates
    /// on the ECU itself or on an ECU sharing a bus segment with it).
    pub gateway_hops: usize,
    /// Whether the entry interface terminates directly on the target ECU.
    pub direct: bool,
}

/// The classification of a single ECU.
#[derive(Debug)]
pub struct EcuClassification {
    name: String,
    exposures: Vec<Exposure>,
}

impl EcuClassification {
    /// All exposures, sorted from the most remote range to the most local and by
    /// increasing gateway depth.
    #[must_use]
    pub fn exposures(&self) -> &[Exposure] {
        &self.exposures
    }

    /// Attack ranges whose entry interface terminates directly on this ECU.
    #[must_use]
    pub fn direct_ranges(&self) -> Vec<AttackRange> {
        let set: BTreeSet<_> = self
            .exposures
            .iter()
            .filter(|e| e.direct)
            .map(|e| e.range)
            .collect();
        set.into_iter().collect()
    }

    /// All attack ranges that can reach the ECU (directly or through gateways).
    #[must_use]
    pub fn reachable_ranges(&self) -> Vec<AttackRange> {
        let set: BTreeSet<_> = self.exposures.iter().map(|e| e.range).collect();
        set.into_iter().collect()
    }

    /// The "dominant" range used for the Figure 4 colour code: the most remote
    /// range that reaches the ECU with at most `max_hops` gateway traversals,
    /// falling back to the most remote reachable range.
    #[must_use]
    pub fn dominant_range(&self, max_hops: usize) -> Option<AttackRange> {
        self.exposures
            .iter()
            .filter(|e| e.gateway_hops <= max_hops)
            .map(|e| e.range)
            .min()
            .or_else(|| self.reachable_ranges().first().copied())
    }
}

/// Result of analysing a whole topology.
#[derive(Debug)]
pub struct ReachabilityAnalysis {
    classifications: BTreeMap<String, EcuClassification>,
}

impl ReachabilityAnalysis {
    /// Runs the analysis on a topology.
    #[must_use]
    pub fn analyze(topology: &VehicleTopology) -> Self {
        let graph = topology.graph();

        // Pre-compute, for every interface node, the BFS frontier over the graph.
        // Traversal rule: interfaces -> their ECU -> buses -> ECUs ... ; crossing
        // from a bus into an ECU and out to another bus is only allowed if that ECU
        // is a gateway, and each such crossing counts one gateway hop.
        let mut per_ecu: HashMap<String, Vec<Exposure>> = HashMap::new();

        for idx in graph.node_indices() {
            let NodeKind::Interface(iface) = &graph[idx] else {
                continue;
            };
            let reached = bfs_from_interface(topology, idx);
            for (ecu_name, hops, direct) in reached {
                per_ecu.entry(ecu_name).or_default().push(Exposure {
                    range: iface.range(),
                    vector: iface.vector(),
                    gateway_hops: hops,
                    direct,
                });
            }
        }

        let mut classifications = BTreeMap::new();
        for ecu in topology.ecus() {
            let mut exposures = per_ecu.remove(ecu.name()).unwrap_or_default();
            // Every ECU is always exposed to physical attack by definition: the
            // attacker can open the vehicle and manipulate the unit (the MATE
            // scenario the paper insists on).
            exposures.push(Exposure {
                range: AttackRange::Physical,
                vector: AttackVector::Physical,
                gateway_hops: 0,
                direct: true,
            });
            exposures.sort_by_key(|e| (e.range, e.gateway_hops, !e.direct));
            exposures.dedup();
            classifications.insert(
                ecu.name().to_string(),
                EcuClassification {
                    name: ecu.name().to_string(),
                    exposures,
                },
            );
        }

        Self { classifications }
    }

    /// Classification for a single ECU.
    #[must_use]
    pub fn classification_of(&self, ecu_name: &str) -> Option<&EcuClassification> {
        self.classifications.get(ecu_name)
    }

    /// ECUs grouped by their dominant range, mirroring the Figure 4 colour code.
    /// `max_hops` bounds how many gateways an attacker is assumed to traverse.
    #[must_use]
    pub fn grouped_by_dominant_range(&self, max_hops: usize) -> BTreeMap<AttackRange, Vec<String>> {
        let mut out: BTreeMap<AttackRange, Vec<String>> = BTreeMap::new();
        for c in self.classifications.values() {
            if let Some(range) = c.dominant_range(max_hops) {
                out.entry(range).or_default().push(c.name.clone());
            }
        }
        out
    }
}

/// BFS from an interface node.  Returns `(ecu_name, gateway_hops, direct)` tuples.
///
/// Semantics: the ECU terminating the interface is reached *directly* at depth 0;
/// every ECU sharing a bus segment with it is reached at depth 0 (a compromised
/// entry ECU can inject on its whole segment); continuing through any further ECU
/// onto another segment is only possible if that ECU is a gateway and costs one
/// gateway hop.
fn bfs_from_interface(topology: &VehicleTopology, start: NodeIndex) -> Vec<(String, usize, bool)> {
    let graph = topology.graph();
    let mut best: HashMap<NodeIndex, usize> = HashMap::new();
    let mut entry: Vec<NodeIndex> = Vec::new();
    let mut queue: VecDeque<NodeIndex> = VecDeque::new();

    for ecu_idx in graph.neighbors(start) {
        if matches!(&graph[ecu_idx], NodeKind::Ecu(_)) {
            best.insert(ecu_idx, 0);
            entry.push(ecu_idx);
            queue.push_back(ecu_idx);
        }
    }

    while let Some(node) = queue.pop_front() {
        let hops = best[&node];
        let NodeKind::Ecu(ecu) = &graph[node] else {
            continue;
        };
        let is_entry = entry.contains(&node);
        // Only the entry ECU and gateways forward traffic onto their segments.
        if !is_entry && !ecu.is_gateway() && ecu.buses().len() < 2 {
            continue;
        }
        // Crossing through a non-entry (gateway) ECU costs one hop.
        let next_hops = if is_entry { hops } else { hops + 1 };
        for bus_idx in graph.neighbors(node) {
            if !matches!(&graph[bus_idx], NodeKind::Bus(_)) {
                continue;
            }
            for peer_idx in graph.neighbors(bus_idx) {
                if peer_idx == node || !matches!(&graph[peer_idx], NodeKind::Ecu(_)) {
                    continue;
                }
                let better = match best.get(&peer_idx) {
                    Some(prev) => next_hops < *prev,
                    None => true,
                };
                if better {
                    best.insert(peer_idx, next_hops);
                    queue.push_back(peer_idx);
                }
            }
        }
    }

    best.into_iter()
        .map(|(idx, hops)| {
            let name = match &graph[idx] {
                NodeKind::Ecu(e) => e.name().to_string(),
                other => other.name(),
            };
            (name, hops, entry.contains(&idx))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack_surface::ExternalInterface;
    use crate::bus::Bus;
    use crate::domain::FunctionalDomain;
    use crate::ecu::Ecu;

    fn topology() -> VehicleTopology {
        VehicleTopology::builder("test-car")
            .bus(Bus::new("PT-CAN")) // high-speed CAN, powertrain
            .bus(Bus::new("INFO-CAN")) // CAN-FD, infotainment
            .ecu(
                Ecu::builder("TCU")
                    .domain(FunctionalDomain::Communication)
                    .on_bus("INFO-CAN")
                    .interface(ExternalInterface::Cellular)
                    .interface(ExternalInterface::Bluetooth)
                    .build(),
            )
            .ecu(
                Ecu::builder("GW")
                    .domain(FunctionalDomain::Communication)
                    .on_bus("INFO-CAN")
                    .on_bus("PT-CAN")
                    .gateway(true)
                    .build(),
            )
            .ecu(
                Ecu::builder("ECM")
                    .domain(FunctionalDomain::Powertrain)
                    .on_bus("PT-CAN")
                    .build(),
            )
            .ecu(
                Ecu::builder("OBD")
                    .full_name("OBD port node")
                    .domain(FunctionalDomain::Diagnostics)
                    .on_bus("PT-CAN")
                    .interface(ExternalInterface::ObdPort)
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn every_ecu_is_physically_exposed() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        for c in analysis.classifications.values() {
            assert!(
                c.reachable_ranges().contains(&AttackRange::Physical),
                "{} should always be physically reachable",
                c.name
            );
        }
    }

    #[test]
    fn tcu_is_long_range_exposed_directly() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        let tcu = analysis.classification_of("TCU").unwrap();
        assert!(tcu.direct_ranges().contains(&AttackRange::LongRange));
        assert!(tcu.direct_ranges().contains(&AttackRange::ShortRange));
    }

    #[test]
    fn ecm_reachable_from_long_range_only_through_gateway() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        let ecm = analysis.classification_of("ECM").unwrap();
        let long_range: Vec<_> = ecm
            .exposures()
            .iter()
            .filter(|e| e.range == AttackRange::LongRange)
            .collect();
        assert!(!long_range.is_empty(), "a path through GW exists");
        assert!(long_range.iter().all(|e| !e.direct));
        assert!(long_range.iter().all(|e| e.gateway_hops >= 1));
    }

    #[test]
    fn ecm_reachable_locally_via_obd_same_segment() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        let ecm = analysis.classification_of("ECM").unwrap();
        let local: Vec<_> = ecm
            .exposures()
            .iter()
            .filter(|e| e.vector == AttackVector::Local)
            .collect();
        assert!(
            !local.is_empty(),
            "OBD port shares the PT-CAN segment with the ECM"
        );
        assert_eq!(local[0].gateway_hops, 0);
    }

    #[test]
    fn dominant_range_with_zero_hops_keeps_ecm_physical_or_short() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        let ecm = analysis.classification_of("ECM").unwrap();
        // With no gateway traversal allowed, long range cannot reach the ECM.
        let dom = ecm.dominant_range(0).unwrap();
        assert_ne!(dom, AttackRange::LongRange);
        // Allowing one hop makes the long-range path through the gateway count.
        assert_eq!(ecm.dominant_range(1).unwrap(), AttackRange::LongRange);
    }

    #[test]
    fn grouping_covers_all_ecus() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        let grouped = analysis.grouped_by_dominant_range(1);
        let total: usize = grouped.values().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn unknown_ecu_classification_is_none() {
        let analysis = ReachabilityAnalysis::analyze(&topology());
        assert!(analysis.classification_of("NOPE").is_none());
    }

    #[test]
    fn physical_only_for_isolated_ecu() {
        let topo = VehicleTopology::builder("isolated")
            .bus(Bus::new("LOCAL-CAN")) // high-speed CAN, powertrain
            .ecu(
                Ecu::builder("ECM")
                    .on_bus("LOCAL-CAN")
                    .domain(FunctionalDomain::Powertrain)
                    .build(),
            )
            .build()
            .unwrap();
        let analysis = ReachabilityAnalysis::analyze(&topo);
        let ecm = analysis.classification_of("ECM").unwrap();
        assert_eq!(ecm.reachable_ranges(), vec![AttackRange::Physical]);
    }
}
