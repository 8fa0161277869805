//! The standards-contribution graph of paper Figure 1.
//!
//! Figure 1 of the paper lists the standards that contributed to ISO/SAE-21434 and
//! classifies each relationship as *strong* or *medium*.  The graph is useful for
//! gap analyses ("which upstream standard drives this clause?") and is reproduced by
//! the `fig1` experiment of the bench harness.

use petgraph::graph::{DiGraph, NodeIndex};
use std::fmt;

/// Strength of a contribution relationship between two standards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelationshipStrength {
    /// A medium relationship (dashed edge in the paper's figure).
    Medium,
    /// A strong relationship (solid edge in the paper's figure).
    Strong,
}

impl fmt::Display for RelationshipStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationshipStrength::Medium => f.write_str("Medium"),
            RelationshipStrength::Strong => f.write_str("Strong"),
        }
    }
}

/// A standard referenced by the graph.
#[derive(Debug)]
pub struct Standard {
    /// The designation, e.g. `"ISO 26262:2018"`.
    pub designation: String,
    /// Whether the standard is automotive-specific (the paper notes that many
    /// contributors are generic IT-security standards, which is the root of the
    /// static-weight problem it criticises).
    pub automotive_specific: bool,
}

impl Standard {
    /// Creates a new standard descriptor.
    #[must_use]
    pub fn new(designation: impl Into<String>, automotive_specific: bool) -> Self {
        Self {
            designation: designation.into(),
            automotive_specific,
        }
    }
}

/// The standards-contribution graph: edges point from a contributing standard to
/// ISO/SAE-21434 (or to another intermediate standard).
#[derive(Debug)]
pub struct StandardsGraph {
    graph: DiGraph<Standard, RelationshipStrength>,
    target: NodeIndex,
}

impl StandardsGraph {
    /// Builds the graph exactly as drawn in paper Figure 1.
    #[must_use]
    pub fn paper_figure_1() -> Self {
        let mut builder = Self::builder("ISO/SAE 21434:2021");
        // Strong relationships.
        for name in [
            "SAE J3061",
            "ISO 26262:2018",
            "ISO/IEC 18045",
            "ISO/IEC 27000:2018",
            "ISO 9001",
            "IATF 16949",
            "ISO/IEC/IEEE 15288",
            "ISO/IEC 33001",
            "IEC 62443",
        ] {
            builder = builder.contributor(name, is_automotive(name), RelationshipStrength::Strong);
        }
        // Medium relationships.
        for name in [
            "ISO 10007",
            "MISRA C 2012",
            "ISO/IEC 27001",
            "ASPICE",
            "SEI CERT C",
            "ISO 9000:2015",
            "ISO/TR 4804",
            "ISO/IEC/IEEE 12207",
            "ISO 29147",
            "ISO/IEC/IEEE 26511",
            "IEC 31010",
            "IEC 61508-7",
        ] {
            builder = builder.contributor(name, is_automotive(name), RelationshipStrength::Medium);
        }
        builder.build()
    }

    /// Starts building a custom graph whose target standard has the given name.
    #[must_use]
    pub fn builder(target: impl Into<String>) -> StandardsGraphBuilder {
        StandardsGraphBuilder {
            target: Standard::new(target, true),
            contributors: Vec::new(),
        }
    }

    /// The target standard (ISO/SAE-21434 in the paper).
    #[must_use]
    pub fn target(&self) -> &Standard {
        &self.graph[self.target]
    }

    /// Number of contributing standards.
    #[must_use]
    pub fn contributor_count(&self) -> usize {
        self.graph.node_count() - 1
    }

    /// Contributors with the given relationship strength, sorted by designation.
    #[must_use]
    pub fn contributors_with(&self, strength: RelationshipStrength) -> Vec<&Standard> {
        let mut out: Vec<&Standard> = self
            .graph
            .edge_indices()
            .filter(|e| self.graph[*e] == strength)
            .filter_map(|e| self.graph.edge_endpoints(e))
            .map(|(src, _)| &self.graph[src])
            .collect();
        out.sort_by(|a, b| a.designation.cmp(&b.designation));
        out
    }

    /// Fraction of contributors that are *not* automotive-specific — the paper's
    /// quantitative point that ISO/SAE-21434 inherits an enterprise-IT bias.
    #[must_use]
    pub fn non_automotive_fraction(&self) -> f64 {
        let contributors: Vec<_> = self
            .graph
            .node_indices()
            .filter(|i| *i != self.target)
            .collect();
        if contributors.is_empty() {
            return 0.0;
        }
        let non_auto = contributors
            .iter()
            .filter(|i| !self.graph[**i].automotive_specific)
            .count();
        non_auto as f64 / contributors.len() as f64
    }
}

fn is_automotive(name: &str) -> bool {
    matches!(
        name,
        "SAE J3061" | "ISO 26262:2018" | "IATF 16949" | "ASPICE" | "MISRA C 2012" | "ISO/TR 4804"
    )
}

/// Builder for [`StandardsGraph`].
#[derive(Debug)]
pub struct StandardsGraphBuilder {
    target: Standard,
    contributors: Vec<(Standard, RelationshipStrength)>,
}

impl StandardsGraphBuilder {
    /// Adds a contributing standard.
    #[must_use]
    pub fn contributor(
        mut self,
        designation: impl Into<String>,
        automotive_specific: bool,
        strength: RelationshipStrength,
    ) -> Self {
        self.contributors
            .push((Standard::new(designation, automotive_specific), strength));
        self
    }

    /// Builds the graph.
    #[must_use]
    pub fn build(self) -> StandardsGraph {
        let mut graph = DiGraph::new();
        let target = graph.add_node(self.target);
        for (std, strength) in self.contributors {
            let idx = graph.add_node(std);
            graph.add_edge(idx, target, strength);
        }
        StandardsGraph { graph, target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn designations(g: &StandardsGraph, strength: RelationshipStrength) -> Vec<&str> {
        g.contributors_with(strength)
            .into_iter()
            .map(|s| s.designation.as_str())
            .collect()
    }

    #[test]
    fn paper_figure_has_21_contributors() {
        let g = StandardsGraph::paper_figure_1();
        assert_eq!(g.contributor_count(), 21);
        assert_eq!(g.target().designation, "ISO/SAE 21434:2021");
    }

    #[test]
    fn strong_and_medium_partition_the_contributors() {
        let g = StandardsGraph::paper_figure_1();
        let strong = g.contributors_with(RelationshipStrength::Strong).len();
        let medium = g.contributors_with(RelationshipStrength::Medium).len();
        assert_eq!(strong + medium, g.contributor_count());
        assert_eq!(strong, 9);
        assert_eq!(medium, 12);
    }

    #[test]
    fn iso26262_is_a_strong_contributor() {
        let g = StandardsGraph::paper_figure_1();
        assert!(designations(&g, RelationshipStrength::Strong).contains(&"ISO 26262:2018"));
    }

    #[test]
    fn misra_is_a_medium_contributor() {
        let g = StandardsGraph::paper_figure_1();
        assert!(designations(&g, RelationshipStrength::Medium).contains(&"MISRA C 2012"));
    }

    #[test]
    fn unknown_standard_has_no_strength() {
        let g = StandardsGraph::paper_figure_1();
        for strength in [RelationshipStrength::Strong, RelationshipStrength::Medium] {
            assert!(!designations(&g, strength).contains(&"ISO 99999"));
        }
    }

    #[test]
    fn most_contributors_are_not_automotive_specific() {
        let g = StandardsGraph::paper_figure_1();
        let frac = g.non_automotive_fraction();
        assert!(frac > 0.5, "paper's claim: IT-security bias, got {frac}");
        assert!(frac < 1.0);
    }

    #[test]
    fn custom_builder_works() {
        let g = StandardsGraph::builder("MY-STD")
            .contributor("OTHER", false, RelationshipStrength::Strong)
            .build();
        assert_eq!(g.contributor_count(), 1);
        assert_eq!(
            designations(&g, RelationshipStrength::Strong),
            vec!["OTHER"]
        );
    }

    #[test]
    fn empty_graph_fraction_is_zero() {
        let g = StandardsGraph::builder("LONELY").build();
        assert_eq!(g.non_automotive_fraction(), 0.0);
    }
}
