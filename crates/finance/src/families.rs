//! Families and partnerships — the §2.1 analysis components: *«company
//! groups, virtual concepts denoting a center of interest, shared among many
//! firms, or partnerships between shareholders sharing the assets of some
//! firm»* and the §3.3 intensional constructs `IS_RELATED_TO`,
//! `BELONGS_TO_FAMILY` and `FAMILY_OWNS`.
//!
//! The MetaLog program below creates **new intensional nodes**: one `Family`
//! per business whose shares are held by several physical persons (the
//! linker Skolem functor on the business keeps the family unique), linking
//! each co-holder to it and the family to the business — exercising the
//! node-creating branch of Algorithm 2's output views.

use kgm_common::{FxHashMap, FxHashSet, Result};
use kgm_pgstore::{Direction, NodeId, PropertyGraph};

/// The MetaLog intensional component for shareholder partnerships/families
/// over the Figure 4 constructs.
pub const FAMILIES_METALOG: &str = r#"
% Two distinct physical persons co-holding shares of one business are
% related (a partnership around the firm's assets).
(x: PhysicalPerson)[: HOLDS](s1: Share)[: BELONGS_TO](b: Business),
(y: PhysicalPerson)[: HOLDS](s2: Share)[: BELONGS_TO](b: Business),
  x != y
  -> (x)[r: IS_RELATED_TO](y).

% The co-holders form a family-like center of interest around the business:
% a fresh Family node per business (linker Skolem), membership edges, and
% the family's ownership of the firm.
(x: PhysicalPerson)[: HOLDS](s1: Share)[: BELONGS_TO](b: Business),
(y: PhysicalPerson)[: HOLDS](s2: Share)[: BELONGS_TO](b: Business),
  x != y, f = skolem("family", b)
  -> (x)[m: BELONGS_TO_FAMILY](f: Family),
     (f)[o: FAMILY_OWNS](b).
"#;

/// Independent baseline: for each business with ≥ 2 distinct physical-person
/// holders, report (members, business) — the family structure the MetaLog
/// program materializes.
pub fn baseline_families(g: &PropertyGraph) -> Vec<(Vec<NodeId>, NodeId)> {
    let mut holders_of: FxHashMap<NodeId, FxHashSet<NodeId>> = FxHashMap::default();
    for s in g.nodes_with_label("Share") {
        let business = g
            .incident_edges(s, Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == "BELONGS_TO")
            .map(|e| g.edge_endpoints(e).1)
            .next();
        let Some(business) = business else { continue };
        for e in g.incident_edges(s, Direction::Incoming) {
            if g.edge_label(e) != "HOLDS" {
                continue;
            }
            let holder = g.edge_endpoints(e).0;
            if g.node_has_label(holder, "PhysicalPerson") {
                holders_of.entry(business).or_default().insert(holder);
            }
        }
    }
    let mut out: Vec<(Vec<NodeId>, NodeId)> = holders_of
        .into_iter()
        .filter(|(_, members)| members.len() >= 2)
        .map(|(b, members)| {
            let mut m: Vec<NodeId> = members.into_iter().collect();
            m.sort();
            (m, b)
        })
        .collect();
    out.sort();
    out
}

/// Count distinct `IS_RELATED_TO` pairs implied by the baseline families.
pub fn baseline_related_pairs(g: &PropertyGraph) -> FxHashSet<(NodeId, NodeId)> {
    let mut pairs = FxHashSet::default();
    for (members, _) in baseline_families(g) {
        for i in 0..members.len() {
            for j in 0..members.len() {
                if i != j {
                    pairs.insert((members[i], members[j]));
                }
            }
        }
    }
    pairs
}

/// Extract the materialized family structure from a data graph after the
/// Algorithm 2 run: `(family node, members, owned businesses)`.
pub fn materialized_families(g: &PropertyGraph) -> Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> {
    let mut out = Vec::new();
    for f in g.nodes_with_label("Family") {
        let mut members: Vec<NodeId> = g
            .incident_edges(f, Direction::Incoming)
            .into_iter()
            .filter(|&e| g.edge_label(e) == "BELONGS_TO_FAMILY")
            .map(|e| g.edge_endpoints(e).0)
            .collect();
        members.sort();
        members.dedup();
        let mut owns: Vec<NodeId> = g
            .incident_edges(f, Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == "FAMILY_OWNS")
            .map(|e| g.edge_endpoints(e).1)
            .collect();
        owns.sort();
        owns.dedup();
        out.push((f, members, owns));
    }
    out.sort_by_key(|(f, ..)| *f);
    out
}

/// Convenience: the number of `IS_RELATED_TO` edges in a graph (excluding
/// self-loops, which the program never produces).
pub fn related_pairs(g: &PropertyGraph) -> FxHashSet<(NodeId, NodeId)> {
    g.edges_with_label("IS_RELATED_TO")
        .into_iter()
        .map(|e| g.edge_endpoints(e))
        .filter(|(a, b)| a != b)
        .collect()
}

/// Quick structural sanity check used by tests and the example: every
/// materialized family has ≥ 2 members and owns ≥ 1 business.
pub fn check_families(g: &PropertyGraph) -> Result<usize> {
    let fams = materialized_families(g);
    for (f, members, owns) in &fams {
        if members.len() < 2 {
            return Err(kgm_common::KgmError::Internal(format!(
                "family {:?} has {} members",
                g.node_oid(*f),
                members.len()
            )));
        }
        if owns.is_empty() {
            return Err(kgm_common::KgmError::Internal(format!(
                "family {:?} owns nothing",
                g.node_oid(*f)
            )));
        }
    }
    Ok(fams.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{generate_registry, RegistryConfig};
    use crate::schema::company_kg_schema;
    use kgm_core::intensional::{materialize, MaterializationMode};

    fn small_registry() -> PropertyGraph {
        generate_registry(&RegistryConfig {
            persons: 60,
            businesses: 25,
            non_businesses: 3,
            places: 10,
            events: 4,
            shares_per_business: 4.0,
            seed: 11,
        })
        .unwrap()
    }

    #[test]
    fn families_materialize_with_fresh_nodes() {
        let schema = company_kg_schema().unwrap();
        let mut g = small_registry();
        assert!(g.nodes_with_label("Family").is_empty());
        let stats = materialize(
            &mut g,
            &schema,
            FAMILIES_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        let n_families = check_families(&g).unwrap();
        assert!(n_families > 0, "families must be created ({stats:?})");
        assert_eq!(stats.new_nodes, n_families, "one fresh node per family");
        // One family per multi-holder business, as in the baseline.
        assert_eq!(n_families, baseline_families(&g).len());
    }

    #[test]
    fn related_pairs_match_the_baseline() {
        let schema = company_kg_schema().unwrap();
        let mut g = small_registry();
        materialize(
            &mut g,
            &schema,
            FAMILIES_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        assert_eq!(related_pairs(&g), baseline_related_pairs(&g));
    }

    #[test]
    fn family_membership_matches_the_baseline() {
        let schema = company_kg_schema().unwrap();
        let mut g = small_registry();
        materialize(
            &mut g,
            &schema,
            FAMILIES_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        let expected = baseline_families(&g);
        let fams = materialized_families(&g);
        // Each baseline (members, business) group must exist as a family.
        for (members, business) in &expected {
            let found = fams
                .iter()
                .any(|(_, m, owns)| m == members && owns.contains(business));
            assert!(found, "missing family for business {business:?}");
        }
    }

    #[test]
    fn rerunning_creates_a_fresh_batch_of_virtual_nodes() {
        // Contract check: intensional components that CREATE nodes mint
        // fresh identities per materialization batch (linker Skolems are
        // deterministic within a run; across runs the derived objects have
        // no identifying attributes to upsert on — exactly the chase
        // semantics of Section 4). Production use materializes such virtual
        // concepts once per refresh, or gives them identifiers.
        let schema = company_kg_schema().unwrap();
        let mut g = small_registry();
        materialize(
            &mut g,
            &schema,
            FAMILIES_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        let n1 = g.nodes_with_label("Family").len();
        materialize(
            &mut g,
            &schema,
            FAMILIES_METALOG,
            MaterializationMode::SinglePass,
        )
        .unwrap();
        assert_eq!(
            g.nodes_with_label("Family").len(),
            2 * n1,
            "a second batch mints a second set of virtual nodes"
        );
        // Edge-only components stay idempotent (tested in kgm-core); the
        // IS_RELATED_TO pairs did not duplicate because edges dedup on
        // (label, endpoints).
        assert_eq!(related_pairs(&g), baseline_related_pairs(&g));
    }
}
