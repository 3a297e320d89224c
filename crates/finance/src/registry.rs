//! Full Company KG registry generation — an instance of the complete
//! Figure 4 schema (its PG translation), not just the shareholding
//! projection.
//!
//! Produces physical persons, businesses and non-business legal persons,
//! shares with `HOLDS`/`BELONGS_TO` decoupling (the §3.3 design decision so
//! *multiple persons can hold a share each with a specific right*), places
//! with `RESIDES`, roles, representatives and business events — everything
//! the extensional component of the paper's KG contains. The output
//! validates against the multi-label PG translation of
//! [`crate::schema::company_kg_schema`].

use kgm_common::{Result, Value};
use kgm_pgstore::{NodeId, PropertyGraph};
use kgm_runtime::Rng;

/// Parameters for the full-registry generator.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Number of physical persons.
    pub persons: usize,
    /// Number of businesses.
    pub businesses: usize,
    /// Number of non-business legal persons (foundations, territorial
    /// entities…).
    pub non_businesses: usize,
    /// Number of places.
    pub places: usize,
    /// Number of business events (mergers, splits).
    pub events: usize,
    /// Mean shares issued per business.
    pub shares_per_business: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            persons: 200,
            businesses: 80,
            non_businesses: 10,
            places: 40,
            events: 15,
            shares_per_business: 3.0,
            seed: 7,
        }
    }
}

const GIVEN: &[&str] = &[
    "Ada", "Bruno", "Carla", "Dario", "Elena", "Fabio", "Gaia", "Hugo",
];
const FAMILY: &[&str] = &["Rossi", "Bianchi", "Ferrari", "Russo", "Colombo", "Ricci"];
const LEGAL_NATURE: &[&str] = &["SpA", "Srl", "SApA", "Scarl"];
const RIGHTS: &[&str] = &["ownership", "bare ownership", "usufruct"];
const EVENT_TYPES: &[&str] = &["merger", "acquisition", "split"];

/// Generate a registry instance of the Company KG (multi-label PG form).
pub fn generate_registry(config: &RegistryConfig) -> Result<PropertyGraph> {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut g = PropertyGraph::new();

    let places: Vec<NodeId> = (0..config.places)
        .map(|i| {
            g.add_node(
                ["Place"],
                vec![
                    ("placeId".to_string(), Value::str(format!("PL{i:04}"))),
                    ("street".to_string(), Value::str(format!("Via Roma {i}"))),
                    ("city".to_string(), Value::str(format!("City{}", i % 12))),
                ],
            )
        })
        .collect::<Result<_>>()?;

    let mut persons: Vec<NodeId> = Vec::new();
    for i in 0..config.persons {
        let given = GIVEN[rng.gen_range(0..GIVEN.len())];
        let family = FAMILY[rng.gen_range(0..FAMILY.len())];
        let mut props = vec![
            ("fiscalCode".to_string(), Value::str(format!("PF{i:06}"))),
            ("name".to_string(), Value::str(format!("{given} {family}"))),
            (
                "gender".to_string(),
                Value::str(if rng.gen_bool(0.5) { "female" } else { "male" }),
            ),
        ];
        if rng.gen_bool(0.8) {
            props.push((
                "birthDate".to_string(),
                Value::Date(rng.gen_range(-15_000..5_000)),
            ));
        }
        let n = g.add_node(["PhysicalPerson", "Person"], props)?;
        persons.push(n);
        if !places.is_empty() && rng.gen_bool(0.9) {
            let p = places[rng.gen_range(0..places.len())];
            g.add_edge(n, p, "RESIDES", vec![])?;
        }
    }

    let mut businesses: Vec<NodeId> = Vec::new();
    for i in 0..config.businesses {
        let n = g.add_node(
            ["Business", "LegalPerson", "Person"],
            vec![
                ("fiscalCode".to_string(), Value::str(format!("PG{i:06}"))),
                ("name".to_string(), Value::str(format!("Company {i}"))),
                (
                    "businessName".to_string(),
                    Value::str(format!("Company {i} {}", LEGAL_NATURE[i % 4])),
                ),
                (
                    "legalNature".to_string(),
                    Value::str(LEGAL_NATURE[i % LEGAL_NATURE.len()]),
                ),
                (
                    "shareholdingCapital".to_string(),
                    Value::Float(rng.gen_range(10_000.0..5_000_000.0)),
                ),
            ],
        )?;
        businesses.push(n);
        if !places.is_empty() {
            let p = places[rng.gen_range(0..places.len())];
            g.add_edge(n, p, "RESIDES", vec![])?;
        }
    }

    for i in 0..config.non_businesses {
        let n = g.add_node(
            ["NonBusiness", "LegalPerson", "Person"],
            vec![
                ("fiscalCode".to_string(), Value::str(format!("NB{i:06}"))),
                ("name".to_string(), Value::str(format!("Entity {i}"))),
                (
                    "businessName".to_string(),
                    Value::str(format!("Entity {i}")),
                ),
                ("legalNature".to_string(), Value::str("Ente")),
                ("isGovernmental".to_string(), Value::Bool(rng.gen_bool(0.5))),
            ],
        )?;
        // Physical persons have roles in non-business entities too.
        if !persons.is_empty() {
            let p = persons[rng.gen_range(0..persons.len())];
            g.add_edge(
                p,
                n,
                "HAS_ROLE",
                vec![("role".to_string(), Value::str("director"))],
            )?;
        }
    }

    // Shares: decoupled HOLDS / BELONGS_TO with rights and percentages.
    let holders: Vec<NodeId> = persons.iter().chain(businesses.iter()).copied().collect();
    let mut share_seq = 0usize;
    for &b in &businesses {
        let n_shares = 1 + (rng.gen_range(0.0..2.0 * config.shares_per_business) as usize);
        // Random split of ~90% of capital across the shares.
        let mut weights: Vec<f64> = (0..n_shares).map(|_| rng.gen_range(0.1..1.0)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w = *w / total * 0.9;
        }
        for w in weights {
            let share = g.add_node(
                ["Share"],
                vec![
                    (
                        "shareId".to_string(),
                        Value::str(format!("SH{share_seq:07}")),
                    ),
                    ("percentage".to_string(), Value::Float(w)),
                ],
            )?;
            share_seq += 1;
            g.add_edge(share, b, "BELONGS_TO", vec![])?;
            // One or two holders per share (usufruct structures).
            let n_holders = if rng.gen_bool(0.15) { 2 } else { 1 };
            for h in 0..n_holders {
                let holder = holders[rng.gen_range(0..holders.len())];
                g.add_edge(
                    holder,
                    share,
                    "HOLDS",
                    vec![(
                        "right".to_string(),
                        Value::str(if n_holders == 1 {
                            "ownership"
                        } else {
                            RIGHTS[1 + h % 2]
                        }),
                    )],
                )?;
            }
        }
        // Board roles.
        if !persons.is_empty() {
            let p = persons[rng.gen_range(0..persons.len())];
            g.add_edge(
                p,
                b,
                "HAS_ROLE",
                vec![("role".to_string(), Value::str("board member"))],
            )?;
            if rng.gen_bool(0.4) {
                let r = persons[rng.gen_range(0..persons.len())];
                g.add_edge(r, b, "REPRESENTS", vec![])?;
            }
        }
    }

    // Business events.
    for i in 0..config.events {
        if businesses.len() < 2 {
            break;
        }
        let e = g.add_node(
            ["BusinessEvent"],
            vec![
                ("eventId".to_string(), Value::str(format!("EV{i:05}"))),
                (
                    "type".to_string(),
                    Value::str(EVENT_TYPES[i % EVENT_TYPES.len()]),
                ),
                (
                    "date".to_string(),
                    Value::Date(rng.gen_range(15_000..20_000)),
                ),
            ],
        )?;
        let a = businesses[rng.gen_range(0..businesses.len())];
        let b = businesses[rng.gen_range(0..businesses.len())];
        g.add_edge(
            a,
            e,
            "PARTICIPATES",
            vec![("role".to_string(), Value::str("acquirer"))],
        )?;
        if b != a {
            g.add_edge(
                b,
                e,
                "PARTICIPATES",
                vec![("role".to_string(), Value::str("acquired"))],
            )?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::company_kg_schema;
    use kgm_core::sst::{translate_to_pg, PgGeneralizationStrategy};

    #[test]
    fn registry_conforms_to_the_figure_4_schema() {
        let g = generate_registry(&RegistryConfig::default()).unwrap();
        let schema = company_kg_schema().unwrap();
        let pg = translate_to_pg(&schema, PgGeneralizationStrategy::MultiLabel).unwrap();
        pg.check_instance(&g).unwrap();
        assert!(g.nodes_with_label("PhysicalPerson").len() >= 100);
        assert!(!g.edges_with_label("HOLDS").is_empty());
        assert!(!g.edges_with_label("BELONGS_TO").is_empty());
        assert!(!g.edges_with_label("PARTICIPATES").is_empty());
    }

    #[test]
    fn registry_is_deterministic() {
        let a = generate_registry(&RegistryConfig::default()).unwrap();
        let b = generate_registry(&RegistryConfig::default()).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn every_share_belongs_to_exactly_one_business() {
        let g = generate_registry(&RegistryConfig::default()).unwrap();
        for s in g.nodes_with_label("Share") {
            let owners: Vec<_> = g
                .incident_edges(s, kgm_pgstore::Direction::Outgoing)
                .into_iter()
                .filter(|&e| g.edge_label(e) == "BELONGS_TO")
                .collect();
            assert_eq!(owners.len(), 1);
        }
    }

    #[test]
    fn some_shares_have_usufruct_structures() {
        let g = generate_registry(&RegistryConfig {
            businesses: 120,
            ..Default::default()
        })
        .unwrap();
        let multi = g
            .nodes_with_label("Share")
            .into_iter()
            .filter(|&s| {
                g.incident_edges(s, kgm_pgstore::Direction::Incoming)
                    .into_iter()
                    .filter(|&e| g.edge_label(e) == "HOLDS")
                    .count()
                    > 1
            })
            .count();
        assert!(
            multi > 0,
            "multi-holder shares must exist (§3.3 motivation)"
        );
    }
}
