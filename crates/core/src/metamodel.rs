//! The meta-model (Figure 2) and the super-model dictionary (Figure 3).
//!
//! At the top of the KGModel representation stack sits the meta-model with
//! the foundational meta-constructs `MM_Entity`, `MM_Link` and
//! `MM_Property`. One level below, the super-model's super-constructs are
//! *instances* of the meta-constructs: `SM_Node` is an `MM_Entity`,
//! `SM_FROM` is an `MM_Link`, `isIntensional` is an `MM_Property`, and so
//! on. Both dictionaries are materialized as `kgm-pgstore` graphs, so they
//! can be queried, rendered (Γ_MM) and — most importantly — used as the
//! data MetaLog mapping programs run over.

use kgm_common::{Result, Value};
use kgm_pgstore::{NodeId, PropertyGraph};

fn props(pairs: &[(&str, Value)]) -> Vec<(String, Value)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Build the meta-model dictionary graph of Figure 2: three meta-constructs
/// and the links between them (`MM_SOURCE`/`MM_TARGET` connect links to
/// entities; `MM_HAS_PROPERTY` attaches properties to entities and links).
pub fn meta_model() -> Result<PropertyGraph> {
    let mut g = PropertyGraph::new();
    let entity = g.add_node(["MM_Entity"], props(&[("name", Value::str("MM_Entity"))]))?;
    let link = g.add_node(["MM_Link"], props(&[("name", Value::str("MM_Link"))]))?;
    let property = g.add_node(
        ["MM_Property"],
        props(&[("name", Value::str("MM_Property"))]),
    )?;
    // A link connects a source entity to a target entity (cardinality 1 on
    // the link side, N on the entity side, as drawn in Figure 2).
    g.add_edge(
        link,
        entity,
        "MM_SOURCE",
        props(&[("card", Value::str("N:1"))]),
    )?;
    g.add_edge(
        link,
        entity,
        "MM_TARGET",
        props(&[("card", Value::str("N:1"))]),
    )?;
    // Entities and links own properties.
    g.add_edge(entity, property, "MM_HAS_PROPERTY", props(&[]))?;
    g.add_edge(link, property, "MM_HAS_PROPERTY", props(&[]))?;
    Ok(g)
}

/// The catalog row of one super-construct in the super-model dictionary.
struct SuperConstruct {
    name: &'static str,
    kind: &'static str, // which meta-construct it instantiates
    properties: &'static [&'static str],
}

const SUPER_CONSTRUCTS: &[SuperConstruct] = &[
    SuperConstruct {
        name: "SM_Node",
        kind: "MM_Entity",
        properties: &["isIntensional"],
    },
    SuperConstruct {
        name: "SM_Edge",
        kind: "MM_Entity",
        properties: &["isIntensional", "isOpt1", "isFun1", "isOpt2", "isFun2"],
    },
    SuperConstruct {
        name: "SM_Type",
        kind: "MM_Entity",
        properties: &["name"],
    },
    SuperConstruct {
        name: "SM_Attribute",
        kind: "MM_Entity",
        properties: &["name", "type", "isOpt", "isId", "isIntensional"],
    },
    SuperConstruct {
        name: "SM_Generalization",
        kind: "MM_Entity",
        properties: &["isTotal", "isDisjoint"],
    },
    SuperConstruct {
        name: "SM_AttributeModifier",
        kind: "MM_Entity",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_UniqueAttributeModifier",
        kind: "MM_Entity",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_EnumAttributeModifier",
        kind: "MM_Entity",
        properties: &["values"],
    },
    SuperConstruct {
        name: "SM_HAS_NODE_TYPE",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_HAS_EDGE_TYPE",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_HAS_NODE_ATTR",
        kind: "MM_Link",
        properties: &["isIntensional"],
    },
    SuperConstruct {
        name: "SM_HAS_EDGE_ATTR",
        kind: "MM_Link",
        properties: &["isIntensional"],
    },
    SuperConstruct {
        name: "SM_FROM",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_TO",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_PARENT",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_CHILD",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_HAS_MODIFIER",
        kind: "MM_Link",
        properties: &[],
    },
    SuperConstruct {
        name: "SM_REFERENCES",
        kind: "MM_Link",
        properties: &[],
    },
];

/// Build the super-model dictionary of Figure 3: one node per
/// super-construct, each an instance of its meta-construct, with its
/// property catalog attached.
pub fn super_model_dictionary() -> Result<PropertyGraph> {
    let mut g = PropertyGraph::new();
    let mut ids: Vec<NodeId> = Vec::new();
    for sc in SUPER_CONSTRUCTS {
        let id = g.add_node(
            [sc.kind, "SuperConstruct"],
            props(&[("name", Value::str(sc.name))]),
        )?;
        for p in sc.properties {
            let pid = g.add_node(["MM_Property"], props(&[("name", Value::str(*p))]))?;
            g.add_edge(id, pid, "MM_HAS_PROPERTY", props(&[]))?;
        }
        ids.push(id);
    }
    let find = |g: &PropertyGraph, name: &str| {
        g.nodes_with_label("SuperConstruct")
            .into_iter()
            .find(|&n| g.node_prop(n, "name") == Some(&Value::str(name)))
            .expect("declared above")
    };
    // Structural links among super-constructs (which link connects what).
    let structure: &[(&str, &str, &str)] = &[
        ("SM_HAS_NODE_TYPE", "SM_Node", "SM_Type"),
        ("SM_HAS_EDGE_TYPE", "SM_Edge", "SM_Type"),
        ("SM_HAS_NODE_ATTR", "SM_Node", "SM_Attribute"),
        ("SM_HAS_EDGE_ATTR", "SM_Edge", "SM_Attribute"),
        ("SM_FROM", "SM_Edge", "SM_Node"),
        ("SM_TO", "SM_Edge", "SM_Node"),
        ("SM_PARENT", "SM_Node", "SM_Generalization"),
        ("SM_CHILD", "SM_Generalization", "SM_Node"),
        ("SM_HAS_MODIFIER", "SM_Attribute", "SM_AttributeModifier"),
    ];
    for (link, from, to) in structure {
        let l = find(&g, link);
        let f = find(&g, from);
        let t = find(&g, to);
        g.add_edge(l, f, "MM_SOURCE", props(&[]))?;
        g.add_edge(l, t, "MM_TARGET", props(&[]))?;
    }
    // Modifier specializations.
    let base = find(&g, "SM_AttributeModifier");
    for m in ["SM_UniqueAttributeModifier", "SM_EnumAttributeModifier"] {
        let mid = find(&g, m);
        g.add_edge(mid, base, "MM_SPECIALIZES", props(&[]))?;
    }
    Ok(g)
}

/// Names of all super-constructs, in dictionary order.
pub fn super_construct_names() -> Vec<&'static str> {
    SUPER_CONSTRUCTS.iter().map(|sc| sc.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_model_has_three_meta_constructs() {
        let g = meta_model().unwrap();
        assert_eq!(g.nodes_with_label("MM_Entity").len(), 1);
        assert_eq!(g.nodes_with_label("MM_Link").len(), 1);
        assert_eq!(g.nodes_with_label("MM_Property").len(), 1);
        assert_eq!(g.edges_with_label("MM_SOURCE").len(), 1);
        assert_eq!(g.edges_with_label("MM_HAS_PROPERTY").len(), 2);
    }

    #[test]
    fn super_model_contains_every_figure_3_construct() {
        let g = super_model_dictionary().unwrap();
        let names: Vec<String> = g
            .nodes_with_label("SuperConstruct")
            .into_iter()
            .map(|n| g.node_prop(n, "name").unwrap().to_string())
            .collect();
        for expected in [
            "SM_Node",
            "SM_Edge",
            "SM_Type",
            "SM_Attribute",
            "SM_Generalization",
            "SM_HAS_NODE_TYPE",
            "SM_FROM",
            "SM_TO",
            "SM_PARENT",
            "SM_CHILD",
            "SM_UniqueAttributeModifier",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn super_constructs_instantiate_meta_constructs() {
        let g = super_model_dictionary().unwrap();
        let entities = g.nodes_with_label("MM_Entity");
        let links = g.nodes_with_label("MM_Link");
        assert_eq!(entities.len(), 8, "8 entity super-constructs");
        assert_eq!(links.len(), 10, "10 link super-constructs");
    }

    #[test]
    fn structural_links_are_wired() {
        let g = super_model_dictionary().unwrap();
        // SM_FROM's MM_SOURCE is SM_Edge.
        let from = g
            .nodes_with_label("SuperConstruct")
            .into_iter()
            .find(|&n| g.node_prop(n, "name") == Some(&Value::str("SM_FROM")))
            .unwrap();
        let sources: Vec<String> = g
            .incident_edges(from, kgm_pgstore::Direction::Outgoing)
            .into_iter()
            .filter(|&e| g.edge_label(e) == "MM_SOURCE")
            .map(|e| {
                let (_, t) = g.edge_endpoints(e);
                g.node_prop(t, "name").unwrap().to_string()
            })
            .collect();
        assert_eq!(sources, vec!["SM_Edge"]);
    }

    #[test]
    fn construct_name_catalog_is_stable() {
        let names = super_construct_names();
        assert_eq!(names.len(), 18);
        assert_eq!(names[0], "SM_Node");
    }
}
