//! RDF-S vocabulary construction and document emission.
//!
//! The SSST renders a translated schema for an RDF target as an RDF Schema
//! vocabulary: node types become `rdfs:Class`es, generalizations become
//! `rdfs:subClassOf` axioms, attributes become datatype properties with
//! `rdfs:domain`/`rdfs:range`, and edges become object properties.

use crate::store::{Term, TripleStore};
use kgm_common::ValueType;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const RDFS_CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
const RDF_PROPERTY: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#Property";
const RDFS_SUBCLASS: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
const RDFS_SUBPROPERTY: &str = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";
const RDFS_RANGE: &str = "http://www.w3.org/2000/01/rdf-schema#range";
const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// XSD datatype IRI for a KGModel value type.
pub fn xsd_iri(ty: ValueType) -> String {
    let local = match ty {
        ValueType::Bool => "boolean",
        ValueType::Int => "long",
        ValueType::Float => "double",
        ValueType::Str => "string",
        ValueType::Date => "date",
        ValueType::Oid => "long",
    };
    format!("{XSD}{local}")
}

/// One property of the vocabulary: a datatype or an object property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdfsProperty {
    /// Local name of the property.
    pub name: String,
    /// Domain class local name.
    pub domain: String,
    /// Range: `Err(class)` for object properties, `Ok(datatype)` for
    /// datatype properties.
    pub range: std::result::Result<ValueType, String>,
}

/// An RDF-S vocabulary: classes, subclass axioms and properties under one
/// base namespace.
#[derive(Debug, Clone, Default)]
pub struct RdfsVocabulary {
    /// Base namespace, e.g. `http://bancaditalia.example/kg#`.
    pub base: String,
    /// Class local names.
    pub classes: Vec<String>,
    /// `(child, parent)` subclass pairs.
    pub subclasses: Vec<(String, String)>,
    /// Properties.
    pub properties: Vec<RdfsProperty>,
}

impl RdfsVocabulary {
    /// Empty vocabulary under `base`.
    pub fn new(base: impl Into<String>) -> Self {
        RdfsVocabulary {
            base: base.into(),
            ..Default::default()
        }
    }

    fn iri(&self, local: &str) -> Term {
        Term::iri(format!("{}{}", self.base, local))
    }

    /// Materialize the vocabulary into a triple store.
    pub fn to_store(&self) -> TripleStore {
        let mut ts = TripleStore::new();
        for c in &self.classes {
            ts.insert(self.iri(c), Term::iri(RDF_TYPE), Term::iri(RDFS_CLASS));
            ts.insert(self.iri(c), Term::iri(RDFS_LABEL), Term::Literal(c.clone()));
        }
        for (child, parent) in &self.subclasses {
            ts.insert(self.iri(child), Term::iri(RDFS_SUBCLASS), self.iri(parent));
        }
        for p in &self.properties {
            ts.insert(
                self.iri(&p.name),
                Term::iri(RDF_TYPE),
                Term::iri(RDF_PROPERTY),
            );
            ts.insert(
                self.iri(&p.name),
                Term::iri(RDFS_DOMAIN),
                self.iri(&p.domain),
            );
            let range = match &p.range {
                Ok(ty) => Term::iri(xsd_iri(*ty)),
                Err(class) => self.iri(class),
            };
            ts.insert(self.iri(&p.name), Term::iri(RDFS_RANGE), range);
        }
        ts
    }

    /// Render the RDF-S document (sorted N-Triples).
    pub fn to_document(&self) -> String {
        self.to_store().to_ntriples()
    }
}

/// Materialize the core RDFS entailments in `store`, returning the number
/// of triples added. Runs the standard rule subset to fixpoint:
///
/// - **rdfs5**  `subPropertyOf` is transitive;
/// - **rdfs7**  `(s p o), (p subPropertyOf q) ⇒ (s q o)`;
/// - **rdfs11** `subClassOf` is transitive;
/// - **rdfs9**  `(x type c), (c subClassOf d) ⇒ (x type d)`;
/// - **rdfs2/3** `domain`/`range` typing of subjects/objects.
///
/// Cyclic hierarchies are legal RDFS (`a ⊑ b ⊑ a` makes the classes
/// co-extensional, not inconsistent): the closure simply materializes the
/// mutual — and, through the cycle, reflexive — subclass triples and
/// terminates because the triple universe closes over existing terms.
pub fn infer(store: &mut TripleStore) -> usize {
    let before = store.len();
    let rdf_type = Term::iri(RDF_TYPE);
    let sub_class = Term::iri(RDFS_SUBCLASS);
    let sub_prop = Term::iri(RDFS_SUBPROPERTY);
    let domain = Term::iri(RDFS_DOMAIN);
    let range = Term::iri(RDFS_RANGE);
    loop {
        let mut derived: Vec<(Term, Term, Term)> = Vec::new();
        // rdfs11 / rdfs5: transitivity of the two hierarchy relations.
        for rel in [&sub_class, &sub_prop] {
            let pairs: Vec<(Term, Term)> = store
                .find(None, Some(rel), None)
                .into_iter()
                .map(|t| (t.s.clone(), t.o.clone()))
                .collect();
            for (a, b) in &pairs {
                for (c, d) in &pairs {
                    if b == c {
                        derived.push((a.clone(), rel.clone(), d.clone()));
                    }
                }
            }
        }
        // rdfs9: propagate instance types up the subclass hierarchy.
        for (child, parent) in store
            .find(None, Some(&sub_class), None)
            .into_iter()
            .map(|t| (t.s.clone(), t.o.clone()))
            .collect::<Vec<_>>()
        {
            for inst in store
                .find(None, Some(&rdf_type), Some(&child))
                .into_iter()
                .map(|t| t.s.clone())
                .collect::<Vec<_>>()
            {
                derived.push((inst, rdf_type.clone(), parent.clone()));
            }
        }
        // rdfs7: copy assertions from a subproperty to its superproperty.
        for (p, q) in store
            .find(None, Some(&sub_prop), None)
            .into_iter()
            .map(|t| (t.s.clone(), t.o.clone()))
            .collect::<Vec<_>>()
        {
            for (s, o) in store
                .find(None, Some(&p), None)
                .into_iter()
                .map(|t| (t.s.clone(), t.o.clone()))
                .collect::<Vec<_>>()
            {
                derived.push((s, q.clone(), o));
            }
        }
        // rdfs2 / rdfs3: domain types the subject, range the object (the
        // range rule only fires for non-literal objects — literals cannot
        // be class instances).
        for (prop, class, subject_side) in store
            .find(None, Some(&domain), None)
            .into_iter()
            .map(|t| (t.s.clone(), t.o.clone(), true))
            .chain(
                store
                    .find(None, Some(&range), None)
                    .into_iter()
                    .map(|t| (t.s.clone(), t.o.clone(), false)),
            )
            .collect::<Vec<_>>()
        {
            for (s, o) in store
                .find(None, Some(&prop), None)
                .into_iter()
                .map(|t| (t.s.clone(), t.o.clone()))
                .collect::<Vec<_>>()
            {
                let target = if subject_side { s } else { o };
                if !matches!(target, Term::Literal(_)) {
                    derived.push((target, rdf_type.clone(), class.clone()));
                }
            }
        }
        let mut grew = false;
        for (s, p, o) in derived {
            grew |= store.insert(s, p, o);
        }
        if !grew {
            break;
        }
    }
    store.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RdfsVocabulary {
        let mut v = RdfsVocabulary::new("http://example.org/kg#");
        v.classes = vec!["Person".into(), "PhysicalPerson".into(), "Business".into()];
        v.subclasses = vec![("PhysicalPerson".into(), "Person".into())];
        v.properties = vec![
            RdfsProperty {
                name: "fiscalCode".into(),
                domain: "Person".into(),
                range: Ok(ValueType::Str),
            },
            RdfsProperty {
                name: "OWNS".into(),
                domain: "Person".into(),
                range: Err("Business".into()),
            },
        ];
        v
    }

    #[test]
    fn classes_become_rdfs_classes() {
        let ts = sample().to_store();
        assert!(ts.contains(
            &Term::iri("http://example.org/kg#Person"),
            &Term::iri(RDF_TYPE),
            &Term::iri(RDFS_CLASS)
        ));
    }

    #[test]
    fn subclass_axioms_are_emitted() {
        let ts = sample().to_store();
        assert!(ts.contains(
            &Term::iri("http://example.org/kg#PhysicalPerson"),
            &Term::iri(RDFS_SUBCLASS),
            &Term::iri("http://example.org/kg#Person")
        ));
    }

    #[test]
    fn datatype_and_object_properties_get_correct_ranges() {
        let ts = sample().to_store();
        assert!(ts.contains(
            &Term::iri("http://example.org/kg#fiscalCode"),
            &Term::iri(RDFS_RANGE),
            &Term::iri("http://www.w3.org/2001/XMLSchema#string")
        ));
        assert!(ts.contains(
            &Term::iri("http://example.org/kg#OWNS"),
            &Term::iri(RDFS_RANGE),
            &Term::iri("http://example.org/kg#Business")
        ));
    }

    #[test]
    fn document_is_deterministic() {
        assert_eq!(sample().to_document(), sample().to_document());
        assert!(sample().to_document().contains("subClassOf"));
    }

    fn iri(l: &str) -> Term {
        Term::iri(format!("http://x/{l}"))
    }

    #[test]
    fn subclass_closure_is_transitive() {
        let mut ts = TripleStore::new();
        ts.insert(iri("A"), Term::iri(RDFS_SUBCLASS), iri("B"));
        ts.insert(iri("B"), Term::iri(RDFS_SUBCLASS), iri("C"));
        ts.insert(iri("C"), Term::iri(RDFS_SUBCLASS), iri("D"));
        infer(&mut ts);
        for (a, b) in [("A", "C"), ("A", "D"), ("B", "D")] {
            assert!(
                ts.contains(&iri(a), &Term::iri(RDFS_SUBCLASS), &iri(b)),
                "{a} ⊑ {b} missing"
            );
        }
    }

    #[test]
    fn subclass_cycles_close_and_terminate() {
        // a ⊑ b ⊑ c ⊑ a: every pair (including reflexive) must be derived,
        // and the fixpoint must terminate despite the cycle.
        let mut ts = TripleStore::new();
        ts.insert(iri("a"), Term::iri(RDFS_SUBCLASS), iri("b"));
        ts.insert(iri("b"), Term::iri(RDFS_SUBCLASS), iri("c"));
        ts.insert(iri("c"), Term::iri(RDFS_SUBCLASS), iri("a"));
        infer(&mut ts);
        for x in ["a", "b", "c"] {
            for y in ["a", "b", "c"] {
                assert!(
                    ts.contains(&iri(x), &Term::iri(RDFS_SUBCLASS), &iri(y)),
                    "{x} ⊑ {y} missing"
                );
            }
        }
    }

    #[test]
    fn subproperty_closure_and_assertion_propagation() {
        // p ⊑ q ⊑ r plus an assertion over p: rdfs5 closes the hierarchy,
        // rdfs7 copies the assertion all the way to r.
        let mut ts = TripleStore::new();
        ts.insert(iri("p"), Term::iri(RDFS_SUBPROPERTY), iri("q"));
        ts.insert(iri("q"), Term::iri(RDFS_SUBPROPERTY), iri("r"));
        ts.insert(iri("s"), iri("p"), iri("o"));
        infer(&mut ts);
        assert!(ts.contains(&iri("p"), &Term::iri(RDFS_SUBPROPERTY), &iri("r")));
        assert!(ts.contains(&iri("s"), &iri("q"), &iri("o")));
        assert!(ts.contains(&iri("s"), &iri("r"), &iri("o")));
    }

    #[test]
    fn instance_types_propagate_up_the_hierarchy() {
        // x : PhysicalPerson, PhysicalPerson ⊑ Person ⇒ x : Person (rdfs9),
        // where the type itself arrives via a domain axiom (rdfs2).
        let mut ts = TripleStore::new();
        ts.insert(
            iri("PhysicalPerson"),
            Term::iri(RDFS_SUBCLASS),
            iri("Person"),
        );
        ts.insert(iri("gender"), Term::iri(RDFS_DOMAIN), iri("PhysicalPerson"));
        ts.insert(iri("x"), iri("gender"), Term::Literal("F".into()));
        let added = infer(&mut ts);
        assert!(ts.contains(&iri("x"), &Term::iri(RDF_TYPE), &iri("PhysicalPerson")));
        assert!(ts.contains(&iri("x"), &Term::iri(RDF_TYPE), &iri("Person")));
        // The literal object must NOT have been typed by the range rule.
        assert_eq!(added, 2);
    }

    #[test]
    fn range_rule_types_iri_objects_only() {
        let mut ts = TripleStore::new();
        ts.insert(iri("OWNS"), Term::iri(RDFS_RANGE), iri("Business"));
        ts.insert(iri("alice"), iri("OWNS"), iri("acme"));
        ts.insert(iri("alice"), iri("OWNS"), Term::Literal("acme".into()));
        infer(&mut ts);
        assert!(ts.contains(&iri("acme"), &Term::iri(RDF_TYPE), &iri("Business")));
        assert!(!ts.contains(
            &Term::Literal("acme".into()),
            &Term::iri(RDF_TYPE),
            &iri("Business")
        ));
    }

    #[test]
    fn inference_over_generated_vocabulary_is_idempotent() {
        // Vocabulary from the SSST plus one instance assertion: the OWNS
        // object property has domain Person / range Business, so `infer`
        // types both endpoints — and a second pass adds nothing.
        let mut ts = sample().to_store();
        let owns = Term::iri("http://example.org/kg#OWNS");
        ts.insert(iri("alice"), owns, iri("acme"));
        let first = infer(&mut ts);
        assert!(first >= 2, "expected domain+range typing, got {first}");
        assert_eq!(infer(&mut ts), 0, "second pass must be a no-op");
    }

    #[test]
    fn xsd_mapping_is_total() {
        for ty in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
            ValueType::Date,
            ValueType::Oid,
        ] {
            assert!(xsd_iri(ty).starts_with(XSD));
        }
    }
}
