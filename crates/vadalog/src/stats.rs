//! Line-oriented text codec for [`RunStats`] / [`ChaseProfile`], in the
//! style of the `kgm-common` codecs (`SkolemRegistry::to_text` & friends):
//! one `|`-delimited record per line, record type first, strings escaped
//! with [`kgm_common::codec::escape`]. The format is what the paper harness
//! prints for chase runs — diffable in artefact directories and parseable
//! without JSON machinery.
//!
//! ```text
//! run|<strata>|<iterations>|<derived>|<nulls>|<duplicates>|<elapsed_ms>
//! term|<termination>|<stopped_stratum>|<stopped_iteration>|<cancel_polls>|<faults_injected>
//! par|<shards_spawned>|<worker_candidates>|<merge_dedup_hits>|<merge_partitions>
//! prov|<edges_recorded>|<parent_refs>
//! upd|<inserted>|<deleted>|<overdeleted>|<rederived>|<fallbacks>
//! stratum|<idx>|<iterations>|<derived>|<duplicates>|<nulls>|<elapsed_ms>
//! rule|<idx>|<head>|<evals>|<delta_evals>|<bindings>|<emitted>|<elapsed_ms>
//! ```
//!
//! Exactly one `run` line (first), one `term` line (the resilience record:
//! why and where the run stopped — see [`Termination`]) and one `par` line
//! (all zeroes for a sequential run), then zero or more `stratum` and `rule`
//! lines in any order. Elapsed times round-trip at microsecond precision
//! (`{:.3}` ms).
//!
//! The `prov` line (why-provenance accounting, all zeroes with provenance
//! off) and the `upd` line (incremental-update accounting, all zeroes for a
//! from-scratch run) were added after the format's first release;
//! [`RunStats::from_text`] treats each as optional, so older texts still
//! parse — with the corresponding counters defaulting to zero.

use crate::engine::{ChaseProfile, RuleProfile, RunStats, StratumProfile, Termination};
use kgm_common::codec::{escape, unescape, CodecError};
use std::ops::Range;

impl RunStats {
    /// Serialize to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run|{}|{}|{}|{}|{}|{:.3}\n",
            self.strata,
            self.iterations,
            self.derived_facts,
            self.nulls_created,
            self.duplicates_rejected,
            self.elapsed_ms,
        ));
        out.push_str(&format!(
            "term|{}|{}|{}|{}|{}\n",
            self.termination.as_str(),
            self.stopped_stratum,
            self.stopped_iteration,
            self.profile.cancel_polls,
            self.profile.faults_injected,
        ));
        out.push_str(&format!(
            "par|{}|{}|{}|{}\n",
            self.profile.shards_spawned,
            self.profile.worker_candidates,
            self.profile.merge_dedup_hits,
            self.profile.merge_partitions,
        ));
        out.push_str(&format!(
            "prov|{}|{}\n",
            self.profile.prov_edges, self.profile.prov_parents,
        ));
        out.push_str(&format!(
            "upd|{}|{}|{}|{}|{}\n",
            self.profile.update_inserted,
            self.profile.update_deleted,
            self.profile.update_overdeleted,
            self.profile.update_rederived,
            self.profile.update_fallbacks,
        ));
        for s in &self.profile.strata {
            out.push_str(&format!(
                "stratum|{}|{}|{}|{}|{}|{:.3}\n",
                s.stratum,
                s.iterations,
                s.derived_facts,
                s.duplicates_rejected,
                s.nulls_minted,
                s.elapsed_ms,
            ));
        }
        for r in &self.profile.rules {
            out.push_str(&format!(
                "rule|{}|{}|{}|{}|{}|{}|{:.3}\n",
                r.rule,
                escape(&r.head),
                r.evaluations,
                r.delta_evaluations,
                r.bindings_enumerated,
                r.facts_emitted,
                r.elapsed_ms,
            ));
        }
        out
    }

    /// Parse the text format produced by [`RunStats::to_text`].
    pub fn from_text(text: &str) -> Result<RunStats, CodecError> {
        let mut stats: Option<RunStats> = None;
        let mut profile = ChaseProfile::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let bad =
                |what: &str| CodecError::new(format!("line {}: {what}", lineno + 1));
            let fields: Vec<&str> = line.split('|').collect();
            // Every record has a fixed field count; `counts` checks it and
            // parses `fields[range]` as counters.
            let counts = |expect: usize, range: Range<usize>| -> Result<Vec<usize>, CodecError> {
                if fields.len() != expect {
                    return Err(bad(&format!(
                        "expected {expect} fields, got {}",
                        fields.len()
                    )));
                }
                fields[range]
                    .iter()
                    .map(|f| f.parse().map_err(|_| bad(&format!("bad number {f:?}"))))
                    .collect()
            };
            let ms = |expect: usize| -> Result<f64, CodecError> {
                fields[expect - 1]
                    .parse()
                    .map_err(|_| bad(&format!("bad elapsed {:?}", fields[expect - 1])))
            };
            match fields[0] {
                "run" => {
                    if stats.is_some() {
                        return Err(bad("duplicate run record"));
                    }
                    let n = counts(7, 1..6)?;
                    stats = Some(RunStats {
                        strata: n[0],
                        iterations: n[1],
                        derived_facts: n[2],
                        nulls_created: n[3],
                        duplicates_rejected: n[4],
                        elapsed_ms: ms(7)?,
                        ..RunStats::default()
                    });
                }
                "term" => {
                    let n = counts(6, 2..6)?;
                    let st = stats
                        .as_mut()
                        .ok_or_else(|| bad("term record before run record"))?;
                    st.termination = Termination::parse(fields[1])
                        .ok_or_else(|| bad(&format!("bad termination {:?}", fields[1])))?;
                    st.stopped_stratum = n[0];
                    st.stopped_iteration = n[1];
                    profile.cancel_polls = n[2];
                    profile.faults_injected = n[3];
                }
                "par" => {
                    let n = counts(5, 1..5)?;
                    profile.shards_spawned = n[0];
                    profile.worker_candidates = n[1];
                    profile.merge_dedup_hits = n[2];
                    profile.merge_partitions = n[3];
                }
                // Optional since its introduction: texts written before the
                // provenance release have no `prov` line and parse with the
                // counters left at zero.
                "prov" => {
                    let n = counts(3, 1..3)?;
                    profile.prov_edges = n[0];
                    profile.prov_parents = n[1];
                }
                // Also optional: texts written before incremental updates
                // existed have no `upd` line and parse with zeroes.
                "upd" => {
                    let n = counts(6, 1..6)?;
                    profile.update_inserted = n[0];
                    profile.update_deleted = n[1];
                    profile.update_overdeleted = n[2];
                    profile.update_rederived = n[3];
                    profile.update_fallbacks = n[4];
                }
                "stratum" => {
                    let n = counts(7, 1..6)?;
                    profile.strata.push(StratumProfile {
                        stratum: n[0],
                        iterations: n[1],
                        derived_facts: n[2],
                        duplicates_rejected: n[3],
                        nulls_minted: n[4],
                        elapsed_ms: ms(7)?,
                    });
                }
                "rule" => {
                    let n = counts(8, 3..7)?;
                    profile.rules.push(RuleProfile {
                        rule: counts(8, 1..2)?[0],
                        head: unescape(fields[2])
                            .map_err(|e| bad(&e.to_string()))?,
                        evaluations: n[0],
                        delta_evaluations: n[1],
                        bindings_enumerated: n[2],
                        facts_emitted: n[3],
                        elapsed_ms: ms(8)?,
                    });
                }
                other => return Err(bad(&format!("unknown record type {other:?}"))),
            }
        }
        let mut stats = stats.ok_or_else(|| CodecError::new("missing run record"))?;
        stats.profile = profile;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            strata: 2,
            iterations: 5,
            derived_facts: 42,
            nulls_created: 3,
            duplicates_rejected: 7,
            elapsed_ms: 1.5,
            termination: Termination::Complete,
            stopped_stratum: 1,
            stopped_iteration: 2,
            profile: ChaseProfile {
                strata: vec![
                    StratumProfile {
                        stratum: 0,
                        iterations: 3,
                        derived_facts: 40,
                        duplicates_rejected: 7,
                        nulls_minted: 3,
                        elapsed_ms: 1.25,
                    },
                    StratumProfile {
                        stratum: 1,
                        iterations: 2,
                        derived_facts: 2,
                        duplicates_rejected: 0,
                        nulls_minted: 0,
                        elapsed_ms: 0.125,
                    },
                ],
                rules: vec![RuleProfile {
                    rule: 0,
                    head: "path,odd|name".to_string(),
                    evaluations: 4,
                    delta_evaluations: 3,
                    bindings_enumerated: 100,
                    facts_emitted: 49,
                    elapsed_ms: 0.75,
                }],
                shards_spawned: 12,
                worker_candidates: 90,
                merge_dedup_hits: 11,
                merge_partitions: 4,
                cancel_polls: 6,
                faults_injected: 0,
                prov_edges: 42,
                prov_parents: 97,
                update_inserted: 5,
                update_deleted: 2,
                update_overdeleted: 9,
                update_rederived: 4,
                update_fallbacks: 1,
            },
        }
    }

    #[test]
    fn round_trips() {
        let stats = sample();
        let text = stats.to_text();
        let parsed = RunStats::from_text(&text).unwrap();
        assert_eq!(parsed, stats);
    }

    #[test]
    fn format_is_line_oriented_and_pipe_escaped() {
        let text = sample().to_text();
        assert!(
            text.starts_with(
                "run|2|5|42|3|7|1.500\nterm|complete|1|2|6|0\npar|12|90|11|4\n\
                 prov|42|97\nupd|5|2|9|4|1\n"
            ),
            "{text}"
        );
        assert_eq!(text.lines().count(), 8);
        assert!(
            text.contains("rule|0|path,odd\\pname|4|3|100|49|0.750"),
            "head with a pipe must be escaped: {text}"
        );
    }

    #[test]
    fn pre_provenance_texts_still_parse_with_zero_prov_counters() {
        // Verbatim output of `to_text` from before the `prov` record
        // existed — the codec must keep accepting it forever.
        let fixture = "run|2|5|42|3|7|1.500\n\
                       term|complete|1|2|6|0\n\
                       par|12|90|11|4\n\
                       stratum|0|3|40|7|3|1.250\n\
                       stratum|1|2|2|0|0|0.125\n\
                       rule|0|path,odd\\pname|4|3|100|49|0.750\n";
        let parsed = RunStats::from_text(fixture).unwrap();
        let mut expected = sample();
        expected.profile.prov_edges = 0;
        expected.profile.prov_parents = 0;
        expected.profile.update_inserted = 0;
        expected.profile.update_deleted = 0;
        expected.profile.update_overdeleted = 0;
        expected.profile.update_rederived = 0;
        expected.profile.update_fallbacks = 0;
        assert_eq!(parsed, expected);
        // And a malformed prov record still errors.
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nprov|1\n").is_err(),
            "short prov record"
        );
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nprov|a|b\n").is_err(),
            "non-numeric prov record"
        );
    }

    #[test]
    fn pre_update_texts_still_parse_with_zero_update_counters() {
        // Verbatim output of `to_text` from before the `upd` record existed
        // (provenance release vintage) — must keep parsing forever.
        let fixture = "run|2|5|42|3|7|1.500\n\
                       term|complete|1|2|6|0\n\
                       par|12|90|11|4\n\
                       prov|42|97\n\
                       stratum|0|3|40|7|3|1.250\n\
                       stratum|1|2|2|0|0|0.125\n\
                       rule|0|path,odd\\pname|4|3|100|49|0.750\n";
        let parsed = RunStats::from_text(fixture).unwrap();
        let mut expected = sample();
        expected.profile.update_inserted = 0;
        expected.profile.update_deleted = 0;
        expected.profile.update_overdeleted = 0;
        expected.profile.update_rederived = 0;
        expected.profile.update_fallbacks = 0;
        assert_eq!(parsed, expected);
        // Malformed upd records still error.
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nupd|1|2\n").is_err(),
            "short upd record"
        );
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nupd|a|b|c|d|e\n").is_err(),
            "non-numeric upd record"
        );
    }

    #[test]
    fn truncated_terminations_round_trip() {
        for t in [
            Termination::FactCap,
            Termination::IterationCap,
            Termination::Deadline,
            Termination::Cancelled,
            Termination::MemoryBudget,
        ] {
            let mut stats = sample();
            stats.termination = t;
            stats.stopped_stratum = 0;
            stats.stopped_iteration = 3;
            stats.profile.faults_injected = 2;
            let parsed = RunStats::from_text(&stats.to_text()).unwrap();
            assert_eq!(parsed, stats, "{t}");
        }
    }

    #[test]
    fn live_engine_stats_round_trip() {
        let program = crate::parse_program(
            "edge(X,Y) -> path(X,Y). path(X,Y), edge(Y,Z) -> path(X,Z).",
        )
        .unwrap();
        let engine = crate::Engine::new(program).unwrap();
        let (_, stats) = engine
            .run_with_facts(&[(
                "edge",
                vec![
                    vec![kgm_common::Value::Int(1), kgm_common::Value::Int(2)],
                    vec![kgm_common::Value::Int(2), kgm_common::Value::Int(3)],
                ],
            )])
            .unwrap();
        let parsed = RunStats::from_text(&stats.to_text()).unwrap();
        assert_eq!(parsed.derived_facts, stats.derived_facts);
        assert_eq!(parsed.profile.strata.len(), stats.profile.strata.len());
        assert_eq!(parsed.profile.rules.len(), 2);
        assert_eq!(parsed.profile.rules[1].head, "path");
        // Times are rounded to microseconds by the codec; everything else is
        // exact.
        assert!((parsed.elapsed_ms - stats.elapsed_ms).abs() < 0.001);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(RunStats::from_text("").is_err(), "missing run record");
        assert!(RunStats::from_text("run|1|2|3\n").is_err(), "short record");
        assert!(
            RunStats::from_text("run|a|2|3|4|5|6.0\n").is_err(),
            "non-numeric"
        );
        let doubled = "run|1|1|1|1|1|1.0\nrun|1|1|1|1|1|1.0\n";
        assert!(RunStats::from_text(doubled).is_err(), "duplicate run");
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nbogus|1\n").is_err(),
            "unknown record"
        );
        let err = RunStats::from_text("run|1|1|1|1|1|1.0\nstratum|x|1|1|1|1|1.0\n")
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(
            RunStats::from_text("term|complete|0|0|0|0\n").is_err(),
            "term before run"
        );
        assert!(
            RunStats::from_text("run|1|1|1|1|1|1.0\nterm|sideways|0|0|0|0\n").is_err(),
            "unknown termination"
        );
    }
}
