//! The differential harness: one generated workload, the full engine
//! mode matrix, byte-identical comparison against the reference oracle.
//!
//! Every leg of [`standard_matrix`] runs the workload's event stream
//! through the real engine — sequential and sharded, each observability
//! level, both consistency levels, optimized and unoptimized plans,
//! shared and (one leg) unshared, plus a mid-stream snapshot/restore
//! leg — and must reproduce the oracle's
//! outputs *byte for byte* (after canonical ordering; shards and
//! watermark phases interleave emission order, which is not part of
//! the contract) along with its deterministic counters. On mismatch the harness reports the seed,
//! the failing leg and the pretty-printed model, and [`shrink_workload`]
//! greedily minimizes the reproducer.

use crate::generate::Workload;
use crate::oracle::{Oracle, OracleRun};
use caesar_algebra::translate::{translate_query_set, TranslateOptions};
use caesar_events::{codec, Event, OutputRecord, SchemaRegistry};
use caesar_optimizer::{OptimizedProgram, Optimizer, OptimizerConfig};
use caesar_query::{pretty, QuerySet};
use caesar_runtime::{
    run_mode_full, standard_matrix, Consistency, EngineConfig, ModeSpec, RunReport,
};
use std::collections::BTreeMap;
use std::fmt;

/// A differential divergence: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct DiffFailure {
    /// Seed of the failing workload.
    pub seed: u64,
    /// Label of the first diverging matrix leg.
    pub leg: String,
    /// What differed (counter values, output multiset sizes, ...).
    pub detail: String,
    /// Pretty-printed model (parseable CAESAR text).
    pub model_text: String,
    /// Compact rendering of the event stream.
    pub events_text: String,
}

impl fmt::Display for DiffFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "differential mismatch (seed {:#018x})", self.seed)?;
        writeln!(f, "  leg:    {}", self.leg)?;
        writeln!(f, "  detail: {}", self.detail)?;
        writeln!(f, "  model:\n{}", indent(&self.model_text))?;
        writeln!(f, "  events: {}", self.events_text)
    }
}

impl std::error::Error for DiffFailure {}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders the stream compactly: `type@t/pN[attrs]`.
pub(crate) fn render_events(events: &[Event], registry: &SchemaRegistry) -> String {
    let rows: Vec<String> = events
        .iter()
        .map(|e| {
            let name = registry.schema(e.type_id).name.clone();
            format!("{name}@{}/p{}{:?}", e.time(), e.partition.0, e.attrs)
        })
        .collect();
    rows.join(" ")
}

/// Both programs (optimized / unoptimized) plus the post-translation
/// registry. Translation registers derived output types; running it
/// twice over clones of the same input registry yields identical ids,
/// so canonical output encodings compare across every leg and the
/// oracle.
pub fn build_programs(
    workload: &Workload,
) -> Result<(OptimizedProgram, OptimizedProgram, SchemaRegistry), String> {
    let qs = QuerySet::from_model(&workload.model).map_err(|e| e.to_string())?;
    let options = TranslateOptions {
        default_within: workload.default_within,
    };
    let mut reg_opt = workload.registry.clone();
    let t_opt = translate_query_set(&qs, &mut reg_opt, &options).map_err(|e| e.to_string())?;
    let mut reg_unopt = workload.registry.clone();
    let t_unopt = translate_query_set(&qs, &mut reg_unopt, &options).map_err(|e| e.to_string())?;
    let optimized = Optimizer::default().optimize(t_opt, &reg_opt);
    let unoptimized = Optimizer {
        config: OptimizerConfig::unoptimized(),
        ..Optimizer::default()
    }
    .optimize(t_unopt, &reg_unopt);
    Ok((optimized, unoptimized, reg_opt))
}

/// Canonical form of an output multiset: per-event codec encodings,
/// sorted. Total order over events, preserves multiplicity, and two
/// multisets are equal iff their canonical forms are.
pub fn canonical(events: &[Event]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = events.iter().map(codec::encode_to_vec).collect();
    keys.sort_unstable();
    keys
}

/// Applies a speculative record stream: each retraction cancels one
/// prior emission of the byte-identical event. Returns the surviving
/// multiset in canonical (sorted per-event encoding) form — the value
/// that must equal [`canonical`] of the leg's settled outputs — or an
/// error if some retraction had nothing to cancel (which would mean the
/// engine retracted an output it never emitted).
pub fn fold_records(records: &[OutputRecord]) -> Result<Vec<Vec<u8>>, String> {
    let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (i, record) in records.iter().enumerate() {
        let key = codec::encode_to_vec(record.event());
        if record.is_retraction() {
            match counts.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    if *n == 0 {
                        counts.remove(&key);
                    }
                }
                _ => {
                    return Err(format!(
                        "record {i}: retraction without a matching prior emission"
                    ))
                }
            }
        } else {
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    for (key, n) in counts {
        for _ in 0..n {
            out.push(key.clone());
        }
    }
    Ok(out)
}

pub(crate) fn compare_leg(
    workload: &Workload,
    spec: &ModeSpec,
    report: &RunReport,
    outputs: &[Event],
    records: &[OutputRecord],
    oracle_run: &OracleRun,
) -> Result<(), String> {
    if spec.config.consistency == Consistency::Speculative {
        let folded = fold_records(records)?;
        if folded != canonical(outputs) {
            return Err(format!(
                "speculative records do not fold to the settled outputs \
                 ({} records: {} emissions, {} retractions; {} settled outputs) [{}]",
                records.len(),
                records.iter().filter(|r| !r.is_retraction()).count(),
                records.iter().filter(|r| r.is_retraction()).count(),
                outputs.len(),
                spec.label
            ));
        }
    } else if !records.is_empty() {
        return Err(format!(
            "strict leg produced {} speculative records [{}]",
            records.len(),
            spec.label
        ));
    }
    if report.events_in != oracle_run.events_in {
        return Err(format!(
            "events_in: engine {} vs oracle {} (late-dropped input?)",
            report.events_in, oracle_run.events_in
        ));
    }
    if report.transitions_applied != oracle_run.transitions_applied {
        return Err(format!(
            "transitions_applied: engine {} vs oracle {}",
            report.transitions_applied, oracle_run.transitions_applied
        ));
    }
    if report.events_out != oracle_run.events_out {
        return Err(format!(
            "events_out: engine {} vs oracle {}",
            report.events_out, oracle_run.events_out
        ));
    }
    for name in &workload.output_types {
        let engine_n = report.outputs_of(name);
        let oracle_n = oracle_run.outputs_of(name);
        if engine_n != oracle_n {
            return Err(format!(
                "outputs_of({name}): engine {engine_n} vs oracle {oracle_n}"
            ));
        }
    }
    let engine_bytes = canonical(outputs);
    let oracle_bytes = canonical(&oracle_run.outputs);
    if engine_bytes != oracle_bytes {
        let first_diff = engine_bytes
            .iter()
            .zip(oracle_bytes.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| engine_bytes.len().min(oracle_bytes.len()));
        return Err(format!(
            "output bytes diverge ({} engine vs {} oracle events, first difference at \
             canonical index {first_diff}) [{}]",
            engine_bytes.len(),
            oracle_bytes.len(),
            spec.label
        ));
    }
    Ok(())
}

/// Runs every matrix leg of `workload` against an explicit oracle run.
/// The mutation smoke-check passes a deliberately wrong oracle here and
/// expects an `Err`.
pub fn check_workload_against(
    workload: &Workload,
    oracle_run: &OracleRun,
) -> Result<(), DiffFailure> {
    let fail = |leg: &str, detail: String| DiffFailure {
        seed: workload.seed,
        leg: leg.to_string(),
        detail,
        model_text: pretty::model_to_string(&workload.model),
        events_text: render_events(&workload.events, &workload.registry),
    };
    let (optimized, unoptimized, registry) =
        build_programs(workload).map_err(|e| fail("build", e))?;
    for spec in standard_matrix(workload.reorder_slack, workload.events.len()) {
        let program = if spec.optimized {
            &optimized
        } else {
            &unoptimized
        };
        let (report, outputs, records) = run_mode_full(program, &registry, &spec, &workload.events)
            .map_err(|e| fail(&spec.label, format!("engine error: {e}")))?;
        compare_leg(workload, &spec, &report, &outputs, &records, oracle_run)
            .map_err(|detail| fail(&spec.label, detail))?;
    }
    Ok(())
}

/// The provenance differential: the engine in timestamp-collecting mode
/// against the oracle with provenance attached. Provenance participates
/// in the wire encoding, so the canonical byte comparison pins every
/// collected `(type, occurrence)` step exactly — on an optimized leg
/// (every eligible shared-prefix group installed) and an unoptimized
/// one.
pub fn check_workload_provenance(workload: &Workload) -> Result<(), DiffFailure> {
    let fail = |leg: &str, detail: String| DiffFailure {
        seed: workload.seed,
        leg: leg.to_string(),
        detail,
        model_text: pretty::model_to_string(&workload.model),
        events_text: render_events(&workload.events, &workload.registry),
    };
    let (optimized, unoptimized, registry) =
        build_programs(workload).map_err(|e| fail("build", e))?;
    let oracle = Oracle::build(&workload.model, &registry, workload.default_within)
        .map_err(|e| fail("oracle", e.to_string()))?
        .with_provenance(true);
    let oracle_run = oracle.run(&workload.events);
    let base = || {
        EngineConfig::builder()
            .reorder_slack(workload.reorder_slack)
            .provenance(true)
    };
    let unopt_spec = ModeSpec {
        optimized: false,
        ..ModeSpec::sequential("prov/unoptimized", base().build())
    };
    let legs = [
        (
            ModeSpec::sequential("prov/optimized", base().build()),
            &optimized,
        ),
        (unopt_spec, &unoptimized),
    ];
    for (spec, program) in legs {
        let (report, outputs, records) = run_mode_full(program, &registry, &spec, &workload.events)
            .map_err(|e| fail(&spec.label, format!("engine error: {e}")))?;
        compare_leg(workload, &spec, &report, &outputs, &records, &oracle_run)
            .map_err(|detail| fail(&spec.label, detail))?;
    }
    Ok(())
}

/// The full differential check: reference-oracle run, then every leg of
/// the standard mode matrix, byte-identical outputs and equal counters.
pub fn check_workload(workload: &Workload) -> Result<(), DiffFailure> {
    let oracle_run = oracle_run(workload).map_err(|e| DiffFailure {
        seed: workload.seed,
        leg: "oracle".into(),
        detail: e,
        model_text: pretty::model_to_string(&workload.model),
        events_text: render_events(&workload.events, &workload.registry),
    })?;
    check_workload_against(workload, &oracle_run)
}

/// Evaluates the workload on the reference oracle alone.
pub fn oracle_run(workload: &Workload) -> Result<OracleRun, String> {
    let (_, _, registry) = build_programs(workload)?;
    let oracle = Oracle::build(&workload.model, &registry, workload.default_within)
        .map_err(|e| e.to_string())?;
    Ok(oracle.run(&workload.events))
}

/// Evaluates the workload on a deliberately broken oracle — the
/// mutation smoke-check feeds this to [`check_workload_against`] and
/// demands a mismatch, proving the harness has teeth.
pub fn mutated_oracle_run(
    workload: &Workload,
    mutation: crate::oracle::Mutation,
) -> Result<OracleRun, String> {
    let (_, _, registry) = build_programs(workload)?;
    let oracle = Oracle::build_mutated(
        &workload.model,
        &registry,
        workload.default_within,
        mutation,
    )
    .map_err(|e| e.to_string())?;
    Ok(oracle.run(&workload.events))
}

/// Greedy shrink: repeatedly try structural reductions (drop events,
/// drop queries, strip clauses, drop negations) and keep any that still
/// fails [`check_workload`], until no reduction helps. Returns the
/// minimal failing workload (the input itself if nothing smaller
/// fails).
#[must_use]
pub fn shrink_workload(workload: &Workload) -> Workload {
    let fails = |w: &Workload| check_workload(w).is_err();
    if !fails(workload) {
        return workload.clone();
    }
    let mut best = workload.clone();
    loop {
        let mut improved = false;
        for candidate in reductions(&best) {
            if candidate.model.validate().is_err() {
                continue;
            }
            if fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// All one-step reductions of a workload, biggest cuts first.
fn reductions(w: &Workload) -> Vec<Workload> {
    let mut out = Vec::new();
    let with_events = |events: Vec<Event>| -> Workload {
        let reorder_slack = caesar_events::max_lateness(&events);
        Workload {
            events,
            reorder_slack,
            ..w.clone()
        }
    };
    let n = w.events.len();
    if n > 1 {
        out.push(with_events(w.events[n / 2..].to_vec()));
        out.push(with_events(w.events[..n / 2].to_vec()));
        for i in 0..n.min(40) {
            let mut events = w.events.clone();
            events.remove(i);
            out.push(with_events(events));
        }
    }
    for (ci, ctx) in w.model.contexts.iter().enumerate() {
        for qi in 0..ctx.processing.len() {
            let mut m = w.model.clone();
            m.contexts[ci].processing.remove(qi);
            if m.contexts.iter().any(|c| !c.processing.is_empty()) {
                out.push(Workload {
                    model: m,
                    ..w.clone()
                });
            }
        }
        for qi in 0..ctx.deriving.len() {
            let mut m = w.model.clone();
            m.contexts[ci].deriving.remove(qi);
            out.push(Workload {
                model: m,
                ..w.clone()
            });
        }
        for (qi, q) in ctx.processing.iter().enumerate() {
            if q.where_clause.is_some() {
                let mut m = w.model.clone();
                m.contexts[ci].processing[qi].where_clause = None;
                out.push(Workload {
                    model: m,
                    ..w.clone()
                });
            }
            if let caesar_query::Pattern::Seq(elements) = &q.pattern {
                // Drop a negated element (the WHERE may reference its
                // variable; validation filters those candidates out).
                for (ei, element) in elements.iter().enumerate() {
                    if matches!(element, caesar_query::Pattern::Event { negated: true, .. }) {
                        let mut remaining = elements.clone();
                        remaining.remove(ei);
                        let mut m = w.model.clone();
                        m.contexts[ci].processing[qi].pattern = if remaining.len() == 1 {
                            remaining.pop().expect("one element")
                        } else {
                            caesar_query::Pattern::Seq(remaining)
                        };
                        out.push(Workload {
                            model: m,
                            ..w.clone()
                        });
                    }
                }
            }
        }
    }
    out
}
