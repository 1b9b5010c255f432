//! Synthetic overlapping-context workload (§7.3.2, Figure 14).
//!
//! `windows` context types (`w0 … wN-1`) open staggered windows on the
//! timeline: window `i` spans `[i·step, i·step + length]`, so smaller
//! steps mean more windows open simultaneously. Every context carries
//! the *same* `queries_per_context` processing queries (pair patterns
//! over kind-tagged readings), which is exactly the sharing opportunity
//! the context window grouping of Listing 1 exploits: shared execution
//! runs each distinct query once per time slice, the non-shared baseline
//! runs one copy per open window.

use caesar_core::prelude::*;
use caesar_core::CaesarSystem;
use caesar_events::generator::rng;
use caesar_query::parser::parse_model;
use rand::Rng;
use std::fmt::Write;

/// Workload configuration.
#[derive(Debug, Clone)]
pub struct OverlapConfig {
    /// Number of context types / windows.
    pub windows: usize,
    /// Window length in ticks.
    pub length: Time,
    /// Start-to-start distance of consecutive windows
    /// (`overlap = length − step` when positive).
    pub step: Time,
    /// Identical (shareable) queries per context.
    pub queries_per_context: usize,
    /// Context-specific (non-shareable) queries per context — the fixed
    /// per-window work against which Figure 14(c)'s growing shareable
    /// workload is contrasted.
    pub unique_queries_per_context: usize,
    /// Readings per tick.
    pub readings_per_tick: usize,
    /// Quiet ticks after the last window closes.
    pub tail: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        // The paper's §7.3.2 default: 30 windows of length 15 minutes
        // overlapping by 10 minutes (step 5), 4 queries each — scaled
        // to ticks (1 tick = 1 second, 1 "minute" = 4 ticks keeps runs
        // fast while preserving every ratio).
        Self {
            windows: 30,
            length: 60,
            step: 20,
            queries_per_context: 4,
            unique_queries_per_context: 0,
            readings_per_tick: 3,
            tail: 40,
            seed: 5,
        }
    }
}

impl OverlapConfig {
    /// Total experiment duration.
    #[must_use]
    pub fn duration(&self) -> Time {
        self.last_window_end() + self.tail
    }

    fn window_span(&self, i: usize) -> (Time, Time) {
        let start = i as Time * self.step;
        (start, start + self.length)
    }

    fn last_window_end(&self) -> Time {
        self.window_span(self.windows.saturating_sub(1)).1
    }

    /// Maximum number of windows open at any instant.
    #[must_use]
    pub fn max_simultaneous(&self) -> usize {
        if self.step == 0 {
            return self.windows;
        }
        ((self.length / self.step) as usize + 1).min(self.windows)
    }
}

/// Builds the workload's CAESAR model.
#[must_use]
pub fn overlap_model(config: &OverlapConfig) -> CaesarModel {
    let mut quiet = String::new();
    for i in 0..config.windows {
        // Window i may open from quiet or while the previous window is
        // still active.
        let scope = if i == 0 {
            "quiet".to_string()
        } else {
            format!("quiet, w{}", i - 1)
        };
        let _ = writeln!(
            quiet,
            "INITIATE CONTEXT w{i} PATTERN Start s WHERE s.idx = {i} CONTEXT {scope}"
        );
    }
    let mut contexts = String::new();
    for i in 0..config.windows {
        let mut body = format!("TERMINATE CONTEXT w{i} PATTERN End e WHERE e.idx = {i}\n");
        for j in 0..config.queries_per_context {
            // Identical across contexts → shareable; distinct per j via
            // the projected constant only, so every query pays the full
            // pair-matching cost over the whole reading stream.
            let _ = writeln!(
                body,
                "DERIVE Out{j}(b.v, b.sec, {j}) PATTERN SEQ(R a, R b) \
                 WHERE a.v = b.v"
            );
        }
        for u in 0..config.unique_queries_per_context {
            // The window index in the predicate makes the query unique
            // to its context: never shared.
            let _ = writeln!(
                body,
                "DERIVE Uniq{i}_{u}(b.v, b.sec) PATTERN SEQ(R a, R b) \
                 WHERE a.v = b.v AND a.v = {m}",
                m = (i + u) % 8
            );
        }
        let _ = writeln!(contexts, "CONTEXT w{i} {{\n{body}\n}}");
    }
    let text = format!("MODEL overlap DEFAULT quiet\nCONTEXT quiet {{\n{quiet}\n}}\n{contexts}");
    parse_model(&text).expect("generated overlap model is valid")
}

/// Builds a runnable system for the workload.
///
/// # Panics
/// Never for valid configurations.
#[must_use]
pub fn build_system(config: &OverlapConfig, sharing: bool) -> CaesarSystem {
    Caesar::builder()
        .model(overlap_model(config))
        .schema(
            "R",
            &[
                ("v", AttrType::Int),
                ("kind", AttrType::Int),
                ("sec", AttrType::Int),
            ],
        )
        .schema("Start", &[("idx", AttrType::Int), ("sec", AttrType::Int)])
        .schema("End", &[("idx", AttrType::Int), ("sec", AttrType::Int)])
        .within(20)
        .engine_config(EngineConfig::builder().sharing(sharing).build())
        .build()
        .expect("overlap model builds")
}

/// Generates the workload stream: window markers plus kind-tagged
/// readings at the configured rate.
#[must_use]
pub fn overlap_stream(config: &OverlapConfig, system: &CaesarSystem) -> Vec<Event> {
    let mut r = rng(config.seed);
    let mut events = Vec::new();
    for (i, (start, end)) in (0..config.windows).map(|i| (i, config.window_span(i))) {
        events.push(
            system
                .event("Start", start)
                .expect("Start registered")
                .attr("idx", i as i64)
                .expect("idx")
                .attr("sec", start as i64)
                .expect("sec")
                .build()
                .expect("valid"),
        );
        events.push(
            system
                .event("End", end)
                .expect("End registered")
                .attr("idx", i as i64)
                .expect("idx")
                .attr("sec", end as i64)
                .expect("sec")
                .build()
                .expect("valid"),
        );
    }
    let kinds = config.queries_per_context.max(1) as i64;
    for t in 0..config.duration() {
        for _ in 0..config.readings_per_tick {
            let e = system
                .event("R", t)
                .expect("R registered")
                .attr("v", r.gen_range(0..8i64))
                .expect("v")
                .attr("kind", r.gen_range(0..kinds))
                .expect("kind")
                .attr("sec", t as i64)
                .expect("sec")
                .build()
                .expect("valid");
            events.push(e);
        }
    }
    events.sort_by_key(Event::time);
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> OverlapConfig {
        OverlapConfig {
            windows: 3,
            length: 30,
            step: 10,
            queries_per_context: 2,
            unique_queries_per_context: 1,
            readings_per_tick: 2,
            tail: 10,
            seed: 1,
        }
    }

    #[test]
    fn model_builds_and_counts_match() {
        let config = tiny();
        let model = overlap_model(&config);
        assert_eq!(model.contexts.len(), 4, "quiet + 3 windows");
        // 2 shareable + 1 context-unique query per window.
        assert_eq!(model.context("w1").unwrap().processing.len(), 3);
        assert_eq!(config.max_simultaneous(), 3);
    }

    #[test]
    fn shared_mode_deduplicates_overlap_results() {
        // With overlapping windows the non-shared baseline emits one
        // copy of each result per covering window; grouping "deletes
        // duplicate event queries" (Listing 1), so shared counts are
        // strictly smaller but never zero.
        let config = tiny();
        let mut shared = build_system(&config, true);
        let mut plain = build_system(&config, false);
        let events = overlap_stream(&config, &shared);
        let rs = shared.run_stream(events.clone()).unwrap();
        let rp = plain.run_stream(events).unwrap();
        for j in 0..config.queries_per_context {
            let ty = format!("Out{j}");
            assert!(rs.outputs_of(&ty) > 0, "{ty} produced nothing");
            assert!(
                rs.outputs_of(&ty) <= rp.outputs_of(&ty),
                "shared must not out-produce non-shared for {ty}"
            );
        }
    }

    #[test]
    fn without_overlap_shared_and_non_shared_agree_exactly() {
        let config = OverlapConfig {
            windows: 3,
            length: 30,
            step: 50, // disjoint windows
            tail: 20,
            ..tiny()
        };
        let mut shared = build_system(&config, true);
        let mut plain = build_system(&config, false);
        let events = overlap_stream(&config, &shared);
        let rs = shared.run_stream(events.clone()).unwrap();
        let rp = plain.run_stream(events).unwrap();
        for j in 0..config.queries_per_context {
            let ty = format!("Out{j}");
            assert_eq!(rs.outputs_of(&ty), rp.outputs_of(&ty), "{ty}");
            assert!(rs.outputs_of(&ty) > 0);
        }
    }

    #[test]
    fn outputs_only_inside_windows() {
        let config = OverlapConfig {
            windows: 1,
            length: 20,
            step: 100,
            tail: 60,
            ..tiny()
        };
        let mut system = build_system(&config, true);
        let events = overlap_stream(&config, &system);
        let report = system.run_stream(events).unwrap();
        // Readings continue through the tail; pairs must only have
        // formed inside the single window.
        assert!(report.outputs_of("Out0") > 0);
        assert!(report.plans_suspended > 0, "tail must suspend the plans");
    }

    #[test]
    fn stream_is_deterministic() {
        let config = tiny();
        let system = build_system(&config, true);
        let a = overlap_stream(&config, &system);
        let b = overlap_stream(&config, &system);
        assert_eq!(a, b);
    }
}
