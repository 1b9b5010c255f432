//! The CAESAR model (Definition 4): a finite set of context types with
//! query workloads and a default context.
//!
//! "A CAESAR model is a tuple (I, O, C, c_d) where I and O are unbounded
//! input and output event streams and C is a finite set of context types
//! with the default context type c_d ∈ C." The default context holds when
//! no other context does (e.g. at system startup).

use crate::ast::{ContextAction, EventQuery, Expr, Pattern};
use crate::error::QueryError;

/// One context type (Definition 1): a name plus the workloads of
/// context-deriving queries `Q_d` and context-processing queries `Q_p`
/// appropriate in this context.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextDef {
    /// Context name (e.g. `congestion`).
    pub name: String,
    /// Queries that, while this context holds, can initiate / switch /
    /// terminate contexts.
    pub deriving: Vec<EventQuery>,
    /// The analytics workload evaluated while this context holds.
    pub processing: Vec<EventQuery>,
}

impl ContextDef {
    /// Creates an empty context type.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            deriving: Vec::new(),
            processing: Vec::new(),
        }
    }

    /// Total number of queries attached to the context.
    #[must_use]
    pub fn workload_size(&self) -> usize {
        self.deriving.len() + self.processing.len()
    }
}

/// A validated CAESAR model.
#[derive(Debug, Clone, PartialEq)]
pub struct CaesarModel {
    /// Application name.
    pub name: String,
    /// The default context `c_d`, active when no other context holds.
    pub default_context: String,
    /// All context types, in definition order.
    pub contexts: Vec<ContextDef>,
}

impl CaesarModel {
    /// Builds and validates a model.
    pub fn new(
        name: impl Into<String>,
        default_context: impl Into<String>,
        contexts: Vec<ContextDef>,
    ) -> Result<Self, QueryError> {
        let model = Self {
            name: name.into(),
            default_context: default_context.into(),
            contexts,
        };
        model.validate()?;
        Ok(model)
    }

    /// Finds a context definition by name.
    #[must_use]
    pub fn context(&self, name: &str) -> Option<&ContextDef> {
        self.contexts.iter().find(|c| c.name == name)
    }

    /// All context names, sorted alphabetically — the order of entries in
    /// the context bit vector (§6.2: "entries are sorted alphabetically
    /// by context names to allow for constant time access").
    #[must_use]
    pub fn context_names_sorted(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.contexts.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Iterates all queries (deriving then processing) of all contexts.
    pub fn all_queries(&self) -> impl Iterator<Item = (&ContextDef, &EventQuery)> {
        self.contexts.iter().flat_map(|c| {
            c.deriving
                .iter()
                .chain(c.processing.iter())
                .map(move |q| (c, q))
        })
    }

    /// Total number of queries in the model.
    #[must_use]
    pub fn query_count(&self) -> usize {
        self.contexts.iter().map(ContextDef::workload_size).sum()
    }

    /// Validates the structural invariants of the model.
    ///
    /// * the default context is defined;
    /// * context names are unique and at most 64 (bit-vector width);
    /// * every `CONTEXT` clause and context action targets a defined
    ///   context;
    /// * every query is exactly one of deriving / processing;
    /// * no pattern is fully negated;
    /// * `WHERE` / `DERIVE` expressions reference only pattern-bound
    ///   variables, and bare attribute references are unambiguous.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.contexts.len() > 64 {
            return Err(QueryError::TooManyContexts(self.contexts.len()));
        }
        let mut seen = std::collections::BTreeSet::new();
        for c in &self.contexts {
            if !seen.insert(c.name.as_str()) {
                return Err(QueryError::DuplicateContext(c.name.clone()));
            }
        }
        if !seen.contains(self.default_context.as_str()) {
            return Err(QueryError::MissingDefaultContext(
                self.default_context.clone(),
            ));
        }
        for (ctx, query) in self.all_queries() {
            let label = query
                .name
                .clone()
                .unwrap_or_else(|| format!("in context {}", ctx.name));
            validate_query(query, &label, &seen)?;
        }
        Ok(())
    }
}

/// Validates one query against the set of defined context names.
pub(crate) fn validate_query(
    query: &EventQuery,
    label: &str,
    known_contexts: &std::collections::BTreeSet<&str>,
) -> Result<(), QueryError> {
    match (&query.action, &query.derive) {
        (Some(_), None) | (None, Some(_)) => {}
        _ => return Err(QueryError::MalformedQuery(label.to_string())),
    }
    if let Some(action) = &query.action {
        if !known_contexts.contains(action.target()) {
            return Err(QueryError::UnknownContext(action.target().to_string()));
        }
        if matches!(action, ContextAction::Switch(_)) && query.contexts.is_empty() {
            return Err(QueryError::SwitchOutsideContext(label.to_string()));
        }
    }
    for ctx in &query.contexts {
        if !known_contexts.contains(ctx.as_str()) {
            return Err(QueryError::UnknownContext(ctx.clone()));
        }
    }
    if query.pattern.all_negated() {
        return Err(QueryError::UnmatchablePattern(label.to_string()));
    }

    let vars = query.pattern.variables();
    let check_expr = |expr: &Expr| -> Result<(), QueryError> {
        for referenced in expr.referenced_vars() {
            match referenced {
                Some(v) => {
                    if !vars.iter().any(|(name, _)| *name == v) {
                        return Err(QueryError::UnboundVariable {
                            var: v.to_string(),
                            query: label.to_string(),
                        });
                    }
                }
                None => {
                    // A bare attribute needs a unique positive variable
                    // to resolve against.
                    let positive: Vec<_> = vars.iter().filter(|(_, neg)| !neg).collect();
                    if positive.len() != 1 {
                        return Err(QueryError::AmbiguousBareAttr {
                            attr: bare_attr_name(expr).unwrap_or_default(),
                            query: label.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    };
    if let Some(w) = &query.where_clause {
        check_expr(w)?;
    }
    if let Some(d) = &query.derive {
        for arg in &d.args {
            check_expr(arg)?;
        }
    }
    let _ = Pattern::elements; // silence unused-import lints in some cfgs
    Ok(())
}

fn bare_attr_name(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Attr { var: None, attr } => Some(attr.clone()),
        Expr::Binary { lhs, rhs, .. } => bare_attr_name(lhs).or_else(|| bare_attr_name(rhs)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ContextAction, DeriveClause, Expr, Pattern};

    fn processing_query(ty: &str, ctx: &str) -> EventQuery {
        EventQuery {
            name: None,
            action: None,
            derive: Some(DeriveClause {
                event_type: format!("Out{ty}"),
                args: vec![Expr::attr("x", "v")],
            }),
            pattern: Pattern::event(ty, "x"),
            where_clause: None,
            within: None,
            contexts: vec![ctx.to_string()],
        }
    }

    fn deriving_query(action: ContextAction, ctx: &str) -> EventQuery {
        EventQuery {
            name: None,
            action: Some(action),
            derive: None,
            pattern: Pattern::event("Trigger", "t"),
            where_clause: None,
            within: None,
            contexts: vec![ctx.to_string()],
        }
    }

    fn two_context_model() -> CaesarModel {
        let mut clear = ContextDef::new("clear");
        clear.deriving.push(deriving_query(
            ContextAction::Switch("busy".into()),
            "clear",
        ));
        let mut busy = ContextDef::new("busy");
        busy.deriving.push(deriving_query(
            ContextAction::Switch("clear".into()),
            "busy",
        ));
        busy.processing.push(processing_query("Load", "busy"));
        CaesarModel::new("m", "clear", vec![clear, busy]).unwrap()
    }

    #[test]
    fn valid_model_builds() {
        let m = two_context_model();
        assert_eq!(m.query_count(), 3);
        assert_eq!(m.context_names_sorted(), vec!["busy", "clear"]);
        assert_eq!(m.context("busy").unwrap().workload_size(), 2);
    }

    #[test]
    fn default_must_exist() {
        let err = CaesarModel::new("m", "ghost", vec![ContextDef::new("a")]).unwrap_err();
        assert!(matches!(err, QueryError::MissingDefaultContext(_)));
    }

    #[test]
    fn duplicate_context_rejected() {
        let err = CaesarModel::new("m", "a", vec![ContextDef::new("a"), ContextDef::new("a")])
            .unwrap_err();
        assert!(matches!(err, QueryError::DuplicateContext(_)));
    }

    #[test]
    fn more_than_64_contexts_rejected() {
        let contexts: Vec<_> = (0..65).map(|i| ContextDef::new(format!("c{i}"))).collect();
        let err = CaesarModel::new("m", "c0", contexts).unwrap_err();
        assert!(matches!(err, QueryError::TooManyContexts(65)));
    }

    #[test]
    fn action_targeting_unknown_context_rejected() {
        let mut a = ContextDef::new("a");
        a.deriving
            .push(deriving_query(ContextAction::Initiate("ghost".into()), "a"));
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::UnknownContext(_)));
    }

    #[test]
    fn query_with_both_action_and_derive_rejected() {
        let mut q = processing_query("X", "a");
        q.action = Some(ContextAction::Initiate("a".into()));
        let mut a = ContextDef::new("a");
        a.processing.push(q);
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::MalformedQuery(_)));
    }

    #[test]
    fn fully_negated_pattern_rejected() {
        let mut q = processing_query("X", "a");
        q.pattern = Pattern::Seq(vec![Pattern::not_event("X", "x")]);
        let mut a = ContextDef::new("a");
        a.processing.push(q);
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::UnmatchablePattern(_)));
    }

    #[test]
    fn unbound_variable_rejected() {
        let mut q = processing_query("X", "a");
        q.where_clause = Some(Expr::bin(
            crate::ast::BinOp::Gt,
            Expr::attr("ghost", "v"),
            Expr::int(0),
        ));
        let mut a = ContextDef::new("a");
        a.processing.push(q);
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::UnboundVariable { .. }));
    }

    #[test]
    fn ambiguous_bare_attr_rejected() {
        let mut q = processing_query("X", "a");
        q.pattern = Pattern::Seq(vec![Pattern::event("X", "x"), Pattern::event("Y", "y")]);
        q.where_clause = Some(Expr::bin(
            crate::ast::BinOp::Gt,
            Expr::bare("v"),
            Expr::int(0),
        ));
        let mut a = ContextDef::new("a");
        a.processing.push(q);
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::AmbiguousBareAttr { .. }));
    }

    #[test]
    fn bare_attr_with_unique_positive_var_is_fine() {
        let mut q = processing_query("X", "a");
        q.pattern = Pattern::Seq(vec![Pattern::not_event("X", "n"), Pattern::event("X", "x")]);
        q.where_clause = Some(Expr::bin(
            crate::ast::BinOp::Gt,
            Expr::bare("v"),
            Expr::int(0),
        ));
        let mut a = ContextDef::new("a");
        a.processing.push(q);
        assert!(CaesarModel::new("m", "a", vec![a]).is_ok());
    }

    #[test]
    fn switch_without_enclosing_context_rejected() {
        let mut q = deriving_query(ContextAction::Switch("a".into()), "a");
        q.contexts.clear();
        let mut a = ContextDef::new("a");
        a.deriving.push(q);
        let err = CaesarModel::new("m", "a", vec![a]).unwrap_err();
        assert!(matches!(err, QueryError::SwitchOutsideContext(_)));
    }
}
