//! Event type schemas and the schema registry.
//!
//! "An event type E is defined by a schema which specifies the set of event
//! attributes and the domains of their values" (§2). The registry interns
//! type names into dense [`TypeId`]s and attribute names into per-type
//! [`AttrId`]s so that the hot path (expression evaluation, routing) works
//! on integer indices, never on strings.

use crate::error::EventError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Dense identifier of a registered event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Index into registry-ordered arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Positional identifier of an attribute within one event type's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrId(pub u16);

impl AttrId {
    /// Index into the event's attribute array.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned string id (see [`SymbolTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Index into symbol-ordered arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A `u32` string-interning table.
///
/// Type and attribute names already resolve to dense [`TypeId`]s /
/// [`AttrId`]s at translation time; the symbol table closes the
/// remaining gap: every string the hot path touches — names *and*
/// recurring string constants such as lane labels — maps to a `u32`
/// [`Symbol`] backed by one canonical `Arc<str>`. Handing out the
/// canonical `Arc` (see [`canonical`](Self::canonical)) means repeated
/// values share one allocation and string equality short-circuits on
/// pointer identity instead of hashing or walking bytes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    strings: Vec<Arc<str>>,
    #[serde(skip)]
    by_str: HashMap<Arc<str>, u32>,
}

impl SymbolTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string, returning its (stable) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&id) = self.by_str.get(s) {
            return Symbol(id);
        }
        let id = self.strings.len() as u32;
        let arc: Arc<str> = Arc::from(s);
        self.by_str.insert(arc.clone(), id);
        self.strings.push(arc);
        Symbol(id)
    }

    /// Looks up an already-interned string.
    #[must_use]
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.by_str.get(s).copied().map(Symbol)
    }

    /// The canonical string of a symbol.
    #[must_use]
    pub fn resolve(&self, sym: Symbol) -> &Arc<str> {
        &self.strings[sym.index()]
    }

    /// Interns `s` and returns the canonical `Arc` — every caller gets
    /// the *same* allocation, so downstream equality checks hit the
    /// pointer-identity fast path.
    pub fn canonical(&mut self, s: &str) -> Arc<str> {
        let sym = self.intern(s);
        self.strings[sym.index()].clone()
    }

    /// Number of interned symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Rebuilds the lookup index after deserialization (serde skips it).
    pub fn rebuild_index(&mut self) {
        self.by_str = self
            .strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }
}

/// Declared domain of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// String.
    Str,
    /// Boolean.
    Bool,
}

/// One attribute declaration: a name and a domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name (e.g. `vid`, `speed`).
    pub name: Arc<str>,
    /// Attribute domain.
    pub ty: AttrType,
}

/// An event type: name plus ordered attribute declarations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Type name (e.g. `PositionReport`).
    pub name: Arc<str>,
    /// Ordered attributes; positions are the [`AttrId`]s.
    pub attrs: Vec<AttrDef>,
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    #[must_use]
    pub fn new(name: impl AsRef<str>, attrs: &[(&str, AttrType)]) -> Self {
        Self {
            name: Arc::from(name.as_ref()),
            attrs: attrs
                .iter()
                .map(|(n, t)| AttrDef {
                    name: Arc::from(*n),
                    ty: *t,
                })
                .collect(),
        }
    }

    /// Resolves an attribute name to its positional id.
    pub fn attr_id(&self, name: &str) -> Result<AttrId, EventError> {
        self.attrs
            .iter()
            .position(|a| a.name.as_ref() == name)
            .map(|i| AttrId(i as u16))
            .ok_or_else(|| EventError::UnknownAttr {
                event_type: self.name.to_string(),
                attr: name.to_string(),
            })
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }
}

/// Interning registry of all event types known to one CAESAR application.
///
/// Derived (complex) event types are registered on the fly during plan
/// translation; the registry is then frozen and shared read-only across
/// the executor threads.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SchemaRegistry {
    types: Vec<Schema>,
    #[serde(skip)]
    by_name: HashMap<Arc<str>, TypeId>,
    /// Symbol table over every type and attribute name (plus whatever
    /// string constants callers intern); rebuilt alongside `by_name`
    /// after deserialization.
    #[serde(skip)]
    symbols: SymbolTable,
    /// Per-type name symbol, indexed by [`TypeId`].
    #[serde(skip)]
    type_symbols: Vec<Symbol>,
}

impl SchemaRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a schema, returning its dense id. Re-registering an
    /// identical schema is idempotent; conflicting redefinition is an error.
    pub fn register(&mut self, schema: Schema) -> Result<TypeId, EventError> {
        if let Some(&id) = self.by_name.get(&schema.name) {
            if self.types[id.index()] == schema {
                return Ok(id);
            }
            return Err(EventError::DuplicateType(schema.name.to_string()));
        }
        let id = TypeId(self.types.len() as u32);
        self.by_name.insert(schema.name.clone(), id);
        self.type_symbols.push(self.symbols.intern(&schema.name));
        for attr in &schema.attrs {
            self.symbols.intern(&attr.name);
        }
        self.types.push(schema);
        Ok(id)
    }

    /// Looks up a type by name.
    pub fn lookup(&self, name: &str) -> Result<TypeId, EventError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| EventError::UnknownType(name.to_string()))
    }

    /// Returns the schema of a registered type.
    #[must_use]
    pub fn schema(&self, id: TypeId) -> &Schema {
        &self.types[id.index()]
    }

    /// Returns the schema by name, if registered.
    #[must_use]
    pub fn schema_by_name(&self, name: &str) -> Option<&Schema> {
        self.by_name.get(name).map(|id| &self.types[id.index()])
    }

    /// Number of registered types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Returns `true` when no types are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Iterates `(TypeId, &Schema)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &Schema)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, s)| (TypeId(i as u32), s))
    }

    /// The registry's symbol table.
    #[must_use]
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The interned symbol of a registered type's name.
    #[must_use]
    pub fn type_symbol(&self, id: TypeId) -> Symbol {
        self.type_symbols[id.index()]
    }

    /// Rebuilds the name index and symbol table after deserialization
    /// (serde skips both).
    pub fn rebuild_index(&mut self) {
        self.by_name = self
            .types
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), TypeId(i as u32)))
            .collect();
        self.symbols = SymbolTable::new();
        self.type_symbols = self
            .types
            .iter()
            .map(|s| {
                let sym = self.symbols.intern(&s.name);
                for attr in &s.attrs {
                    self.symbols.intern(&attr.name);
                }
                sym
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn position_report() -> Schema {
        Schema::new(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("speed", AttrType::Int),
                ("xway", AttrType::Int),
                ("lane", AttrType::Str),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("pos", AttrType::Int),
            ],
        )
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = SchemaRegistry::new();
        let id = reg.register(position_report()).unwrap();
        assert_eq!(reg.lookup("PositionReport").unwrap(), id);
        assert_eq!(reg.schema(id).arity(), 8);
    }

    #[test]
    fn idempotent_registration() {
        let mut reg = SchemaRegistry::new();
        let a = reg.register(position_report()).unwrap();
        let b = reg.register(position_report()).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn conflicting_registration_is_error() {
        let mut reg = SchemaRegistry::new();
        reg.register(position_report()).unwrap();
        let conflicting = Schema::new("PositionReport", &[("vid", AttrType::Int)]);
        assert!(matches!(
            reg.register(conflicting),
            Err(EventError::DuplicateType(_))
        ));
    }

    #[test]
    fn attr_resolution() {
        let s = position_report();
        assert_eq!(s.attr_id("vid").unwrap(), AttrId(0));
        assert_eq!(s.attr_id("lane").unwrap(), AttrId(4));
        assert!(s.attr_id("nope").is_err());
    }

    #[test]
    fn unknown_type_lookup_fails() {
        let reg = SchemaRegistry::new();
        assert!(matches!(
            reg.lookup("Ghost"),
            Err(EventError::UnknownType(_))
        ));
    }

    #[test]
    fn rebuild_index_restores_lookups() {
        let mut reg = SchemaRegistry::new();
        reg.register(position_report()).unwrap();
        let mut cloned = SchemaRegistry {
            types: reg.types.clone(),
            by_name: HashMap::new(),
            symbols: SymbolTable::new(),
            type_symbols: Vec::new(),
        };
        assert!(cloned.lookup("PositionReport").is_err());
        cloned.rebuild_index();
        assert!(cloned.lookup("PositionReport").is_ok());
        // Symbols are rebuilt deterministically from registration order.
        assert_eq!(
            cloned.type_symbol(reg.lookup("PositionReport").unwrap()),
            reg.type_symbol(reg.lookup("PositionReport").unwrap()),
        );
    }

    #[test]
    fn symbol_table_interns_once_and_shares_allocations() {
        let mut t = SymbolTable::new();
        let a = t.intern("travel");
        let b = t.intern("exit");
        assert_ne!(a, b);
        assert_eq!(t.intern("travel"), a, "idempotent");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("exit"), Some(b));
        assert_eq!(t.get("ghost"), None);
        // Canonical handles are pointer-identical across calls.
        let x = t.canonical("travel");
        let y = t.canonical("travel");
        assert!(Arc::ptr_eq(&x, &y));
        assert!(Arc::ptr_eq(&x, t.resolve(a)));
    }

    #[test]
    fn symbol_table_round_trips_and_rebuilds() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let bytes = serde::to_bytes(&t);
        let mut back: SymbolTable = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("b"), None, "index skipped on the wire");
        back.rebuild_index();
        assert_eq!(back.get("b"), t.get("b"));
    }

    #[test]
    fn registry_interns_type_and_attr_names() {
        let mut reg = SchemaRegistry::new();
        let id = reg.register(position_report()).unwrap();
        let sym = reg.type_symbol(id);
        assert_eq!(reg.symbols().resolve(sym).as_ref(), "PositionReport");
        assert!(reg.symbols().get("speed").is_some());
        assert!(reg.symbols().get("nope").is_none());
    }
}
