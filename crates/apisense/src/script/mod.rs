//! The crowd-sensing task scripting DSL.
//!
//! APISENSE describes crowd-sensing tasks "as scripts (based on an extension
//! of JavaScript) that are seamlessly offloaded onto mobile devices" (paper,
//! §2). This module provides the equivalent code-as-data capability with a
//! purpose-built language (see `DESIGN.md` §2 for the substitution
//! rationale): a C-like expression language with `let`, `fn`, `if`, `while`,
//! lists and maps, executed sandboxed with an execution-fuel budget and a
//! pluggable [`Host`] API exposing the device's sensors.
//!
//! Execution has two tiers. [`Script::compile`] lowers the AST to a
//! [`CompiledProgram`] executed by the stack-based bytecode [`Vm`] — the
//! default, built for compile-once / run-many sensing loops. The
//! tree-walking [`Interpreter`] is retained as the behavioural baseline
//! ([`Script::run_interpreted`]) and is differentially tested against the
//! VM; both tiers produce identical values, errors and fuel-exhaustion
//! classifications.
//!
//! # Values
//!
//! A [`Value`] is `null`, a boolean, a number, a string, a list or a
//! [`Record`], the language's string-keyed map. A string is an `Arc<str>`,
//! so copying one (a constant push, a variable read) shares its bytes. A
//! record is a [`Shape`], a
//! sorted, deduplicated key list shared through an [`Arc`], plus one value
//! slot per key in key order. Shapes are made once and shared: the compiler
//! interns one per map literal (keys interned as names, so a field read
//! names the key by the same pointer), and a host endpoint such as the
//! device's `sensor.gps` makes its fix shape once. Building a record then
//! costs one slot allocation, and a field read scans the keys comparing
//! pointers first, then strings. Adding a key (`m.k = v` or
//! `m["k"] = v` on a missing key) moves the record to a new shape. Every
//! other construction ([`Record::new`], used by the tree-walker and
//! [`Value::from_json`]) sorts and deduplicates its entries, the last
//! duplicate winning as in a map literal.
//!
//! Records compare by content, so equal keys and values are equal whatever
//! shape they were built against, and [`Value::to_json`] and `Display`
//! list keys in sorted order: the bytes a payload renders to do not depend
//! on how its record was built.
//!
//! # JSON
//!
//! Payloads travel as JSON text. [`Value::to_json`] escapes strings with
//! [`obs::export::escape_json`], and [`Value::from_json`] reads with
//! [`obs::json::parse`]: RFC 8259 numbers only, and arrays and objects
//! nested at most [`obs::json::MAX_DEPTH`] (128) deep, so a hostile payload
//! is a typed error, not a stack overflow.
//!
//! # Example
//!
//! ```
//! use apisense::script::{Script, Value, Host};
//! use apisense::ApisenseError;
//!
//! struct FakeDevice;
//! impl Host for FakeDevice {
//!     fn call(&mut self, path: &str, _args: &mut [Value]) -> Result<Value, ApisenseError> {
//!         match path {
//!             "sensor.battery" => Ok(Value::Num(0.83)),
//!             "emit" => Ok(Value::Null),
//!             other => Err(ApisenseError::UnknownSensor(other.to_string())),
//!         }
//!     }
//! }
//!
//! let script = Script::compile(r#"
//!     let level = sensor.battery();
//!     if (level > 0.5) { emit({ "battery": level }); }
//!     level
//! "#).unwrap();
//! let result = script.run(&mut FakeDevice, 10_000).unwrap();
//! assert_eq!(result, Value::Num(0.83));
//! ```

mod compile;
mod interp;
mod lexer;
mod parser;
mod vm;

pub use compile::CompiledProgram;
pub use interp::{Host, Interpreter};
pub use parser::{BinaryOp, Expr, Program, Stmt, UnaryOp, MAX_NESTING};
pub use vm::Vm;

use crate::error::ApisenseError;
use obs::export::escape_json;
use obs::json::JsonValue;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A runtime value of the scripting language.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// The absent value.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit float (the only numeric type, as in JavaScript).
    Num(f64),
    /// A string, shared: cloning one (a constant push, a variable read)
    /// bumps a reference count.
    Str(Arc<str>),
    /// An ordered list.
    List(Vec<Value>),
    /// A string-keyed record (the language's map): a shared key [`Shape`]
    /// plus one value slot per key.
    Record(Record),
}

/// The key set of a [`Record`]: sorted, deduplicated keys, shared through
/// an [`Arc`] by every record built against it. Cloning a shape is one
/// reference-count bump, so a compiled map literal or a host endpoint
/// makes its shape once and stamps records from it without touching the
/// keys again.
#[derive(Clone)]
pub struct Shape(Arc<Vec<Arc<str>>>);

impl Shape {
    /// The shape of `keys`, sorted by byte order and deduplicated.
    pub fn new<K: Into<Arc<str>>>(keys: impl IntoIterator<Item = K>) -> Shape {
        let mut keys: Vec<Arc<str>> = keys.into_iter().map(Into::into).collect();
        keys.sort();
        keys.dedup();
        Shape(Arc::new(keys))
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the shape has no keys.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Slot index of `key`. Each key is compared by pointer first (a key
    /// interned by the same compiler as `key` matches without reading a
    /// byte), then by content.
    pub fn slot(&self, key: &str) -> Option<usize> {
        self.0
            .iter()
            .position(|k| std::ptr::eq::<str>(&**k, key) || **k == *key)
    }

    /// A record of this shape holding `slots`, one value per key in slot
    /// order.
    ///
    /// # Panics
    ///
    /// When `slots` does not hold exactly one value per key.
    pub fn record(&self, slots: Box<[Value]>) -> Record {
        assert_eq!(slots.len(), self.len(), "one slot per key of the shape");
        Record {
            shape: self.clone(),
            slots,
        }
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// A string-keyed record: a [`Shape`] plus one value per key, in the
/// shape's (sorted) key order. Equality compares keys and values, never
/// shape identity, so records built against different shapes with the
/// same keys are equal.
#[derive(Clone, PartialEq)]
pub struct Record {
    shape: Shape,
    slots: Box<[Value]>,
}

impl Record {
    /// Builds a record from `(key, value)` entries in any order; when a key
    /// repeats, the last entry wins (the map-literal rule).
    pub fn new<K: Into<Arc<str>>>(entries: impl IntoIterator<Item = (K, Value)>) -> Record {
        let mut entries: Vec<(Arc<str>, Value)> =
            entries.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable: repeated keys keep their source order, so the last wins.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut keys: Vec<Arc<str>> = Vec::with_capacity(entries.len());
        let mut slots: Vec<Value> = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            match (keys.last(), slots.last_mut()) {
                (Some(last), Some(slot)) if *last == key => *slot = value,
                _ => {
                    keys.push(key);
                    slots.push(value);
                }
            }
        }
        Record {
            shape: Shape(Arc::new(keys)),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The value of field `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.shape.slot(key).map(|i| &self.slots[i])
    }

    /// Moves field `key` out, leaving `null` behind.
    pub fn take(&mut self, key: &str) -> Option<Value> {
        let i = self.shape.slot(key)?;
        Some(std::mem::replace(&mut self.slots[i], Value::Null))
    }

    /// Sets field `key`. A key the shape lacks moves the record to a new
    /// shape with the key added in sorted position.
    pub fn insert(&mut self, key: &str, value: Value) {
        match self.shape.slot(key) {
            Some(i) => self.slots[i] = value,
            None => {
                let at = self.shape.0.partition_point(|k| &**k < key);
                let mut keys = self.shape.0.to_vec();
                keys.insert(at, key.into());
                let mut slots = std::mem::take(&mut self.slots).into_vec();
                slots.insert(at, value);
                self.shape = Shape(Arc::new(keys));
                self.slots = slots.into_boxed_slice();
            }
        }
    }

    /// The fields in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.shape.0.iter().map(|k| &**k).zip(self.slots.iter())
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Value {
    /// JavaScript-style truthiness: `null`, `false`, `0`, `NaN` and `""`
    /// are falsy; everything else is truthy.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::List(_) | Value::Record(_) => true,
        }
    }

    /// Numeric view of the value, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Record view of the value, if it is a record.
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Field `key` of the value, if it is a record that has the field.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.as_record()?.get(key)
    }

    /// Renders the value as JSON text.
    ///
    /// Non-finite numbers become `null` (as in JavaScript's
    /// `JSON.stringify`), so the output is always valid JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => out.push_str(&format!("{n:?}")),
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_json_string(s, out),
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Record(r) => {
                out.push('{');
                for (i, (k, v)) in r.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document into a value with [`obs::json::parse`]. Each
    /// object becomes a record through [`Record::new`]: keys sorted, the
    /// last duplicate winning.
    ///
    /// # Errors
    ///
    /// Returns [`ApisenseError::Runtime`] describing the first syntax error:
    /// trailing non-whitespace input, a number outside the RFC 8259 grammar,
    /// or nesting deeper than [`obs::json::MAX_DEPTH`].
    pub fn from_json(text: &str) -> Result<Value, ApisenseError> {
        obs::json::parse(text)
            .map(Value::from_parsed)
            .map_err(|e| ApisenseError::Runtime(format!("invalid json: {e}")))
    }

    fn from_parsed(json: JsonValue) -> Value {
        match json {
            JsonValue::Null => Value::Null,
            JsonValue::Bool(b) => Value::Bool(b),
            JsonValue::Num(n) => Value::Num(n),
            JsonValue::Str(s) => Value::Str(s.into()),
            JsonValue::Arr(items) => {
                Value::List(items.into_iter().map(Value::from_parsed).collect())
            }
            JsonValue::Obj(pairs) => Value::Record(Record::new(
                pairs.into_iter().map(|(k, v)| (k, Value::from_parsed(v))),
            )),
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&escape_json(s));
    out.push('"');
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Record(r) => {
                write!(f, "{{")?;
                for (i, (k, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

/// A compiled, reusable crowd-sensing script.
///
/// Compilation happens once on the Honeycomb; the compiled script is what
/// the Hive offloads to devices (source travels with it for display and
/// re-compilation on heterogeneous clients). Both representations are
/// behind [`Arc`]s, so cloning a `Script` — per deployment, per device —
/// shares one AST and one [`CompiledProgram`] fleet-wide.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    source: String,
    program: Arc<Program>,
    compiled: Arc<CompiledProgram>,
}

impl Script {
    /// Compiles source text into a script: lexes, parses, and lowers the
    /// AST to bytecode for the VM execution tier.
    ///
    /// # Errors
    ///
    /// Returns [`ApisenseError::Lex`] / [`ApisenseError::Parse`] with
    /// 1-based line numbers on malformed input, or
    /// [`ApisenseError::ScriptCompile`] when the program exceeds a bytecode
    /// capacity limit.
    pub fn compile(source: &str) -> Result<Self, ApisenseError> {
        let tokens = lexer::tokenize(source)?;
        let program = parser::parse(tokens)?;
        let compiled = compile::compile(&program)?;
        Ok(Self {
            source: source.to_string(),
            program: Arc::new(program),
            compiled: Arc::new(compiled),
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The bytecode lowering, shared (via [`Arc`]) by all clones of this
    /// script. Hand it to a cached [`Vm`] for compile-once / run-many
    /// execution.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Runs the script against a host with an execution budget (`fuel` is
    /// roughly the number of AST nodes evaluated; the VM charges it in
    /// per-basic-block batches with identical exhaustion behaviour).
    ///
    /// Executes on the bytecode VM tier. Callers on a hot path should keep
    /// a [`Vm`] and use [`Script::run_vm`] to reuse its allocations;
    /// [`Script::run_interpreted`] selects the tree-walking tier instead.
    ///
    /// Returns the value of the last expression statement, or [`Value::Null`].
    ///
    /// # Errors
    ///
    /// Propagates host errors, runtime type errors and
    /// [`ApisenseError::FuelExhausted`] when the budget runs out.
    pub fn run(&self, host: &mut dyn Host, fuel: u64) -> Result<Value, ApisenseError> {
        Vm::new().run(&self.compiled, host, fuel)
    }

    /// Runs the script on the VM tier with a caller-provided [`Vm`],
    /// reusing its stack/frame allocations and inline caches across
    /// readings.
    ///
    /// # Errors
    ///
    /// Same classification as [`Script::run`].
    pub fn run_vm(
        &self,
        vm: &mut Vm,
        host: &mut dyn Host,
        fuel: u64,
    ) -> Result<Value, ApisenseError> {
        vm.run(&self.compiled, host, fuel)
    }

    /// Runs the script on the tree-walking interpreter tier — the
    /// differential baseline the VM is verified against.
    ///
    /// # Errors
    ///
    /// Same classification as [`Script::run`].
    pub fn run_interpreted(
        &self,
        host: &mut dyn Host,
        fuel: u64,
    ) -> Result<Value, ApisenseError> {
        Interpreter::new(host, fuel).run(&self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_rules() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Num(0.0).is_truthy());
        assert!(!Value::Num(f64::NAN).is_truthy());
        assert!(Value::Num(1.5).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
        assert!(Value::List(vec![]).is_truthy());
        assert!(Value::Record(Record::new(Vec::<(&str, Value)>::new())).is_truthy());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
        assert_eq!(
            Value::List(vec![Value::Num(1.0), Value::Str("a".into())]).to_string(),
            "[1, a]"
        );
        let m = Record::new([("k", Value::Bool(true))]);
        assert_eq!(Value::Record(m).to_string(), "{k: true}");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(2.0), Value::Num(2.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::Num(3.0).as_num(), Some(3.0));
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert!(Value::Null.as_record().is_none());
    }

    #[test]
    fn compile_keeps_source() {
        let s = Script::compile("1 + 2;").unwrap();
        assert_eq!(s.source(), "1 + 2;");
        assert!(!s.program().statements.is_empty());
    }
}
