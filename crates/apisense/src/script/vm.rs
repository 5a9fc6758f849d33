//! Stack-based bytecode VM: the script engine's fast execution tier.
//!
//! [`Vm::run`] executes a [`CompiledProgram`] produced by the compiler in
//! [`super::compile`] and is behaviourally interchangeable with
//! [`super::Interpreter`]: identical [`Value`] results, identical error
//! classifications (including host-call errors) and identical
//! fuel-exhaustion points, which the differential proptest in
//! `tests/script_differential.rs` exercises across generated programs and
//! fuel budgets. What changes is the cost model:
//!
//! - locals live in a flat `Vec` addressed by precomputed frame slots
//!   (dynamic name walks only for names the compiler could not resolve),
//! - host paths are pre-interned strings handed straight to
//!   [`Host::call`],
//! - call sites carry inline caches: bare-name dispatch (user function vs
//!   host) is resolved once per site and reused until a function
//!   (re)declaration or a new run bumps the VM's binding epoch,
//! - fuel is charged in per-basic-block batches instead of per AST node,
//!   and `vm.fuel_spent` is counted once per run,
//! - a map literal builds its record against the shape the compiler
//!   interned for it: one slot allocation, each slot moved off the stack
//!   (the last value written under its key), no key touched at run time,
//! - field reads off a local (`fix.lat`) borrow the slot and clone only the
//!   field, never the container; the field's key matches by pointer when
//!   the record's shape came from this program, by content otherwise,
//! - a string constant is shared with the constant pool: pushing one bumps
//!   a reference count and allocates nothing.
//!
//! A `Vm` is cheap to keep around and is designed for compile-once /
//! run-many: reusing one instance across readings reuses its stack, locals
//! and frame allocations. All transient state is reset at the top of each
//! run.
//!
//! Malformed bytecode (impossible via `Script::compile`) surfaces as
//! [`ApisenseError::ScriptVmFault`] with the offending op and pc rather
//! than a panic.

use crate::error::ApisenseError;
use crate::script::compile::{AssignFault, CompiledFn, CompiledProgram, MapShape, NumOp, Op};
use crate::script::interp::MAX_CALL_DEPTH;
use crate::script::{Host, Value};

/// A call frame: where to resume and where the frame's locals start.
#[derive(Debug, Clone, Copy)]
struct Frame {
    return_pc: u32,
    locals_base: u32,
}

/// Resolution of a bare-name call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallTarget {
    /// Dispatch to `fns[i]`.
    User(u32),
    /// No user function bound: dispatch to the host.
    Host,
}

/// Inline cache for one call site. The name-dispatch half (`target`) is
/// valid while `epoch` matches the VM's binding epoch; the host-dispatch
/// half (`endpoint`) is valid while `host_epoch` matches, and is filled
/// lazily the first time the site actually reaches the host.
#[derive(Debug, Clone, Copy)]
struct SiteCache {
    epoch: u64,
    target: CallTarget,
    /// Epoch at which `endpoint` was obtained from [`Host::resolve`].
    host_epoch: u64,
    /// Host endpoint id for this site; `u32::MAX` means the host declined
    /// and the site stays on string dispatch.
    endpoint: u32,
}

/// Reusable bytecode executor. See the module docs for the execution model.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Operand stack.
    stack: Vec<Value>,
    /// Flat locals across all live frames: `(interned name, value)`.
    locals: Vec<(u32, Value)>,
    /// Call frames (depth capped at `MAX_CALL_DEPTH`).
    frames: Vec<Frame>,
    /// Current binding of each interned name to a function index.
    fn_bindings: Vec<Option<u32>>,
    /// Per-call-site inline caches, indexed like `CompiledProgram::sites`.
    site_caches: Vec<SiteCache>,
    /// Bumped on every run and every function-binding change; stale cache
    /// entries simply miss.
    epoch: u64,
    /// Result register: value of the last top-level expression statement.
    last: Value,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

fn fault(op: &'static str, pc: usize, message: &'static str) -> ApisenseError {
    ApisenseError::ScriptVmFault { op, pc, message }
}

fn underflow(op: &'static str, pc: usize) -> ApisenseError {
    fault(op, pc, "value stack underflow")
}

fn name_of(program: &CompiledProgram, id: u32) -> &str {
    program.names.get(id as usize).map_or("?", |name| name)
}

/// Charges `n` fuel units, or fails with `FuelExhausted` and charges
/// nothing when fewer remain.
#[inline]
fn charge(fuel: &mut u64, n: u32) -> Result<(), ApisenseError> {
    let n = u64::from(n);
    if *fuel < n {
        return Err(ApisenseError::FuelExhausted);
    }
    *fuel -= n;
    Ok(())
}

/// Reads field `field` of `value` without consuming it: record fields
/// (absent ones read as `null`) and the `length` of lists and strings.
/// Clones only the field, never the container (the `Member` behavior).
#[inline]
fn member_of(value: &Value, field: &str) -> Result<Value, ApisenseError> {
    match value {
        Value::Record(r) => Ok(r.get(field).cloned().unwrap_or(Value::Null)),
        Value::List(items) if field == "length" => Ok(Value::Num(items.len() as f64)),
        Value::Str(s) if field == "length" => Ok(Value::Num(s.chars().count() as f64)),
        other => Err(ApisenseError::Runtime(format!(
            "no field '{field}' on {other}"
        ))),
    }
}

/// Maps a plain numeric-operator op onto its [`NumOp`].
fn num_op(op: Op) -> NumOp {
    match op {
        Op::Sub => NumOp::Sub,
        Op::Mul => NumOp::Mul,
        Op::Div => NumOp::Div,
        Op::Rem => NumOp::Rem,
        Op::Lt => NumOp::Lt,
        Op::Le => NumOp::Le,
        Op::Gt => NumOp::Gt,
        _ => NumOp::Ge,
    }
}

/// Sum/concatenation of two values (the `Add` semantics shared by the plain
/// and fused add ops).
#[inline]
fn add_values(lhs: &Value, rhs: &Value) -> Result<Value, ApisenseError> {
    match (lhs, rhs) {
        (Value::Num(a), Value::Num(b)) => Ok(Value::Num(a + b)),
        (Value::Str(a), b) => Ok(Value::Str(format!("{a}{b}").into())),
        (a, Value::Str(b)) => Ok(Value::Str(format!("{a}{b}").into())),
        (a, b) => Err(ApisenseError::Runtime(format!("cannot add {a} and {b}"))),
    }
}

/// Applies a numeric operator (the semantics shared by the plain and fused
/// numeric ops).
#[inline]
fn numeric_values(nop: NumOp, lhs: &Value, rhs: &Value) -> Result<Value, ApisenseError> {
    match (lhs, rhs) {
        (Value::Num(a), Value::Num(b)) => Ok(nop.apply(*a, *b)),
        (a, b) => Err(ApisenseError::Runtime(format!(
            "numeric operator applied to {a} and {b}"
        ))),
    }
}

/// Writes `value` into `root` at `idx` (single-level index assignment).
fn set_index(root: &mut Value, idx: Value, value: Value) -> Result<(), ApisenseError> {
    match (idx, root) {
        (Value::Num(n), Value::List(items)) => {
            let i = n as usize;
            if i >= items.len() {
                return Err(ApisenseError::Runtime(format!(
                    "index {i} out of bounds (len {})",
                    items.len()
                )));
            }
            items[i] = value;
            Ok(())
        }
        (Value::Str(k), Value::Record(r)) => {
            r.insert(&k, value);
            Ok(())
        }
        _ => Err(ApisenseError::Runtime(
            "assignment target has incompatible type".into(),
        )),
    }
}

/// Writes `value` into `root` under `field` (single-level member
/// assignment).
fn set_member(root: &mut Value, field: &str, value: Value) -> Result<(), ApisenseError> {
    match root {
        Value::Record(r) => {
            r.insert(field, value);
            Ok(())
        }
        _ => Err(ApisenseError::Runtime(
            "assignment target has incompatible type".into(),
        )),
    }
}

impl Vm {
    /// Creates an empty VM.
    pub fn new() -> Self {
        Self {
            stack: Vec::new(),
            locals: Vec::new(),
            frames: Vec::new(),
            fn_bindings: Vec::new(),
            site_caches: Vec::new(),
            epoch: 0,
            last: Value::Null,
        }
    }

    fn reset(&mut self, program: &CompiledProgram) {
        self.stack.clear();
        self.locals.clear();
        self.frames.clear();
        self.last = Value::Null;
        self.fn_bindings.clear();
        self.fn_bindings.resize(program.names.len(), None);
        if self.site_caches.len() != program.sites.len() {
            self.site_caches.clear();
            self.site_caches.resize(
                program.sites.len(),
                SiteCache {
                    epoch: 0,
                    target: CallTarget::Host,
                    host_epoch: 0,
                    endpoint: u32::MAX,
                },
            );
        }
        // A fresh epoch invalidates every cache entry (declaration history
        // may differ between runs when declarations are conditional).
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Executes `program` against `host` with the given fuel budget;
    /// returns the value of the last top-level expression statement, like
    /// [`super::Interpreter::run`].
    ///
    /// # Errors
    ///
    /// Propagates runtime, host and fuel errors with the same
    /// classification as the tree-walker; malformed bytecode surfaces as
    /// [`ApisenseError::ScriptVmFault`].
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        host: &mut dyn Host,
        fuel: u64,
    ) -> Result<Value, ApisenseError> {
        let mut span = obs::span("vm.exec");
        obs::count("vm.executions", 1);
        let mut remaining = fuel;
        let result = self.run_inner(program, host, &mut remaining);
        // One counter bump per run, whatever the outcome: a charge that
        // exhausts the budget deducts nothing, so this is exactly the fuel
        // the run consumed.
        obs::count("vm.fuel_spent", fuel - remaining);
        if result.is_err() {
            obs::count("vm.faults", 1);
            span.set_attr("fault", true);
        }
        result
    }

    fn run_inner(
        &mut self,
        program: &CompiledProgram,
        host: &mut dyn Host,
        fuel: &mut u64,
    ) -> Result<Value, ApisenseError> {
        self.reset(program);
        let mut pc: usize = 0;
        let mut base: usize = 0;
        loop {
            let cur = pc;
            let Some(&op) = program.code.get(cur) else {
                return Err(fault("pc", cur, "program counter ran off the end"));
            };
            pc += 1;
            match op {
                Op::Fuel(n) => charge(fuel, n)?,
                Op::Const(i) => self.push_const(program, i, cur)?,
                Op::Null => self.stack.push(Value::Null),
                Op::True => self.stack.push(Value::Bool(true)),
                Op::False => self.stack.push(Value::Bool(false)),
                Op::MakeList(n) => {
                    let n = n as usize;
                    let at = self
                        .stack
                        .len()
                        .checked_sub(n)
                        .ok_or_else(|| underflow("MakeList", cur))?;
                    let items: Vec<Value> = self.stack.drain(at..).collect();
                    self.stack.push(Value::List(items));
                }
                Op::MakeMap(i) => {
                    let MapShape {
                        shape,
                        values,
                        value_of,
                    } = program
                        .map_shapes
                        .get(i as usize)
                        .ok_or_else(|| fault("MakeMap", cur, "shape index out of range"))?;
                    let at = self
                        .stack
                        .len()
                        .checked_sub(*values as usize)
                        .ok_or_else(|| underflow("MakeMap", cur))?;
                    let source = &mut self.stack[at..];
                    let mut slots = Vec::with_capacity(value_of.len());
                    for &v in value_of.iter() {
                        let value = source
                            .get_mut(v as usize)
                            .ok_or_else(|| fault("MakeMap", cur, "value index out of range"))?;
                        slots.push(std::mem::replace(value, Value::Null));
                    }
                    self.stack.truncate(at);
                    let record = shape.record(slots.into_boxed_slice());
                    self.stack.push(Value::Record(record));
                }
                Op::LoadSlot(i) => self.load_slot(base, i, cur)?,
                Op::StoreSlot(i) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("StoreSlot", cur))?;
                    let slot = self
                        .locals
                        .get_mut(base + i as usize)
                        .ok_or_else(|| fault("StoreSlot", cur, "frame slot out of range"))?;
                    slot.1 = value;
                }
                Op::PushLocal(id) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("PushLocal", cur))?;
                    self.locals.push((id, value));
                }
                Op::PopLocals(n) => {
                    let n = n as usize;
                    let keep = self
                        .locals
                        .len()
                        .checked_sub(n)
                        .ok_or_else(|| fault("PopLocals", cur, "locals underflow"))?;
                    self.locals.truncate(keep);
                }
                Op::LoadDyn(id) => match self.locals.iter().rev().find(|(n, _)| *n == id) {
                    Some((_, value)) => self.stack.push(value.clone()),
                    None => {
                        return Err(ApisenseError::Runtime(format!(
                            "undefined variable '{}'",
                            name_of(program, id)
                        )))
                    }
                },
                Op::StoreDyn(id) => {
                    let value = self.stack.pop().ok_or_else(|| underflow("StoreDyn", cur))?;
                    match self.locals.iter_mut().rev().find(|(n, _)| *n == id) {
                        Some(slot) => slot.1 = value,
                        None => {
                            return Err(ApisenseError::Runtime(format!(
                                "assignment to undeclared variable '{}'",
                                name_of(program, id)
                            )))
                        }
                    }
                }
                Op::Neg => {
                    let value = self.stack.pop().ok_or_else(|| underflow("Neg", cur))?;
                    match value {
                        Value::Num(n) => self.stack.push(Value::Num(-n)),
                        other => {
                            return Err(ApisenseError::Runtime(format!(
                                "cannot negate {other}"
                            )))
                        }
                    }
                }
                Op::Not => {
                    let value = self.stack.pop().ok_or_else(|| underflow("Not", cur))?;
                    self.stack.push(Value::Bool(!value.is_truthy()));
                }
                Op::ToBool => {
                    let value = self.stack.pop().ok_or_else(|| underflow("ToBool", cur))?;
                    self.stack.push(Value::Bool(value.is_truthy()));
                }
                Op::Add => self.add_top(cur)?,
                Op::Sub | Op::Mul | Op::Div | Op::Rem | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    self.numeric_top(num_op(op), cur)?
                }
                Op::Eq => {
                    let rhs = self.stack.pop().ok_or_else(|| underflow("Eq", cur))?;
                    let lhs = self.stack.pop().ok_or_else(|| underflow("Eq", cur))?;
                    self.stack.push(Value::Bool(lhs == rhs));
                }
                Op::Ne => {
                    let rhs = self.stack.pop().ok_or_else(|| underflow("Ne", cur))?;
                    let lhs = self.stack.pop().ok_or_else(|| underflow("Ne", cur))?;
                    self.stack.push(Value::Bool(lhs != rhs));
                }
                Op::Member(f) => {
                    let out = match self.stack.pop().ok_or_else(|| underflow("Member", cur))? {
                        // Sole owner of the record: move the field out.
                        Value::Record(mut r) => {
                            r.take(name_of(program, f)).unwrap_or(Value::Null)
                        }
                        other => member_of(&other, name_of(program, f))?,
                    };
                    self.stack.push(out);
                }
                Op::IndexGet => {
                    let idx = self.stack.pop().ok_or_else(|| underflow("IndexGet", cur))?;
                    let value = self.stack.pop().ok_or_else(|| underflow("IndexGet", cur))?;
                    let out = match (value, idx) {
                        (Value::List(mut items), Value::Num(n)) => {
                            let i = n as usize;
                            if i < items.len() {
                                items.swap_remove(i)
                            } else {
                                Value::Null
                            }
                        }
                        (Value::Record(mut r), Value::Str(k)) => {
                            r.take(&k).unwrap_or(Value::Null)
                        }
                        (v, i) => {
                            return Err(ApisenseError::Runtime(format!(
                                "cannot index {v} with {i}"
                            )))
                        }
                    };
                    self.stack.push(out);
                }
                Op::MemberSetSlot(slot, f) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("MemberSetSlot", cur))?;
                    let target =
                        self.locals.get_mut(base + slot as usize).ok_or_else(|| {
                            fault("MemberSetSlot", cur, "frame slot out of range")
                        })?;
                    set_member(&mut target.1, name_of(program, f), value)?;
                }
                Op::MemberSetDyn(root, f) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("MemberSetDyn", cur))?;
                    match self.locals.iter_mut().rev().find(|(n, _)| *n == root) {
                        Some(target) => set_member(&mut target.1, name_of(program, f), value)?,
                        None => {
                            return Err(ApisenseError::Runtime(format!(
                                "undefined variable '{}'",
                                name_of(program, root)
                            )))
                        }
                    }
                }
                Op::IndexSetSlot(slot) => {
                    let idx = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("IndexSetSlot", cur))?;
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("IndexSetSlot", cur))?;
                    let target = self
                        .locals
                        .get_mut(base + slot as usize)
                        .ok_or_else(|| fault("IndexSetSlot", cur, "frame slot out of range"))?;
                    set_index(&mut target.1, idx, value)?;
                }
                Op::IndexSetDyn(root) => {
                    let idx = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("IndexSetDyn", cur))?;
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("IndexSetDyn", cur))?;
                    match self.locals.iter_mut().rev().find(|(n, _)| *n == root) {
                        Some(target) => set_index(&mut target.1, idx, value)?,
                        None => {
                            return Err(ApisenseError::Runtime(format!(
                                "undefined variable '{}'",
                                name_of(program, root)
                            )))
                        }
                    }
                }
                Op::FailAssign(kind, root) => {
                    return Err(ApisenseError::Runtime(match kind {
                        AssignFault::Unsupported => "unsupported assignment target".into(),
                        AssignFault::Invalid => "invalid assignment target".into(),
                        AssignFault::Nested => {
                            "nested assignment paths are not supported".into()
                        }
                        AssignFault::NestedDyn => {
                            if self.locals.iter().any(|(n, _)| *n == root) {
                                "nested assignment paths are not supported".into()
                            } else {
                                format!("undefined variable '{}'", name_of(program, root))
                            }
                        }
                    }))
                }
                Op::Jump(t) => pc = t as usize,
                Op::JumpIfFalse(t) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("JumpIfFalse", cur))?;
                    if !value.is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::JumpIfFalseBool(t) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("JumpIfFalseBool", cur))?;
                    if !value.is_truthy() {
                        self.stack.push(Value::Bool(false));
                        pc = t as usize;
                    }
                }
                Op::JumpIfTrueBool(t) => {
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("JumpIfTrueBool", cur))?;
                    if value.is_truthy() {
                        self.stack.push(Value::Bool(true));
                        pc = t as usize;
                    }
                }
                Op::Dup => {
                    let value = self
                        .stack
                        .last()
                        .cloned()
                        .ok_or_else(|| underflow("Dup", cur))?;
                    self.stack.push(value);
                }
                Op::Pop => {
                    self.stack.pop().ok_or_else(|| underflow("Pop", cur))?;
                }
                Op::PopLast => {
                    self.last = self.stack.pop().ok_or_else(|| underflow("PopLast", cur))?;
                }
                Op::SetLastNull => self.last = Value::Null,
                Op::DeclareFn(fi) => {
                    let func = program.fns.get(fi as usize).ok_or_else(|| {
                        fault("DeclareFn", cur, "function index out of range")
                    })?;
                    let binding = self
                        .fn_bindings
                        .get_mut(func.name as usize)
                        .ok_or_else(|| fault("DeclareFn", cur, "name index out of range"))?;
                    if *binding != Some(fi) {
                        *binding = Some(fi);
                        self.epoch = self.epoch.wrapping_add(1);
                    }
                }
                Op::CallNamed(site) => {
                    self.call_named(program, host, site, &mut pc, &mut base, cur)?
                }
                Op::CallHost(site) => {
                    let argc = program
                        .sites
                        .get(site as usize)
                        .ok_or_else(|| fault("CallHost", cur, "call site out of range"))?
                        .argc as usize;
                    self.host_call(program, host, site as usize, argc, cur)?;
                }
                Op::CallInvalid => {
                    return Err(ApisenseError::Runtime(
                        "callee is not a function name or host path".into(),
                    ))
                }
                Op::Return => {
                    let value = self.stack.pop().ok_or_else(|| underflow("Return", cur))?;
                    match self.frames.pop() {
                        Some(frame) => {
                            self.locals.truncate(frame.locals_base as usize);
                            base = self.frames.last().map_or(0, |f| f.locals_base as usize);
                            self.stack.push(value);
                            pc = frame.return_pc as usize;
                        }
                        None => return Ok(value),
                    }
                }
                Op::Halt => return Ok(std::mem::replace(&mut self.last, Value::Null)),
                // Fused superinstructions: exactly the two component
                // behaviors in sequence (see `compile::fuse`).
                Op::LoadSlot2(a, b) => {
                    self.load_slot(base, a, cur)?;
                    self.load_slot(base, b, cur)?;
                }
                Op::LoadSlotConst(slot, i) => {
                    self.load_slot(base, slot, cur)?;
                    self.push_const(program, i, cur)?;
                }
                Op::FuelAdd(n) => {
                    charge(fuel, n)?;
                    self.add_top(cur)?;
                }
                Op::FuelNumeric(n, nop) => {
                    charge(fuel, n)?;
                    self.numeric_top(nop, cur)?;
                }
                Op::FuelJump(n, t) => {
                    charge(fuel, n)?;
                    pc = t as usize;
                }
                Op::FuelJumpIfFalse(n, t) => {
                    charge(fuel, n)?;
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelJumpIfFalse", cur))?;
                    if !value.is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::FuelNumericJumpIfFalse(n, nop, t) => {
                    charge(fuel, n)?;
                    let rhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelNumericJumpIfFalse", cur))?;
                    let lhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelNumericJumpIfFalse", cur))?;
                    if !numeric_values(nop, &lhs, &rhs)?.is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::FuelCallNamed(n, site) => {
                    charge(fuel, n)?;
                    self.call_named(program, host, site, &mut pc, &mut base, cur)?;
                }
                Op::FuelCallHost(n, site) => {
                    charge(fuel, n)?;
                    let argc = program
                        .sites
                        .get(site as usize)
                        .ok_or_else(|| fault("FuelCallHost", cur, "call site out of range"))?
                        .argc as usize;
                    self.host_call(program, host, site as usize, argc, cur)?;
                }
                Op::FuelAddStore(n, slot) => {
                    charge(fuel, n)?;
                    let rhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelAddStore", cur))?;
                    let lhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelAddStore", cur))?;
                    let out = add_values(&lhs, &rhs)?;
                    self.locals
                        .get_mut(base + slot as usize)
                        .ok_or_else(|| fault("FuelAddStore", cur, "frame slot out of range"))?
                        .1 = out;
                }
                Op::FuelNumericStore(n, nop, slot) => {
                    charge(fuel, n)?;
                    let rhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelNumericStore", cur))?;
                    let lhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelNumericStore", cur))?;
                    let out = numeric_values(nop, &lhs, &rhs)?;
                    self.locals
                        .get_mut(base + slot as usize)
                        .ok_or_else(|| {
                            fault("FuelNumericStore", cur, "frame slot out of range")
                        })?
                        .1 = out;
                }
                Op::AddStore(slot) => {
                    let rhs = self.stack.pop().ok_or_else(|| underflow("AddStore", cur))?;
                    let lhs = self.stack.pop().ok_or_else(|| underflow("AddStore", cur))?;
                    let out = add_values(&lhs, &rhs)?;
                    self.locals
                        .get_mut(base + slot as usize)
                        .ok_or_else(|| fault("AddStore", cur, "frame slot out of range"))?
                        .1 = out;
                }
                Op::LoadSlotNull(slot) => {
                    self.load_slot(base, slot, cur)?;
                    self.stack.push(Value::Null);
                }
                Op::SlotEqNull(slot) => {
                    let value = self
                        .locals
                        .get(base + slot as usize)
                        .ok_or_else(|| fault("SlotEqNull", cur, "frame slot out of range"))?;
                    self.stack.push(Value::Bool(value.1 == Value::Null));
                }
                Op::SlotNeNull(slot) => {
                    let value = self
                        .locals
                        .get(base + slot as usize)
                        .ok_or_else(|| fault("SlotNeNull", cur, "frame slot out of range"))?;
                    self.stack.push(Value::Bool(value.1 != Value::Null));
                }
                Op::PopLocalsJump(n, t) => {
                    let keep = self
                        .locals
                        .len()
                        .checked_sub(n as usize)
                        .ok_or_else(|| fault("PopLocalsJump", cur, "locals underflow"))?;
                    self.locals.truncate(keep);
                    pc = t as usize;
                }
                Op::FuelReturn(n) => {
                    charge(fuel, n)?;
                    let value = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("FuelReturn", cur))?;
                    match self.frames.pop() {
                        Some(frame) => {
                            self.locals.truncate(frame.locals_base as usize);
                            base = self.frames.last().map_or(0, |f| f.locals_base as usize);
                            self.stack.push(value);
                            pc = frame.return_pc as usize;
                        }
                        None => return Ok(value),
                    }
                }
                Op::LoadSlot2Fuel(a, b, n) => {
                    self.load_slot(base, a, cur)?;
                    self.load_slot(base, b, cur)?;
                    charge(fuel, n)?;
                }
                Op::SlotsFuelNumeric(a, b, n, nop) => {
                    charge(fuel, n)?;
                    let out = {
                        let lhs = self.locals.get(base + a as usize).ok_or_else(|| {
                            fault("SlotsFuelNumeric", cur, "frame slot out of range")
                        })?;
                        let rhs = self.locals.get(base + b as usize).ok_or_else(|| {
                            fault("SlotsFuelNumeric", cur, "frame slot out of range")
                        })?;
                        numeric_values(nop, &lhs.1, &rhs.1)?
                    };
                    self.stack.push(out);
                }
                Op::SlotsFuelAdd(a, b, n) => {
                    charge(fuel, n)?;
                    let out = {
                        let lhs = self.locals.get(base + a as usize).ok_or_else(|| {
                            fault("SlotsFuelAdd", cur, "frame slot out of range")
                        })?;
                        let rhs = self.locals.get(base + b as usize).ok_or_else(|| {
                            fault("SlotsFuelAdd", cur, "frame slot out of range")
                        })?;
                        add_values(&lhs.1, &rhs.1)?
                    };
                    self.stack.push(out);
                }
                Op::LoadSlotFuel(slot, n) => {
                    self.load_slot(base, slot, cur)?;
                    charge(fuel, n)?;
                }
                Op::SlotFuelNumeric(slot, n, nop) => {
                    charge(fuel, n)?;
                    let lhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("SlotFuelNumeric", cur))?;
                    let rhs = self.locals.get(base + slot as usize).ok_or_else(|| {
                        fault("SlotFuelNumeric", cur, "frame slot out of range")
                    })?;
                    let out = numeric_values(nop, &lhs, &rhs.1)?;
                    self.stack.push(out);
                }
                Op::SlotMember(slot, f) => {
                    let out = member_of(self.slot(base, slot, cur)?, name_of(program, f))?;
                    self.stack.push(out);
                }
                Op::SlotFuelMember(slot, n, f) => {
                    let value = self.slot(base, slot, cur)?;
                    charge(fuel, n)?;
                    let out = member_of(value, name_of(program, f))?;
                    self.stack.push(out);
                }
                Op::SlotFuelAdd(slot, n) => {
                    charge(fuel, n)?;
                    let lhs = self
                        .stack
                        .pop()
                        .ok_or_else(|| underflow("SlotFuelAdd", cur))?;
                    let rhs = self
                        .locals
                        .get(base + slot as usize)
                        .ok_or_else(|| fault("SlotFuelAdd", cur, "frame slot out of range"))?;
                    let out = add_values(&lhs, &rhs.1)?;
                    self.stack.push(out);
                }
            }
        }
    }

    /// Borrows frame slot `i`, with the `LoadSlot` range check.
    #[inline]
    fn slot(&self, base: usize, i: u32, cur: usize) -> Result<&Value, ApisenseError> {
        self.locals
            .get(base + i as usize)
            .map(|local| &local.1)
            .ok_or_else(|| fault("LoadSlot", cur, "frame slot out of range"))
    }

    /// Pushes a clone of frame slot `i` (the `LoadSlot` behavior).
    #[inline]
    fn load_slot(&mut self, base: usize, i: u32, cur: usize) -> Result<(), ApisenseError> {
        let value = self.slot(base, i, cur)?.clone();
        self.stack.push(value);
        Ok(())
    }

    /// Pushes a clone of constant `i` (the `Const` behavior).
    #[inline]
    fn push_const(
        &mut self,
        program: &CompiledProgram,
        i: u32,
        cur: usize,
    ) -> Result<(), ApisenseError> {
        let value = program
            .consts
            .get(i as usize)
            .ok_or_else(|| fault("Const", cur, "constant index out of range"))?;
        self.stack.push(value.clone());
        Ok(())
    }

    /// Pops two values and pushes their sum/concatenation (the `Add`
    /// behavior).
    #[inline]
    fn add_top(&mut self, cur: usize) -> Result<(), ApisenseError> {
        let rhs = self.stack.pop().ok_or_else(|| underflow("Add", cur))?;
        let lhs = self.stack.pop().ok_or_else(|| underflow("Add", cur))?;
        let out = add_values(&lhs, &rhs)?;
        self.stack.push(out);
        Ok(())
    }

    /// Pops two numbers and pushes the operator's result (the shared
    /// behavior of the plain and fused numeric ops).
    #[inline]
    fn numeric_top(&mut self, nop: NumOp, cur: usize) -> Result<(), ApisenseError> {
        let rhs = self.stack.pop().ok_or_else(|| underflow("Numeric", cur))?;
        let lhs = self.stack.pop().ok_or_else(|| underflow("Numeric", cur))?;
        let out = numeric_values(nop, &lhs, &rhs)?;
        self.stack.push(out);
        Ok(())
    }

    /// Dispatches a bare-name call site: resolves user-function vs host
    /// through the site's inline cache (the `CallNamed` behavior).
    #[inline]
    fn call_named(
        &mut self,
        program: &CompiledProgram,
        host: &mut dyn Host,
        site: u32,
        pc: &mut usize,
        base: &mut usize,
        cur: usize,
    ) -> Result<(), ApisenseError> {
        let cache = self
            .site_caches
            .get_mut(site as usize)
            .ok_or_else(|| fault("CallNamed", cur, "call site out of range"))?;
        let target = if cache.epoch == self.epoch {
            cache.target
        } else {
            let name = program.sites[site as usize].name;
            let resolved = match self.fn_bindings.get(name as usize).copied().flatten() {
                Some(fi) => CallTarget::User(fi),
                None => CallTarget::Host,
            };
            cache.epoch = self.epoch;
            cache.target = resolved;
            resolved
        };
        let argc = program.sites[site as usize].argc as usize;
        match target {
            CallTarget::User(fi) => {
                let func = program
                    .fns
                    .get(fi as usize)
                    .ok_or_else(|| fault("CallNamed", cur, "function index out of range"))?;
                let name = program.sites[site as usize].name;
                self.enter_function(program, func, name, argc, pc, base, cur)
            }
            CallTarget::Host => self.host_call(program, host, site as usize, argc, cur),
        }
    }

    /// Pushes a call frame and moves `argc` stack values into parameter
    /// locals, enforcing arity and `MAX_CALL_DEPTH` like the tree-walker.
    #[allow(clippy::too_many_arguments)]
    fn enter_function(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFn,
        name: u32,
        argc: usize,
        pc: &mut usize,
        base: &mut usize,
        cur: usize,
    ) -> Result<(), ApisenseError> {
        if argc != func.params.len() {
            return Err(ApisenseError::Runtime(format!(
                "function '{}' expects {} arguments, got {}",
                name_of(program, name),
                func.params.len(),
                argc
            )));
        }
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(ApisenseError::Runtime(format!(
                "call depth limit exceeded in '{}'",
                name_of(program, name)
            )));
        }
        let at = self
            .stack
            .len()
            .checked_sub(argc)
            .ok_or_else(|| underflow("CallNamed", cur))?;
        let locals_base = self.locals.len();
        self.frames.push(Frame {
            return_pc: *pc as u32,
            locals_base: locals_base as u32,
        });
        for (offset, &param) in func.params.iter().enumerate() {
            let value = std::mem::replace(&mut self.stack[at + offset], Value::Null);
            self.locals.push((param, value));
        }
        self.stack.truncate(at);
        *base = locals_base;
        *pc = func.entry as usize;
        Ok(())
    }

    /// Dispatches a host call through `sites[site]`, consuming `argc` stack
    /// values and pushing the result. The site's endpoint cache skips the
    /// host's string dispatch after the first call through the site (see
    /// [`Host::resolve`]).
    fn host_call(
        &mut self,
        program: &CompiledProgram,
        host: &mut dyn Host,
        site: usize,
        argc: usize,
        cur: usize,
    ) -> Result<(), ApisenseError> {
        let path = &program
            .sites
            .get(site)
            .ok_or_else(|| fault("CallHost", cur, "call site out of range"))?
            .path;
        let at = self
            .stack
            .len()
            .checked_sub(argc)
            .ok_or_else(|| underflow("CallHost", cur))?;
        let endpoint = match self.site_caches.get(site) {
            Some(cache) if cache.host_epoch == self.epoch => cache.endpoint,
            _ => {
                let endpoint = host.resolve(path).unwrap_or(u32::MAX);
                if let Some(cache) = self.site_caches.get_mut(site) {
                    cache.host_epoch = self.epoch;
                    cache.endpoint = endpoint;
                }
                endpoint
            }
        };
        let result = if endpoint == u32::MAX {
            host.call(path, &mut self.stack[at..])?
        } else {
            host.call_resolved(endpoint, &mut self.stack[at..])?
        };
        self.stack.truncate(at);
        self.stack.push(result);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{Record, Script};

    /// Host used by VM unit tests: `emit` collects, `math.double` doubles,
    /// anything else errors.
    #[derive(Default)]
    struct TestHost {
        emitted: Vec<Value>,
    }

    impl Host for TestHost {
        fn call(&mut self, path: &str, args: &mut [Value]) -> Result<Value, ApisenseError> {
            match path {
                "emit" => {
                    self.emitted
                        .push(args.first().cloned().unwrap_or(Value::Null));
                    Ok(Value::Null)
                }
                "math.double" => Ok(Value::Num(
                    args.first().and_then(Value::as_num).unwrap_or(0.0) * 2.0,
                )),
                other => Err(ApisenseError::UnknownSensor(other.to_string())),
            }
        }
    }

    fn run_vm(src: &str, fuel: u64) -> Result<Value, ApisenseError> {
        let script = Script::compile(src).expect("script compiles");
        let mut host = TestHost::default();
        Vm::new().run(script.compiled(), &mut host, fuel)
    }

    #[test]
    fn computes_like_the_interpreter() {
        let value = run_vm(
            "fn avg(a, b) { return (a + b) / 2; }\n\
             let m = { \"x\": 4, \"y\": 8 };\n\
             avg(m.x, m.y);",
            10_000,
        )
        .unwrap();
        assert_eq!(value, Value::Num(6.0));
    }

    #[test]
    fn vm_instance_is_reusable_across_runs() {
        let script = Script::compile("let a = [1, 2, 3]; a[1] + a.length;").unwrap();
        let mut vm = Vm::new();
        let mut host = TestHost::default();
        for _ in 0..3 {
            let value = vm.run(script.compiled(), &mut host, 1_000).unwrap();
            assert_eq!(value, Value::Num(5.0));
        }
    }

    #[test]
    fn function_redeclaration_invalidates_inline_caches() {
        let value = run_vm(
            "fn f() { return 1; }\n\
             let a = f();\n\
             fn f() { return 2; }\n\
             let b = f();\n\
             a * 10 + b;",
            10_000,
        )
        .unwrap();
        assert_eq!(value, Value::Num(12.0));
    }

    #[test]
    fn host_paths_dispatch_through_pre_interned_sites() {
        let script = Script::compile("emit(math.double(21));").unwrap();
        let mut host = TestHost::default();
        let mut vm = Vm::new();
        vm.run(script.compiled(), &mut host, 1_000).unwrap();
        assert_eq!(host.emitted, vec![Value::Num(42.0)]);
    }

    #[test]
    fn call_depth_limit_matches_interpreter() {
        let err = run_vm("fn f(n) { return f(n + 1); } f(0);", 1_000_000).unwrap_err();
        assert!(matches!(&err, ApisenseError::Runtime(m) if m.contains("depth")));
    }

    #[test]
    fn fuel_exhaustion_is_classified() {
        let err = run_vm("let i = 0; while (true) { i = i + 1; }", 10_000).unwrap_err();
        assert_eq!(err, ApisenseError::FuelExhausted);
    }

    #[test]
    fn malformed_bytecode_is_a_typed_fault_not_a_panic() {
        let program = CompiledProgram {
            code: vec![Op::Return],
            consts: Vec::new(),
            names: Vec::new(),
            fns: Vec::new(),
            sites: Vec::new(),
            map_shapes: Vec::new(),
        };
        let mut host = TestHost::default();
        let err = Vm::new().run(&program, &mut host, 100).unwrap_err();
        assert_eq!(
            err,
            ApisenseError::ScriptVmFault {
                op: "Return",
                pc: 0,
                message: "value stack underflow",
            }
        );

        let empty = CompiledProgram {
            code: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            fns: Vec::new(),
            sites: Vec::new(),
            map_shapes: Vec::new(),
        };
        let err = Vm::new().run(&empty, &mut host, 100).unwrap_err();
        assert!(matches!(err, ApisenseError::ScriptVmFault { op: "pc", .. }));
    }

    #[test]
    fn host_errors_propagate_unchanged() {
        let err = run_vm("sensor.missing();", 1_000).unwrap_err();
        assert_eq!(err, ApisenseError::UnknownSensor("sensor.missing".into()));
    }

    #[test]
    fn maps_and_mutation_round_trip() {
        let value = run_vm(
            "let m = { \"a\": 1 };\n\
             m.b = 2;\n\
             m[\"c\"] = 3;\n\
             let xs = [0, 0];\n\
             xs[1] = m.a + m.b + m.c;\n\
             xs[1];",
            10_000,
        )
        .unwrap();
        assert_eq!(value, Value::Num(6.0));
        assert_eq!(
            run_vm("let m = {}; m.k = 1; m;", 1_000).unwrap(),
            Value::Record(Record::new([("k", Value::Num(1.0))]))
        );
    }
}
