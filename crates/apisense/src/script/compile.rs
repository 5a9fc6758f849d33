//! Bytecode compiler: lowers a parsed [`Program`] to a [`CompiledProgram`].
//!
//! The compiler is the front half of the script engine's second execution
//! tier (the back half is [`super::vm`]). It resolves as much as possible at
//! compile time so the per-reading hot path does no hashing and no string
//! formatting:
//!
//! - **Locals become frame slots.** Every `let` whose scope is statically
//!   known compiles to a slot index relative to the current call frame;
//!   loads and stores are array accesses. Names that cannot be resolved
//!   within the enclosing function frame fall back to `LoadDyn`/`StoreDyn`,
//!   which walk the live locals exactly like the tree-walker's dynamic
//!   scope chain — semantics are unchanged, only the common case is fast.
//! - **Call sites are pre-interned.** A dotted host path such as
//!   `sensor.gps` is flattened to a single [`CallSite`] string at compile
//!   time instead of being re-formatted on every call, and every site
//!   carries an index into the VM's per-site inline caches.
//! - **Fuel is charged per basic block.** The tree-walker burns one fuel
//!   unit per AST node as it goes; the compiler instead counts the nodes of
//!   each straight-line run and emits one [`Op::Fuel`] charge covering the
//!   run. Charges are flushed *before* every fallible op, every jump and
//!   every jump target, which keeps the cumulative fuel spent at every
//!   observable decision point identical to the interpreter's — the same
//!   programs exhaust fuel, and they fail with the same classification.
//!   The only latitude is *where inside* an infallible straight-line run
//!   the counter moves, which no program can observe.
//!
//! Compilation is pure: it never runs host calls and fails only on
//! capacity limits ([`ApisenseError::ScriptCompile`]).

use std::collections::HashMap;

use crate::error::ApisenseError;
use crate::script::parser::{BinaryOp, Expr, Program, Stmt, UnaryOp};
use crate::script::{Shape, Value};
use std::sync::Arc;

/// Maximum interned names / constants / functions / call sites / map shapes.
const MAX_TABLE: usize = 65_536;
/// Maximum locals live in a single call frame.
const MAX_FRAME_LOCALS: usize = 4_096;

/// Why a compiled assignment is statically known to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AssignFault {
    /// Target has no root identifier (`f().x = v`).
    Unsupported,
    /// Multi-step path under a statically resolved root (`m.a.b = v`).
    Nested,
    /// Multi-step path under a dynamically resolved root: the root lookup
    /// may itself fail first, matching interpreter error precedence.
    NestedDyn,
    /// Target expression form the parser should never produce.
    Invalid,
}

/// One bytecode instruction. Operands index the side tables of the owning
/// [`CompiledProgram`]; slot operands are relative to the current frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Charge `n` fuel units (the accumulated cost of a straight-line run);
    /// fails with `FuelExhausted` when the budget is smaller.
    Fuel(u32),
    /// Push constant `consts[i]`.
    Const(u32),
    /// Push `null`.
    Null,
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Pop `n` values, push a list of them (in push order).
    MakeList(u32),
    /// Pop `map_shapes[i]`'s source-order values, push a record of its
    /// shape.
    MakeMap(u32),
    /// Push a clone of frame slot `i`.
    LoadSlot(u32),
    /// Pop into frame slot `i`.
    StoreSlot(u32),
    /// Pop and push as a new local named `names[i]`.
    PushLocal(u32),
    /// Drop the innermost `n` locals (block exit).
    PopLocals(u32),
    /// Push the innermost live local named `names[i]`, from any frame
    /// (dynamic scoping); error if absent.
    LoadDyn(u32),
    /// Pop into the innermost live local named `names[i]`, from any frame;
    /// error if absent.
    StoreDyn(u32),
    /// Pop a number, push its negation.
    Neg,
    /// Pop, push logical negation of truthiness.
    Not,
    /// Pop, push its truthiness as a bool (short-circuit result coercion).
    ToBool,
    /// Pop rhs and lhs, push `lhs + rhs` (numeric or string concat).
    Add,
    /// Pop rhs and lhs, push numeric difference.
    Sub,
    /// Pop rhs and lhs, push numeric product.
    Mul,
    /// Pop rhs and lhs, push numeric quotient.
    Div,
    /// Pop rhs and lhs, push numeric remainder.
    Rem,
    /// Pop rhs and lhs, push structural equality.
    Eq,
    /// Pop rhs and lhs, push structural inequality.
    Ne,
    /// Pop rhs and lhs, push numeric `<`.
    Lt,
    /// Pop rhs and lhs, push numeric `<=`.
    Le,
    /// Pop rhs and lhs, push numeric `>`.
    Gt,
    /// Pop rhs and lhs, push numeric `>=`.
    Ge,
    /// Pop a value, push its field `names[i]` (maps) or `length`.
    Member(u32),
    /// Pop index and container, push the element.
    IndexGet,
    /// Pop a value, write field `names[f]` of frame slot `slot`
    /// (`MemberSetSlot(slot, f)`).
    MemberSetSlot(u32, u32),
    /// Pop a value, write field `names[f]` of dynamic local `names[root]`
    /// (`MemberSetDyn(root, f)`).
    MemberSetDyn(u32, u32),
    /// Pop index then value, write element of frame slot `slot`.
    IndexSetSlot(u32),
    /// Pop index then value, write element of dynamic local `names[i]`.
    IndexSetDyn(u32),
    /// Raise the statically determined assignment error (operand is the
    /// root name id, used by [`AssignFault::NestedDyn`]).
    FailAssign(AssignFault, u32),
    /// Unconditional jump to `pc`.
    Jump(u32),
    /// Pop; jump to `pc` when falsy.
    JumpIfFalse(u32),
    /// Pop; when falsy push `false` and jump to `pc` (short-circuit `&&`).
    JumpIfFalseBool(u32),
    /// Pop; when truthy push `true` and jump to `pc` (short-circuit `||`).
    JumpIfTrueBool(u32),
    /// Duplicate the top of stack.
    Dup,
    /// Pop and discard.
    Pop,
    /// Pop into the top-level result register.
    PopLast,
    /// Clear the top-level result register (non-expression statements).
    SetLastNull,
    /// Bind function `fns[i]` to its name (dynamic declaration point).
    DeclareFn(u32),
    /// Call the bare name of call site `sites[i]`: a user function when one
    /// is bound, else a host call. Resolution is memoized in the site's
    /// inline cache.
    CallNamed(u32),
    /// Call the pre-interned host path of call site `sites[i]`.
    CallHost(u32),
    /// Raise the invalid-callee error (callee is neither a name nor a
    /// dotted path; arguments were still evaluated first).
    CallInvalid,
    /// Pop the return value, pop the current frame (or finish a top-level
    /// `return`).
    Return,
    /// End of top-level code: yield the result register.
    Halt,
    // ---- fused superinstructions ------------------------------------------
    // Emission-time fusions of the adjacent pairs that dominate loop bodies;
    // each behaves exactly like its two components in sequence. `emit` never
    // fuses across a jump target, so every recorded label still lands on a
    // real instruction boundary.
    /// `LoadSlot(a)` then `LoadSlot(b)`.
    LoadSlot2(u32, u32),
    /// `LoadSlot(slot)` then `Const(i)`.
    LoadSlotConst(u32, u32),
    /// `Fuel(n)` then `Add`.
    FuelAdd(u32),
    /// `Fuel(n)` then the numeric operator.
    FuelNumeric(u32, NumOp),
    /// `Fuel(n)` then `Jump(pc)` (`FuelJump(n, pc)`).
    FuelJump(u32, u32),
    /// `Fuel(n)` then `JumpIfFalse(pc)` (`FuelJumpIfFalse(n, pc)`).
    FuelJumpIfFalse(u32, u32),
    /// `Fuel(n)`, the numeric operator, then `JumpIfFalse(pc)` — the shape
    /// of every compiled loop condition (`FuelNumericJumpIfFalse(n, op, pc)`).
    FuelNumericJumpIfFalse(u32, NumOp, u32),
    /// `Fuel(n)` then `CallNamed(site)`.
    FuelCallNamed(u32, u32),
    /// `Fuel(n)` then `CallHost(site)`.
    FuelCallHost(u32, u32),
    /// `Fuel(n)`, `Add`, then `StoreSlot(slot)` — accumulator updates like
    /// `x = x + e` (`FuelAddStore(n, slot)`).
    FuelAddStore(u32, u32),
    /// `Fuel(n)`, the numeric operator, then `StoreSlot(slot)`
    /// (`FuelNumericStore(n, op, slot)`).
    FuelNumericStore(u32, NumOp, u32),
    /// `LoadSlot(slot)` then `Null`.
    LoadSlotNull(u32),
    /// `LoadSlot(slot)`, `Null`, then `Eq` — null tests like `s == null`.
    SlotEqNull(u32),
    /// `LoadSlot(slot)`, `Null`, then `Ne`.
    SlotNeNull(u32),
    /// `Add` then `StoreSlot(slot)` — the tail of accumulator updates whose
    /// fuel was already flushed mid-expression.
    AddStore(u32),
    /// `PopLocals(n)` then `Jump(pc)` — the back edge of every loop whose
    /// body declared locals (`PopLocalsJump(n, pc)`).
    PopLocalsJump(u32, u32),
    /// `Fuel(n)` then `Return`.
    FuelReturn(u32),
    /// `LoadSlot2(a, b)` then `Fuel(n)` — the operand loads plus the fuel
    /// flush that precedes a binary operator (`LoadSlot2Fuel(a, b, n)`).
    LoadSlot2Fuel(u32, u32, u32),
    /// `LoadSlot2Fuel(a, b, n)` then the numeric operator — slot-to-slot
    /// arithmetic like `s - level` in one op
    /// (`SlotsFuelNumeric(a, b, n, op)`).
    SlotsFuelNumeric(u32, u32, u32, NumOp),
    /// `LoadSlot2Fuel(a, b, n)` then `Add` (`SlotsFuelAdd(a, b, n)`).
    SlotsFuelAdd(u32, u32, u32),
    /// `LoadSlot(slot)` then `Fuel(n)` (`LoadSlotFuel(slot, n)`).
    LoadSlotFuel(u32, u32),
    /// `LoadSlotFuel(slot, n)` then the numeric operator — the slot is the
    /// right operand, the left comes off the stack
    /// (`SlotFuelNumeric(slot, n, op)`).
    SlotFuelNumeric(u32, u32, NumOp),
    /// `LoadSlotFuel(slot, n)` then `Add` (`SlotFuelAdd(slot, n)`).
    SlotFuelAdd(u32, u32),
    /// `LoadSlot(slot)` then `Member(f)` — a field read like `fix.lat` that
    /// borrows the slot and clones only the field (`SlotMember(slot, f)`).
    SlotMember(u32, u32),
    /// `LoadSlotFuel(slot, n)` then `Member(f)`: range check, fuel, then the
    /// borrowed field read (`SlotFuelMember(slot, n, f)`).
    SlotFuelMember(u32, u32, u32),
}

/// The purely numeric binary operators, as carried by fused ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NumOp {
    /// Numeric difference.
    Sub,
    /// Numeric product.
    Mul,
    /// Numeric quotient.
    Div,
    /// Numeric remainder.
    Rem,
    /// Numeric `<`.
    Lt,
    /// Numeric `<=`.
    Le,
    /// Numeric `>`.
    Gt,
    /// Numeric `>=`.
    Ge,
}

impl NumOp {
    /// Applies the operator to two numbers (infallible).
    pub(crate) fn apply(self, a: f64, b: f64) -> Value {
        match self {
            NumOp::Sub => Value::Num(a - b),
            NumOp::Mul => Value::Num(a * b),
            NumOp::Div => Value::Num(a / b),
            NumOp::Rem => Value::Num(a % b),
            NumOp::Lt => Value::Bool(a < b),
            NumOp::Le => Value::Bool(a <= b),
            NumOp::Gt => Value::Bool(a > b),
            NumOp::Ge => Value::Bool(a >= b),
        }
    }
}

/// Fuses two adjacent ops into a single superinstruction where a fused
/// variant exists.
fn fuse(prev: Op, next: Op) -> Option<Op> {
    match (prev, next) {
        (Op::LoadSlot(a), Op::LoadSlot(b)) => Some(Op::LoadSlot2(a, b)),
        (Op::LoadSlot(slot), Op::Const(i)) => Some(Op::LoadSlotConst(slot, i)),
        (Op::Fuel(n), Op::Add) => Some(Op::FuelAdd(n)),
        (Op::Fuel(n), Op::Sub) => Some(Op::FuelNumeric(n, NumOp::Sub)),
        (Op::Fuel(n), Op::Mul) => Some(Op::FuelNumeric(n, NumOp::Mul)),
        (Op::Fuel(n), Op::Div) => Some(Op::FuelNumeric(n, NumOp::Div)),
        (Op::Fuel(n), Op::Rem) => Some(Op::FuelNumeric(n, NumOp::Rem)),
        (Op::Fuel(n), Op::Lt) => Some(Op::FuelNumeric(n, NumOp::Lt)),
        (Op::Fuel(n), Op::Le) => Some(Op::FuelNumeric(n, NumOp::Le)),
        (Op::Fuel(n), Op::Gt) => Some(Op::FuelNumeric(n, NumOp::Gt)),
        (Op::Fuel(n), Op::Ge) => Some(Op::FuelNumeric(n, NumOp::Ge)),
        (Op::Fuel(n), Op::Jump(t)) => Some(Op::FuelJump(n, t)),
        (Op::Fuel(n), Op::CallNamed(site)) => Some(Op::FuelCallNamed(n, site)),
        (Op::Fuel(n), Op::CallHost(site)) => Some(Op::FuelCallHost(n, site)),
        (Op::FuelAdd(n), Op::StoreSlot(slot)) => Some(Op::FuelAddStore(n, slot)),
        (Op::FuelNumeric(n, nop), Op::StoreSlot(slot)) => {
            Some(Op::FuelNumericStore(n, nop, slot))
        }
        (Op::Add, Op::StoreSlot(slot)) => Some(Op::AddStore(slot)),
        (Op::LoadSlot(slot), Op::Null) => Some(Op::LoadSlotNull(slot)),
        (Op::LoadSlotNull(slot), Op::Eq) => Some(Op::SlotEqNull(slot)),
        (Op::LoadSlotNull(slot), Op::Ne) => Some(Op::SlotNeNull(slot)),
        (Op::PopLocals(n), Op::Jump(t)) => Some(Op::PopLocalsJump(n, t)),
        (Op::Fuel(n), Op::Return) => Some(Op::FuelReturn(n)),
        // Slot-operand arithmetic chains: the operand loads absorb the fuel
        // flush that precedes every binary operator, then the operator
        // itself, collapsing `a - b` / `d * d` / `x + y` over frame slots
        // into a single op.
        (Op::LoadSlot2(a, b), Op::Fuel(n)) => Some(Op::LoadSlot2Fuel(a, b, n)),
        (Op::LoadSlot2Fuel(a, b, n), op) if num_op_of(op).is_some() => {
            Some(Op::SlotsFuelNumeric(a, b, n, num_op_of(op)?))
        }
        (Op::LoadSlot2Fuel(a, b, n), Op::Add) => Some(Op::SlotsFuelAdd(a, b, n)),
        (Op::LoadSlot(slot), Op::Fuel(n)) => Some(Op::LoadSlotFuel(slot, n)),
        (Op::LoadSlotFuel(slot, n), op) if num_op_of(op).is_some() => {
            Some(Op::SlotFuelNumeric(slot, n, num_op_of(op)?))
        }
        (Op::LoadSlotFuel(slot, n), Op::Add) => Some(Op::SlotFuelAdd(slot, n)),
        // Field reads off a local: read through the slot instead of
        // pushing a deep clone of the whole container.
        (Op::LoadSlot(slot), Op::Member(f)) => Some(Op::SlotMember(slot, f)),
        (Op::LoadSlotFuel(slot, n), Op::Member(f)) => Some(Op::SlotFuelMember(slot, n, f)),
        _ => None,
    }
}

/// The [`NumOp`] a plain operator op applies, when it is one.
fn num_op_of(op: Op) -> Option<NumOp> {
    match op {
        Op::Sub => Some(NumOp::Sub),
        Op::Mul => Some(NumOp::Mul),
        Op::Div => Some(NumOp::Div),
        Op::Rem => Some(NumOp::Rem),
        Op::Lt => Some(NumOp::Lt),
        Op::Le => Some(NumOp::Le),
        Op::Gt => Some(NumOp::Gt),
        Op::Ge => Some(NumOp::Ge),
        _ => None,
    }
}

/// A lowered user function.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledFn {
    /// Interned function name (also the binding key).
    pub(crate) name: u32,
    /// Interned parameter names, in declaration order.
    pub(crate) params: Vec<u32>,
    /// Entry pc of the body.
    pub(crate) entry: u32,
}

/// A call site: the pre-interned dispatch string plus its arity. The site
/// index doubles as the key of the VM's inline cache for that site.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallSite {
    /// Bare callee name (`CallNamed`) or flattened dotted host path
    /// (`CallHost`), ready to hand to [`super::Host::call`].
    pub(crate) path: String,
    /// Number of arguments at this site.
    pub(crate) argc: u32,
    /// Interned id of the bare callee name (`CallNamed` sites only; host
    /// sites carry `u32::MAX`, which the VM never reads).
    pub(crate) name: u32,
}

/// A map literal's interned record shape. The literal's `values` arrive on
/// the stack in source order; slot `s` takes the `value_of[s]`-th of them,
/// the last one written under its key (so a repeated key's last value
/// wins, and the earlier ones are dropped).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MapShape {
    pub(crate) shape: Shape,
    pub(crate) values: u32,
    pub(crate) value_of: Box<[u32]>,
}

/// A [`Program`] lowered to bytecode: the op stream plus the side tables it
/// indexes. Compile once per deployed script, execute per reading with
/// [`super::Vm`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub(crate) code: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    pub(crate) names: Vec<Arc<str>>,
    pub(crate) fns: Vec<CompiledFn>,
    pub(crate) sites: Vec<CallSite>,
    pub(crate) map_shapes: Vec<MapShape>,
}

impl CompiledProgram {
    /// Number of ops in the instruction stream.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program contains no ops (it never does: compilation
    /// always emits at least `Halt`).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// Hashable identity of a pooled constant (`f64` keyed by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConstKey {
    Num(u64),
    Str(String),
}

/// A function body queued for lowering once the enclosing code is done.
struct QueuedFn<'p> {
    index: usize,
    body: &'p [Stmt],
}

/// A user function eligible for call-site inlining: its body is a single
/// `return <expr>` whose expression contains no calls and no assignments,
/// its parameter names are distinct, and the program declares the name
/// exactly once, by an unconditionally executed top-level statement.
struct InlineFn<'p> {
    params: Vec<u32>,
    body: &'p Expr,
}

/// How one parameter of an inlined call is bound: reads of the parameter
/// inside the body compile to the substituted load (no temporary exists).
#[derive(Debug, Clone, Copy)]
enum ParamBinding {
    /// The argument was an identifier resolved to a caller frame slot.
    Slot(u32),
    /// The argument was a pooled number/string literal.
    Const(u32),
    /// The argument was the literal `null`.
    Null,
    /// The argument was the literal `true`.
    True,
    /// The argument was the literal `false`.
    False,
}

struct Compiler<'p> {
    code: Vec<Op>,
    consts: Vec<Value>,
    const_index: HashMap<ConstKey, u32>,
    names: Vec<Arc<str>>,
    name_index: HashMap<Arc<str>, u32>,
    fns: Vec<CompiledFn>,
    sites: Vec<CallSite>,
    map_shapes: Vec<MapShape>,
    shape_index: HashMap<Vec<u32>, u32>,
    /// Compile-time scope stack for the function currently being lowered;
    /// each scope holds the interned names of its locals in push order.
    scopes: Vec<Vec<u32>>,
    /// Fuel owed for AST nodes already entered but not yet charged.
    pending_fuel: u32,
    /// Ops at indices below this may not take part in fusion: the next
    /// index is (or may become) a jump target.
    fuse_barrier: usize,
    queue: Vec<QueuedFn<'p>>,
    /// `fn` declarations per name anywhere in the program; a second
    /// declaration could rebind the name at runtime, which disqualifies it
    /// from inlining.
    fn_decls: HashMap<&'p str, u32>,
    /// Leaf functions eligible for inlining, keyed by interned name.
    inline_fns: HashMap<u32, InlineFn<'p>>,
    /// Parameter substitutions active while compiling an inlined body.
    inline_aliases: Option<HashMap<u32, ParamBinding>>,
    /// Whether queued function bodies are being lowered: inlining is
    /// restricted to top-level call sites, where the runtime call depth is
    /// zero, so an inlined call can never observe `MAX_CALL_DEPTH`.
    in_function: bool,
}

/// Lowers `program` to bytecode. Fails only when a side table exceeds its
/// capacity limit.
pub(crate) fn compile(program: &Program) -> Result<CompiledProgram, ApisenseError> {
    let mut fn_decls = HashMap::new();
    count_fn_decls(&program.statements, &mut fn_decls);
    let mut c = Compiler {
        code: Vec::new(),
        consts: Vec::new(),
        const_index: HashMap::new(),
        names: Vec::new(),
        name_index: HashMap::new(),
        fns: Vec::new(),
        sites: Vec::new(),
        map_shapes: Vec::new(),
        shape_index: HashMap::new(),
        scopes: vec![Vec::new()],
        pending_fuel: 0,
        fuse_barrier: 0,
        queue: Vec::new(),
        fn_decls,
        inline_fns: HashMap::new(),
        inline_aliases: None,
        in_function: false,
    };
    for stmt in &program.statements {
        c.stmt(stmt, true)?;
        c.register_inline(stmt)?;
    }
    c.flush_fuel();
    c.emit(Op::Halt);
    c.in_function = true;
    while let Some(queued) = c.queue.pop() {
        c.function_body(queued)?;
    }
    Ok(CompiledProgram {
        code: c.code,
        consts: c.consts,
        names: c.names,
        fns: c.fns,
        sites: c.sites,
        map_shapes: c.map_shapes,
    })
}

fn limit_error(table: &'static str, count: usize, limit: usize) -> ApisenseError {
    ApisenseError::ScriptCompile {
        table,
        count,
        limit,
    }
}

impl<'p> Compiler<'p> {
    // ---- emission helpers -------------------------------------------------

    fn emit(&mut self, op: Op) {
        if self.code.len() > self.fuse_barrier {
            if let Some(&prev) = self.code.last() {
                if let Some(fused) = fuse(prev, op) {
                    *self.code.last_mut().expect("non-empty above") = fused;
                    return;
                }
            }
        }
        self.code.push(op);
    }

    /// Emits a jump with a placeholder target; returns its index for
    /// [`Self::patch_to_here`]. Conditional exits fuse with the fuel charge
    /// (and comparison) that always precedes them, collapsing the common
    /// loop-condition tail into one op.
    fn emit_jump(&mut self, op: Op) -> usize {
        if self.code.len() > self.fuse_barrier {
            if let Some(&prev) = self.code.last() {
                let fused = match (prev, op) {
                    (Op::Fuel(n), Op::Jump(t)) => Some(Op::FuelJump(n, t)),
                    (Op::Fuel(n), Op::JumpIfFalse(t)) => Some(Op::FuelJumpIfFalse(n, t)),
                    (Op::FuelNumeric(n, nop), Op::JumpIfFalse(t)) => {
                        Some(Op::FuelNumericJumpIfFalse(n, nop, t))
                    }
                    _ => None,
                };
                if let Some(fused) = fused {
                    *self.code.last_mut().expect("non-empty above") = fused;
                    return self.code.len() - 1;
                }
            }
        }
        self.code.push(op);
        self.code.len() - 1
    }

    /// Marks the current position as a jump target and returns it. The
    /// fusion barrier moves here so the next emitted op stays a real
    /// instruction boundary instead of disappearing into its predecessor.
    fn label_here(&mut self) -> u32 {
        self.fuse_barrier = self.code.len();
        self.code.len() as u32
    }

    fn patch_to_here(&mut self, at: usize) {
        let target = self.label_here();
        match &mut self.code[at] {
            Op::Jump(t)
            | Op::JumpIfFalse(t)
            | Op::JumpIfFalseBool(t)
            | Op::JumpIfTrueBool(t)
            | Op::FuelJump(_, t)
            | Op::FuelJumpIfFalse(_, t)
            | Op::FuelNumericJumpIfFalse(_, _, t) => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    /// Records fuel owed for `n` just-entered AST nodes.
    fn charge(&mut self, n: u32) {
        self.pending_fuel += n;
    }

    /// Emits the owed fuel charge. Called before every fallible op, every
    /// jump, and every jump target so cumulative fuel at each observable
    /// point matches the tree-walker exactly.
    fn flush_fuel(&mut self) {
        if self.pending_fuel > 0 {
            self.emit(Op::Fuel(self.pending_fuel));
            self.pending_fuel = 0;
        }
    }

    // ---- interning --------------------------------------------------------

    fn name_id(&mut self, name: &str) -> Result<u32, ApisenseError> {
        if let Some(&id) = self.name_index.get(name) {
            return Ok(id);
        }
        if self.names.len() >= MAX_TABLE {
            return Err(limit_error(
                "interned names",
                self.names.len() + 1,
                MAX_TABLE,
            ));
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = name.into();
        self.names.push(name.clone());
        self.name_index.insert(name, id);
        Ok(id)
    }

    fn const_id(&mut self, key: ConstKey, value: Value) -> Result<u32, ApisenseError> {
        if let Some(&id) = self.const_index.get(&key) {
            return Ok(id);
        }
        if self.consts.len() >= MAX_TABLE {
            return Err(limit_error(
                "constant pool",
                self.consts.len() + 1,
                MAX_TABLE,
            ));
        }
        let id = self.consts.len() as u32;
        self.consts.push(value);
        self.const_index.insert(key, id);
        Ok(id)
    }

    fn site_id(&mut self, path: String, argc: usize, name: u32) -> Result<u32, ApisenseError> {
        if self.sites.len() >= MAX_TABLE {
            return Err(limit_error("call sites", self.sites.len() + 1, MAX_TABLE));
        }
        let id = self.sites.len() as u32;
        self.sites.push(CallSite {
            path,
            argc: argc as u32,
            name,
        });
        Ok(id)
    }

    /// Interns the record shape of a map literal. The keys are interned as
    /// names, so field reads of the literal (`m.lat`) find their slot by
    /// pointer.
    fn shape_id(&mut self, entries: &[(String, Expr)]) -> Result<u32, ApisenseError> {
        let ids = entries
            .iter()
            .map(|(key, _)| self.name_id(key))
            .collect::<Result<Vec<u32>, _>>()?;
        if let Some(&id) = self.shape_index.get(&ids) {
            return Ok(id);
        }
        if self.map_shapes.len() >= MAX_TABLE {
            return Err(limit_error(
                "map shapes",
                self.map_shapes.len() + 1,
                MAX_TABLE,
            ));
        }
        let id = self.map_shapes.len() as u32;
        let shape = Shape::new(ids.iter().map(|&n| self.names[n as usize].clone()));
        let mut value_of = vec![0; shape.len()];
        // In source order, so a repeated key keeps its last value.
        for (i, &n) in ids.iter().enumerate() {
            let slot = shape
                .slot(&self.names[n as usize])
                .expect("the shape holds every key");
            value_of[slot] = i as u32;
        }
        self.map_shapes.push(MapShape {
            shape,
            values: ids.len() as u32,
            value_of: value_of.into_boxed_slice(),
        });
        self.shape_index.insert(ids, id);
        Ok(id)
    }

    // ---- scope resolution -------------------------------------------------

    fn frame_locals(&self) -> usize {
        self.scopes.iter().map(Vec::len).sum()
    }

    /// Resolves `id` against the current frame's scopes, innermost first;
    /// returns the frame-relative slot.
    fn resolve(&self, id: u32) -> Option<u32> {
        let mut base = self.frame_locals();
        for scope in self.scopes.iter().rev() {
            base -= scope.len();
            if let Some(pos) = scope.iter().rposition(|&n| n == id) {
                return Some((base + pos) as u32);
            }
        }
        None
    }

    /// Slot of `id` when already declared in the *innermost* scope (a `let`
    /// re-declaration overwrites in place, like the tree-walker's
    /// `HashMap::insert`).
    fn innermost_slot(&self, id: u32) -> Option<u32> {
        let scope = self.scopes.last().expect("scope stack never empty");
        let base = self.frame_locals() - scope.len();
        scope
            .iter()
            .rposition(|&n| n == id)
            .map(|pos| (base + pos) as u32)
    }

    fn declare_local(&mut self, id: u32) -> Result<(), ApisenseError> {
        if self.frame_locals() >= MAX_FRAME_LOCALS {
            return Err(limit_error(
                "frame locals",
                self.frame_locals() + 1,
                MAX_FRAME_LOCALS,
            ));
        }
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .push(id);
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    /// Lowers one statement. `value_ctx` is true for top-level statements,
    /// where each statement updates the program's result register the way
    /// the tree-walker tracks its `last` value.
    fn stmt(&mut self, stmt: &'p Stmt, value_ctx: bool) -> Result<(), ApisenseError> {
        self.charge(1); // the tree-walker burns once per executed statement
        match stmt {
            Stmt::Let(name, expr) => {
                self.expr(expr)?;
                let id = self.name_id(name)?;
                match self.innermost_slot(id) {
                    Some(slot) => self.emit(Op::StoreSlot(slot)),
                    None => {
                        self.declare_local(id)?;
                        self.emit(Op::PushLocal(id));
                    }
                }
                if value_ctx {
                    self.emit(Op::SetLastNull);
                }
            }
            Stmt::Fn { name, params, body } => {
                let name_id = self.name_id(name)?;
                let param_ids = params
                    .iter()
                    .map(|p| self.name_id(p))
                    .collect::<Result<Vec<_>, _>>()?;
                if self.fns.len() >= MAX_TABLE {
                    return Err(limit_error("functions", self.fns.len() + 1, MAX_TABLE));
                }
                let index = self.fns.len();
                self.fns.push(CompiledFn {
                    name: name_id,
                    params: param_ids,
                    entry: 0,
                });
                self.queue.push(QueuedFn { index, body });
                self.emit(Op::DeclareFn(index as u32));
                if value_ctx {
                    self.emit(Op::SetLastNull);
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                self.flush_fuel();
                let to_else = self.emit_jump(Op::JumpIfFalse(0));
                self.block(then_branch, value_ctx)?;
                self.flush_fuel();
                let to_end = self.emit_jump(Op::Jump(0));
                self.patch_to_here(to_else);
                self.block(else_branch, value_ctx)?;
                self.flush_fuel();
                self.patch_to_here(to_end);
            }
            Stmt::While { cond, body } => {
                // Charge the statement node once, before the loop head, so
                // each iteration pays only for the condition and body.
                self.flush_fuel();
                let head = self.label_here();
                self.expr(cond)?;
                self.flush_fuel();
                let to_end = self.emit_jump(Op::JumpIfFalse(0));
                self.block(body, false)?;
                self.flush_fuel();
                self.emit(Op::Jump(head));
                self.patch_to_here(to_end);
                if value_ctx {
                    self.emit(Op::SetLastNull);
                }
            }
            Stmt::Return(expr) => {
                match expr {
                    Some(e) => self.expr(e)?,
                    None => self.emit(Op::Null),
                }
                self.flush_fuel();
                self.emit(Op::Return);
            }
            Stmt::Expr(expr) => {
                if value_ctx {
                    self.expr(expr)?;
                    self.emit(Op::PopLast);
                } else if let Expr::Assign(target, value) = expr {
                    // Statement-position assignment: skip materializing the
                    // expression result (the tree-walker clones it only to
                    // discard it).
                    self.charge(1); // the Assign expression node itself
                    self.assign(target, value, false)?;
                } else {
                    self.expr(expr)?;
                    self.emit(Op::Pop);
                }
            }
        }
        Ok(())
    }

    /// Lowers a `{ ... }` block: fresh compile-time scope, locals popped on
    /// exit. In value context an empty block clears the result register
    /// (the tree-walker's empty block yields `Null`).
    fn block(&mut self, stmts: &'p [Stmt], value_ctx: bool) -> Result<(), ApisenseError> {
        if stmts.is_empty() {
            if value_ctx {
                self.emit(Op::SetLastNull);
            }
            return Ok(());
        }
        self.scopes.push(Vec::new());
        let mut result = Ok(());
        for stmt in stmts {
            result = self.stmt(stmt, value_ctx);
            if result.is_err() {
                break;
            }
        }
        let popped = self.scopes.pop().expect("scope pushed above").len();
        result?;
        if popped > 0 {
            self.emit(Op::PopLocals(popped as u32));
        }
        Ok(())
    }

    /// Lowers a queued function body with a fresh frame scope holding the
    /// parameters. Falls off the end as `return null` (the tree-walker
    /// yields `Null` unless an explicit `return` runs).
    fn function_body(&mut self, queued: QueuedFn<'p>) -> Result<(), ApisenseError> {
        self.fns[queued.index].entry = self.label_here();
        let params = self.fns[queued.index].params.clone();
        let saved = std::mem::replace(&mut self.scopes, vec![params]);
        debug_assert_eq!(self.pending_fuel, 0, "fuel leaked across function bodies");
        let mut result = Ok(());
        for stmt in queued.body {
            result = self.stmt(stmt, false);
            if result.is_err() {
                break;
            }
        }
        self.scopes = saved;
        result?;
        self.flush_fuel();
        self.emit(Op::Null);
        self.emit(Op::Return);
        Ok(())
    }

    // ---- expressions ------------------------------------------------------

    /// Lowers an expression; the generated ops leave exactly one value on
    /// the stack.
    fn expr(&mut self, expr: &'p Expr) -> Result<(), ApisenseError> {
        self.charge(1); // the tree-walker burns once per evaluated node
        match expr {
            Expr::Num(n) => {
                let id = self.const_id(ConstKey::Num(n.to_bits()), Value::Num(*n))?;
                self.emit(Op::Const(id));
            }
            Expr::Str(s) => {
                let id =
                    self.const_id(ConstKey::Str(s.clone()), Value::Str(s.as_str().into()))?;
                self.emit(Op::Const(id));
            }
            Expr::Bool(true) => self.emit(Op::True),
            Expr::Bool(false) => self.emit(Op::False),
            Expr::Null => self.emit(Op::Null),
            Expr::Ident(name) => {
                let id = self.name_id(name)?;
                let alias = self
                    .inline_aliases
                    .as_ref()
                    .and_then(|aliases| aliases.get(&id))
                    .copied();
                if let Some(binding) = alias {
                    match binding {
                        ParamBinding::Slot(slot) => self.emit(Op::LoadSlot(slot)),
                        ParamBinding::Const(i) => self.emit(Op::Const(i)),
                        ParamBinding::Null => self.emit(Op::Null),
                        ParamBinding::True => self.emit(Op::True),
                        ParamBinding::False => self.emit(Op::False),
                    }
                } else {
                    match self.resolve(id) {
                        Some(slot) => self.emit(Op::LoadSlot(slot)),
                        None => {
                            self.flush_fuel();
                            self.emit(Op::LoadDyn(id));
                        }
                    }
                }
            }
            Expr::List(items) => {
                for item in items {
                    self.expr(item)?;
                }
                self.emit(Op::MakeList(items.len() as u32));
            }
            Expr::Map(entries) => {
                for (_, value) in entries {
                    self.expr(value)?;
                }
                let id = self.shape_id(entries)?;
                self.emit(Op::MakeMap(id));
            }
            Expr::Unary(op, operand) => {
                self.expr(operand)?;
                match op {
                    UnaryOp::Neg => {
                        self.flush_fuel();
                        self.emit(Op::Neg);
                    }
                    UnaryOp::Not => self.emit(Op::Not),
                }
            }
            Expr::Binary(op, lhs, rhs) => self.binary(*op, lhs, rhs)?,
            Expr::Member(object, field) => {
                self.expr(object)?;
                let id = self.name_id(field)?;
                self.flush_fuel();
                self.emit(Op::Member(id));
            }
            Expr::Index(object, index) => {
                self.expr(object)?;
                self.expr(index)?;
                self.flush_fuel();
                self.emit(Op::IndexGet);
            }
            Expr::Call(callee, args) => self.call(callee, args)?,
            Expr::Assign(target, value) => self.assign(target, value, true)?,
        }
        Ok(())
    }

    fn binary(
        &mut self,
        op: BinaryOp,
        lhs: &'p Expr,
        rhs: &'p Expr,
    ) -> Result<(), ApisenseError> {
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            self.expr(lhs)?;
            self.flush_fuel();
            let short = self.emit_jump(match op {
                BinaryOp::And => Op::JumpIfFalseBool(0),
                _ => Op::JumpIfTrueBool(0),
            });
            self.expr(rhs)?;
            self.flush_fuel();
            self.emit(Op::ToBool);
            self.patch_to_here(short);
            return Ok(());
        }
        self.expr(lhs)?;
        self.expr(rhs)?;
        let compiled = match op {
            BinaryOp::Add => Op::Add,
            BinaryOp::Sub => Op::Sub,
            BinaryOp::Mul => Op::Mul,
            BinaryOp::Div => Op::Div,
            BinaryOp::Rem => Op::Rem,
            BinaryOp::Eq => Op::Eq,
            BinaryOp::Ne => Op::Ne,
            BinaryOp::Lt => Op::Lt,
            BinaryOp::Le => Op::Le,
            BinaryOp::Gt => Op::Gt,
            BinaryOp::Ge => Op::Ge,
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        };
        if !matches!(compiled, Op::Eq | Op::Ne) {
            self.flush_fuel(); // numeric ops can fail on non-numbers
        }
        self.emit(compiled);
        Ok(())
    }

    /// Records `stmt` as an inlinable leaf function when it qualifies.
    /// Called only for unconditionally executed top-level statements, after
    /// the declaration itself has been lowered, so every later call site is
    /// guaranteed to see the binding live.
    fn register_inline(&mut self, stmt: &'p Stmt) -> Result<(), ApisenseError> {
        let Stmt::Fn { name, params, body } = stmt else {
            return Ok(());
        };
        if self.fn_decls.get(name.as_str()) != Some(&1) {
            return Ok(());
        }
        let [Stmt::Return(Some(expr))] = body.as_slice() else {
            return Ok(());
        };
        if !is_leaf_expr(expr) {
            return Ok(());
        }
        let mut param_ids = Vec::with_capacity(params.len());
        for param in params {
            param_ids.push(self.name_id(param)?);
        }
        let mut distinct = param_ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != param_ids.len() {
            return Ok(()); // duplicate parameters shadow each other
        }
        let id = self.name_id(name)?;
        self.inline_fns.insert(
            id,
            InlineFn {
                params: param_ids,
                body: expr,
            },
        );
        Ok(())
    }

    /// Compiles a call to an inlinable leaf function in place: arguments
    /// bind as substitutions (resolved identifiers, literals) or spill to
    /// real temporaries (anything whose evaluation is observable), then the
    /// body expression compiles directly into the caller's frame — no call
    /// frame, no dispatch, no return.
    ///
    /// Fuel matches the tree-walker node for node: the `Call` node is
    /// charged by [`Self::expr`], each substituted argument charges its
    /// single node here, spilled arguments charge through [`Self::expr`],
    /// the body's `return` statement charges one, and the body expression
    /// charges as usual.
    fn inline_call(
        &mut self,
        params: &[u32],
        body: &'p Expr,
        args: &'p [Expr],
    ) -> Result<(), ApisenseError> {
        // A substituted identifier is re-read at body position, after every
        // argument: only safe when no argument expression can assign to it.
        let allow_slots = !args.iter().any(contains_assign);
        let mut bindings = HashMap::new();
        let mut spilled = Vec::new();
        for (&param, arg) in params.iter().zip(args) {
            match self.substitution(arg, allow_slots)? {
                Some(binding) => {
                    self.charge(1); // the argument's single AST node
                    bindings.insert(param, binding);
                }
                None => {
                    self.expr(arg)?; // observable: evaluate once, in order
                    spilled.push(param);
                }
            }
        }
        // Arguments all evaluated against the caller's scope; only now do
        // the spilled ones become named locals. Pushed in reverse so the
        // first spilled argument (deepest on the stack) binds last and ends
        // up under its own name.
        self.scopes.push(Vec::new());
        for &param in spilled.iter().rev() {
            self.declare_local(param)?;
            self.emit(Op::PushLocal(param));
        }
        self.charge(1); // the body's `return` statement
        let replaced = self.inline_aliases.replace(bindings);
        debug_assert!(replaced.is_none(), "inline calls never nest");
        let result = self.expr(body);
        self.inline_aliases = None;
        let popped = self.scopes.pop().expect("scope pushed above").len();
        result?;
        if popped > 0 {
            self.emit(Op::PopLocals(popped as u32));
        }
        Ok(())
    }

    /// Compile-time binding for an inlined argument whose evaluation is
    /// unobservable: a frame-resolved identifier or a literal. Anything
    /// else (host calls, arithmetic, dynamic lookups that may error)
    /// returns `None` and is evaluated at the call site instead.
    fn substitution(
        &mut self,
        arg: &Expr,
        allow_slots: bool,
    ) -> Result<Option<ParamBinding>, ApisenseError> {
        Ok(match arg {
            Expr::Num(n) => Some(ParamBinding::Const(
                self.const_id(ConstKey::Num(n.to_bits()), Value::Num(*n))?,
            )),
            Expr::Str(s) => Some(ParamBinding::Const(
                self.const_id(ConstKey::Str(s.clone()), Value::Str(s.as_str().into()))?,
            )),
            Expr::Bool(true) => Some(ParamBinding::True),
            Expr::Bool(false) => Some(ParamBinding::False),
            Expr::Null => Some(ParamBinding::Null),
            Expr::Ident(name) if allow_slots => {
                let id = self.name_id(name)?;
                self.resolve(id).map(ParamBinding::Slot)
            }
            _ => None,
        })
    }

    fn call(&mut self, callee: &'p Expr, args: &'p [Expr]) -> Result<(), ApisenseError> {
        if let Expr::Ident(name) = callee {
            if !self.in_function && self.inline_aliases.is_none() {
                let id = self.name_id(name)?;
                if let Some(inline) = self.inline_fns.get(&id) {
                    if inline.params.len() == args.len() {
                        let params = inline.params.clone();
                        let body = inline.body;
                        return self.inline_call(&params, body, args);
                    }
                }
            }
        }
        for arg in args {
            self.expr(arg)?;
        }
        self.flush_fuel();
        if let Expr::Ident(name) = callee {
            let id = self.name_id(name)?;
            let site = self.site_id(name.clone(), args.len(), id)?;
            self.emit(Op::CallNamed(site));
            return Ok(());
        }
        match host_path(callee) {
            Some(path) => {
                let site = self.site_id(path, args.len(), u32::MAX)?;
                self.emit(Op::CallHost(site));
            }
            None => self.emit(Op::CallInvalid),
        }
        Ok(())
    }

    /// Lowers `target = value`. With `keep_value` the assigned value stays
    /// on the stack as the expression result.
    ///
    /// The caller accounts the `Assign` node's own fuel charge.
    fn assign(
        &mut self,
        target: &'p Expr,
        value: &'p Expr,
        keep_value: bool,
    ) -> Result<(), ApisenseError> {
        self.expr(value)?;
        if keep_value {
            self.emit(Op::Dup);
        }
        match target {
            Expr::Ident(name) => {
                let id = self.name_id(name)?;
                match self.resolve(id) {
                    Some(slot) => self.emit(Op::StoreSlot(slot)),
                    None => {
                        self.flush_fuel();
                        self.emit(Op::StoreDyn(id));
                    }
                }
            }
            Expr::Member(object, field) => {
                let field_id = self.name_id(field)?;
                if let Expr::Ident(root) = object.as_ref() {
                    let root_id = self.name_id(root)?;
                    self.flush_fuel();
                    match self.resolve(root_id) {
                        Some(slot) => self.emit(Op::MemberSetSlot(slot, field_id)),
                        None => self.emit(Op::MemberSetDyn(root_id, field_id)),
                    }
                } else {
                    self.failed_assign(object)?;
                }
            }
            Expr::Index(object, index) => {
                self.expr(index)?;
                if let Expr::Ident(root) = object.as_ref() {
                    let root_id = self.name_id(root)?;
                    self.flush_fuel();
                    match self.resolve(root_id) {
                        Some(slot) => self.emit(Op::IndexSetSlot(slot)),
                        None => self.emit(Op::IndexSetDyn(root_id)),
                    }
                } else {
                    self.failed_assign(object)?;
                }
            }
            _ => {
                self.flush_fuel();
                self.emit(Op::FailAssign(AssignFault::Invalid, 0));
            }
        }
        Ok(())
    }

    /// Emits the error op for an assignment through a multi-step or rootless
    /// path, preserving the tree-walker's error precedence (root lookup
    /// failure beats the nested-path error).
    fn failed_assign(&mut self, container: &'p Expr) -> Result<(), ApisenseError> {
        self.flush_fuel();
        match root_ident(container) {
            Some(root) => {
                let id = self.name_id(root)?;
                match self.resolve(id) {
                    Some(_) => self.emit(Op::FailAssign(AssignFault::Nested, 0)),
                    None => self.emit(Op::FailAssign(AssignFault::NestedDyn, id)),
                }
            }
            None => self.emit(Op::FailAssign(AssignFault::Unsupported, 0)),
        }
        Ok(())
    }
}

/// Flattens an identifier/member chain to a dotted host path (`sensor.gps`).
fn host_path(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Ident(name) => Some(name.clone()),
        Expr::Member(object, field) => host_path(object).map(|base| format!("{base}.{field}")),
        _ => None,
    }
}

/// Innermost identifier a member/index chain hangs off.
fn root_ident(expr: &Expr) -> Option<&str> {
    match expr {
        Expr::Ident(name) => Some(name),
        Expr::Member(object, _) | Expr::Index(object, _) => root_ident(object),
        _ => None,
    }
}

/// Counts `fn` declarations per name across the whole program, including
/// nested and conditional ones: any second declaration could rebind the
/// name at runtime.
fn count_fn_decls<'p>(stmts: &'p [Stmt], counts: &mut HashMap<&'p str, u32>) {
    for stmt in stmts {
        match stmt {
            Stmt::Fn { name, body, .. } => {
                *counts.entry(name.as_str()).or_insert(0) += 1;
                count_fn_decls(body, counts);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                count_fn_decls(then_branch, counts);
                count_fn_decls(else_branch, counts);
            }
            Stmt::While { body, .. } => count_fn_decls(body, counts),
            _ => {}
        }
    }
}

/// Whether `expr` contains no calls and no assignments anywhere: calls
/// would need a frame (and could recurse); assignments could write through
/// to substituted caller slots.
fn is_leaf_expr(expr: &Expr) -> bool {
    match expr {
        Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Ident(_) => true,
        Expr::List(items) => items.iter().all(is_leaf_expr),
        Expr::Map(entries) => entries.iter().all(|(_, v)| is_leaf_expr(v)),
        Expr::Unary(_, operand) => is_leaf_expr(operand),
        Expr::Binary(_, lhs, rhs) => is_leaf_expr(lhs) && is_leaf_expr(rhs),
        Expr::Member(object, _) => is_leaf_expr(object),
        Expr::Index(object, index) => is_leaf_expr(object) && is_leaf_expr(index),
        Expr::Call(..) | Expr::Assign(..) => false,
    }
}

/// Whether `expr` contains an assignment anywhere (used to disable slot
/// substitution when any inlined argument could mutate a sibling
/// argument's variable before the body reads it).
fn contains_assign(expr: &Expr) -> bool {
    match expr {
        Expr::Assign(..) => true,
        Expr::Num(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Ident(_) => false,
        Expr::List(items) => items.iter().any(contains_assign),
        Expr::Map(entries) => entries.iter().any(|(_, v)| contains_assign(v)),
        Expr::Unary(_, operand) => contains_assign(operand),
        Expr::Binary(_, lhs, rhs) => contains_assign(lhs) || contains_assign(rhs),
        Expr::Member(object, _) => contains_assign(object),
        Expr::Index(object, index) => contains_assign(object) || contains_assign(index),
        Expr::Call(callee, args) => contains_assign(callee) || args.iter().any(contains_assign),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;

    fn compiled(src: &str) -> CompiledProgram {
        CompiledProgram::clone(Script::compile(src).expect("script compiles").compiled())
    }

    /// Fuel units an op charges, across the plain op and every fused carrier.
    fn fuel_of(op: &Op) -> u32 {
        match op {
            Op::Fuel(n)
            | Op::FuelAdd(n)
            | Op::FuelNumeric(n, _)
            | Op::FuelJump(n, _)
            | Op::FuelJumpIfFalse(n, _)
            | Op::FuelNumericJumpIfFalse(n, _, _)
            | Op::FuelCallNamed(n, _)
            | Op::FuelCallHost(n, _)
            | Op::FuelAddStore(n, _)
            | Op::FuelNumericStore(n, _, _)
            | Op::FuelReturn(n)
            | Op::LoadSlot2Fuel(_, _, n)
            | Op::SlotsFuelNumeric(_, _, n, _)
            | Op::SlotsFuelAdd(_, _, n)
            | Op::LoadSlotFuel(_, n)
            | Op::SlotFuelNumeric(_, n, _)
            | Op::SlotFuelAdd(_, n)
            | Op::SlotFuelMember(_, n, _) => *n,
            _ => 0,
        }
    }

    #[test]
    fn op_stays_word_sized() {
        println!("Op = {} bytes", std::mem::size_of::<Op>());
        assert!(std::mem::size_of::<Op>() <= 16);
    }

    #[test]
    fn host_sites_are_pre_interned() {
        let program = compiled("let fix = sensor.gps(); emit(fix);");
        let paths: Vec<&str> = program.sites.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["sensor.gps", "emit"]);
        assert!(program
            .code
            .iter()
            .any(|op| matches!(op, Op::CallHost(0) | Op::FuelCallHost(_, 0))));
        assert!(program
            .code
            .iter()
            .any(|op| matches!(op, Op::CallNamed(1) | Op::FuelCallNamed(_, 1))));
    }

    #[test]
    fn field_reads_off_locals_fuse_into_slot_member_ops() {
        // The location task of the end-to-end benchmark: one reading.
        let program = compiled(
            r#"
            let fix = sensor.gps();
            let battery = sensor.battery();
            if (fix != null) {
                emit({ "lat": fix.lat, "lon": fix.lon, "battery": battery });
            }
            "#,
        );
        for pair in program.code.windows(2) {
            assert!(
                !matches!(
                    pair,
                    [Op::LoadSlot(_) | Op::LoadSlotFuel(..), Op::Member(_)]
                ),
                "unfused field read {pair:?} in {:?}",
                program.code
            );
        }
        let fused = program
            .code
            .iter()
            .filter(|op| matches!(op, Op::SlotMember(..) | Op::SlotFuelMember(..)))
            .count();
        assert_eq!(fused, 2, "{:?}", program.code);
    }

    #[test]
    fn locals_become_slots() {
        let program = compiled("let a = 1; let b = 2; a + b;");
        // The slot loads, the fuel flush and the operator all fuse into one
        // superinstruction.
        assert!(program
            .code
            .iter()
            .any(|op| matches!(op, Op::SlotsFuelAdd(0, 1, _))));
        assert!(!program.code.iter().any(|op| matches!(op, Op::LoadDyn(_))));
    }

    #[test]
    fn fusion_never_swallows_a_jump_target() {
        // The loop head is `LoadSlot(i); Const; ...` right after the
        // preceding statement's ops: without the fusion barrier the head
        // op would merge backwards and the loop's back-jump would land
        // mid-instruction.
        let program = compiled("let i = 0; let x = 9; while (i < 3) { i = i + 1; } emit(i);");
        for op in &program.code {
            let target = match op {
                Op::Jump(t)
                | Op::JumpIfFalse(t)
                | Op::FuelJump(_, t)
                | Op::FuelJumpIfFalse(_, t)
                | Op::FuelNumericJumpIfFalse(_, _, t)
                | Op::PopLocalsJump(_, t) => Some(*t),
                _ => None,
            };
            if let Some(t) = target {
                assert!(
                    (t as usize) < program.code.len(),
                    "jump target {t} out of range"
                );
            }
        }
        // The loop still terminates with the right value under the VM.
        struct Mute;
        impl crate::script::Host for Mute {
            fn call(&mut self, _: &str, _: &mut [Value]) -> Result<Value, ApisenseError> {
                Ok(Value::Null)
            }
        }
        let script = Script::compile("let i = 0; while (i < 3) { i = i + 1; } i;")
            .expect("script compiles");
        let out = script
            .run_vm(&mut crate::script::Vm::new(), &mut Mute, 10_000)
            .expect("runs");
        assert_eq!(out, Value::Num(3.0));
    }

    /// Whether any (possibly fuel-fused) user-call op survived compilation.
    fn has_named_call(program: &CompiledProgram) -> bool {
        program
            .code
            .iter()
            .any(|op| matches!(op, Op::CallNamed(_) | Op::FuelCallNamed(_, _)))
    }

    #[test]
    fn leaf_calls_inline_at_top_level() {
        let program = compiled(
            "fn smooth(prev, s, alpha) { return prev + alpha * (s - prev); }\n\
             let level = 1; let x = smooth(level, 2, 0.5); x",
        );
        // The body expands in place with the arguments substituted, so no
        // user-call op survives.
        assert!(!has_named_call(&program), "{:?}", program.code);
    }

    #[test]
    fn duplicate_declarations_are_not_inlined() {
        let program = compiled(
            "fn f(x) { return x + 1; }\n\
             if (1 < 2) { fn f(x) { return x + 2; } }\n\
             let y = f(1); y",
        );
        // Which `f` is live depends on runtime control flow: the site must
        // stay a real, dynamically resolved call.
        assert!(has_named_call(&program));
    }

    #[test]
    fn calls_before_the_declaration_are_not_inlined() {
        // Declarations take effect when executed, so a preceding call site
        // must dispatch dynamically (and fault, exactly as the tree-walker
        // does).
        let program = compiled("let y = f(1); fn f(x) { return x + 1; } y");
        assert!(has_named_call(&program));
    }

    #[test]
    fn non_leaf_bodies_are_not_inlined() {
        let program = compiled(
            "fn g(x) { return x + 1; }\n\
             fn f(x) { return g(x) + 1; }\n\
             let y = f(1); y",
        );
        // `f` calls another function, so its site stays a real call.
        assert!(has_named_call(&program));
    }

    #[test]
    fn constants_are_pooled() {
        let program = compiled("let a = 2.5; let b = 2.5; let c = \"x\"; let d = \"x\";");
        assert_eq!(program.consts.len(), 2);
    }

    #[test]
    fn undeclared_reads_fall_back_to_dynamic_lookup() {
        let program = compiled("ghost;");
        assert!(program.code.iter().any(|op| matches!(op, Op::LoadDyn(_))));
    }

    #[test]
    fn frame_local_limit_is_a_typed_error() {
        let mut src = String::new();
        for i in 0..=MAX_FRAME_LOCALS {
            src.push_str(&format!("let v{i} = {i};\n"));
        }
        let err = Script::compile(&src).expect_err("over the local limit");
        assert_eq!(
            err,
            ApisenseError::ScriptCompile {
                table: "frame locals",
                count: MAX_FRAME_LOCALS + 1,
                limit: MAX_FRAME_LOCALS,
            }
        );
    }

    #[test]
    fn fuel_is_charged_in_blocks() {
        // Straight-line code collapses many per-node burns into few Fuel ops.
        let program = compiled("let a = 1 + 2 * 3; emit(a);");
        let fuel_ops = program.code.iter().filter(|op| fuel_of(op) > 0).count();
        assert!(
            fuel_ops <= 2,
            "expected coarse fuel charges, got {fuel_ops}"
        );
        let total: u32 = program.code.iter().map(fuel_of).sum();
        // 2 statements + 7 expression nodes, exactly what the tree-walker burns.
        assert_eq!(total, 9);
    }
}
