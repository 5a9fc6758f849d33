//! Sandboxed tree-walking interpreter for the task-scripting DSL.

use super::parser::{BinaryOp, Expr, Program, Stmt, UnaryOp};
use super::{Record, Value};
use crate::error::ApisenseError;
use std::collections::HashMap;
use std::rc::Rc;

/// The device-side API surface exposed to scripts.
///
/// Every call whose callee is not a user-defined function is routed here
/// with its dotted path, e.g. `sensor.gps` or `emit`. Hosts decide which
/// capabilities a script gets — the interpreter itself has no ambient
/// authority (no filesystem, network or clock access).
pub trait Host {
    /// Invokes a host function.
    ///
    /// The argument slice is owned by the call: the host may consume the
    /// values (e.g. `std::mem::replace` them with `Value::Null`) instead of
    /// cloning, and the engine discards whatever is left afterwards.
    ///
    /// # Errors
    ///
    /// Implementations should return [`ApisenseError::UnknownSensor`] for
    /// unknown paths and may fail for domain-specific reasons.
    fn call(&mut self, path: &str, args: &mut [Value]) -> Result<Value, ApisenseError>;

    /// Optional fast-path dispatch: maps `path` to a host-chosen endpoint
    /// id accepted by [`Host::call_resolved`]. The bytecode VM resolves
    /// each call site once per run and dispatches by id from then on; the
    /// tree-walker has no per-site storage and always takes the string
    /// path. Hosts that return `None` (the default) stay on string
    /// dispatch everywhere.
    ///
    /// `resolve(p) == Some(e)` must imply that `call_resolved(e, args)`
    /// behaves exactly like `call(p, args)` — the differential tests hold
    /// both tiers to identical results.
    fn resolve(&mut self, _path: &str) -> Option<u32> {
        None
    }

    /// Invokes an endpoint previously returned by [`Host::resolve`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Host::call`] for the resolved path.
    fn call_resolved(
        &mut self,
        _endpoint: u32,
        _args: &mut [Value],
    ) -> Result<Value, ApisenseError> {
        Err(ApisenseError::Runtime(
            "host does not support endpoint dispatch".into(),
        ))
    }
}

/// Control-flow result of executing a statement.
enum Flow {
    Normal(Value),
    Return(Value),
}

/// A user-defined function. Declarations store it behind an [`Rc`] so
/// calling it shares the body instead of cloning the statement tree.
struct Function {
    params: Vec<String>,
    body: Vec<Stmt>,
}

/// The script interpreter. One instance runs one program.
pub struct Interpreter<'h> {
    host: &'h mut dyn Host,
    fuel: u64,
    scopes: Vec<HashMap<String, Value>>,
    functions: HashMap<String, Rc<Function>>,
    call_depth: usize,
}

/// Maximum user-function call depth, shared with the bytecode VM so both
/// tiers reject recursion at the same point.
pub(crate) const MAX_CALL_DEPTH: usize = 64;

impl<'h> Interpreter<'h> {
    /// Creates an interpreter with an execution budget.
    pub fn new(host: &'h mut dyn Host, fuel: u64) -> Self {
        Self {
            host,
            fuel,
            scopes: vec![HashMap::new()],
            functions: HashMap::new(),
            call_depth: 0,
        }
    }

    /// Runs a program; returns the value of the last expression statement.
    ///
    /// # Errors
    ///
    /// Propagates runtime, host and fuel errors.
    pub fn run(&mut self, program: &Program) -> Result<Value, ApisenseError> {
        let mut last = Value::Null;
        for stmt in &program.statements {
            match self.execute(stmt)? {
                Flow::Normal(v) => last = v,
                Flow::Return(v) => return Ok(v),
            }
        }
        Ok(last)
    }

    fn burn(&mut self) -> Result<(), ApisenseError> {
        if self.fuel == 0 {
            return Err(ApisenseError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn assign_var(&mut self, name: &str, value: Value) -> Result<(), ApisenseError> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return Ok(());
            }
        }
        Err(ApisenseError::Runtime(format!(
            "assignment to undeclared variable '{name}'"
        )))
    }

    fn execute(&mut self, stmt: &Stmt) -> Result<Flow, ApisenseError> {
        self.burn()?;
        match stmt {
            Stmt::Let(name, expr) => {
                let value = self.eval(expr)?;
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), value);
                Ok(Flow::Normal(Value::Null))
            }
            Stmt::Fn { name, params, body } => {
                self.functions.insert(
                    name.clone(),
                    Rc::new(Function {
                        params: params.clone(),
                        body: body.clone(),
                    }),
                );
                Ok(Flow::Normal(Value::Null))
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = if self.eval(cond)?.is_truthy() {
                    then_branch
                } else {
                    else_branch
                };
                self.execute_block(branch)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.is_truthy() {
                    match self.execute_block(body)? {
                        Flow::Normal(_) => {}
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal(Value::Null))
            }
            Stmt::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(value))
            }
            Stmt::Expr(expr) => Ok(Flow::Normal(self.eval(expr)?)),
        }
    }

    fn execute_block(&mut self, body: &[Stmt]) -> Result<Flow, ApisenseError> {
        self.scopes.push(HashMap::new());
        let mut result = Flow::Normal(Value::Null);
        for stmt in body {
            match self.execute(stmt)? {
                Flow::Normal(v) => result = Flow::Normal(v),
                flow @ Flow::Return(_) => {
                    self.scopes.pop();
                    return Ok(flow);
                }
            }
        }
        self.scopes.pop();
        Ok(result)
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, ApisenseError> {
        self.burn()?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(s.as_str().into())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Ident(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| ApisenseError::Runtime(format!("undefined variable '{name}'"))),
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::List(out))
            }
            Expr::Map(entries) => {
                let mut out = Vec::with_capacity(entries.len());
                for (key, value) in entries {
                    out.push((key.as_str(), self.eval(value)?));
                }
                Ok(Value::Record(Record::new(out)))
            }
            Expr::Unary(op, operand) => {
                let value = self.eval(operand)?;
                match op {
                    UnaryOp::Neg => match value {
                        Value::Num(n) => Ok(Value::Num(-n)),
                        other => Err(ApisenseError::Runtime(format!("cannot negate {other}"))),
                    },
                    UnaryOp::Not => Ok(Value::Bool(!value.is_truthy())),
                }
            }
            Expr::Binary(op, left, right) => self.eval_binary(*op, left, right),
            Expr::Member(object, field) => {
                let value = self.eval(object)?;
                match value {
                    Value::Record(r) => Ok(r.get(field).cloned().unwrap_or(Value::Null)),
                    Value::List(items) if field == "length" => {
                        Ok(Value::Num(items.len() as f64))
                    }
                    Value::Str(s) if field == "length" => {
                        Ok(Value::Num(s.chars().count() as f64))
                    }
                    other => Err(ApisenseError::Runtime(format!(
                        "no field '{field}' on {other}"
                    ))),
                }
            }
            Expr::Index(object, index) => {
                let value = self.eval(object)?;
                let idx = self.eval(index)?;
                match (value, idx) {
                    (Value::List(items), Value::Num(n)) => {
                        let i = n as usize;
                        Ok(items.get(i).cloned().unwrap_or(Value::Null))
                    }
                    (Value::Record(r), Value::Str(k)) => {
                        Ok(r.get(&k).cloned().unwrap_or(Value::Null))
                    }
                    (v, i) => Err(ApisenseError::Runtime(format!("cannot index {v} with {i}"))),
                }
            }
            Expr::Call(callee, args) => self.eval_call(callee, args),
            Expr::Assign(target, value) => {
                let value = self.eval(value)?;
                self.eval_assign(target, value.clone())?;
                Ok(value)
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        left: &Expr,
        right: &Expr,
    ) -> Result<Value, ApisenseError> {
        // Short-circuit logic first.
        match op {
            BinaryOp::And => {
                let l = self.eval(left)?;
                if !l.is_truthy() {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(self.eval(right)?.is_truthy()));
            }
            BinaryOp::Or => {
                let l = self.eval(left)?;
                if l.is_truthy() {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(self.eval(right)?.is_truthy()));
            }
            _ => {}
        }
        let l = self.eval(left)?;
        let r = self.eval(right)?;
        let num_op = |l: f64, r: f64, op: BinaryOp| -> Result<Value, ApisenseError> {
            Ok(match op {
                BinaryOp::Add => Value::Num(l + r),
                BinaryOp::Sub => Value::Num(l - r),
                BinaryOp::Mul => Value::Num(l * r),
                BinaryOp::Div => Value::Num(l / r),
                BinaryOp::Rem => Value::Num(l % r),
                BinaryOp::Lt => Value::Bool(l < r),
                BinaryOp::Le => Value::Bool(l <= r),
                BinaryOp::Gt => Value::Bool(l > r),
                BinaryOp::Ge => Value::Bool(l >= r),
                _ => unreachable!("handled below"),
            })
        };
        match op {
            BinaryOp::Eq => Ok(Value::Bool(l == r)),
            BinaryOp::Ne => Ok(Value::Bool(l != r)),
            BinaryOp::Add => match (&l, &r) {
                (Value::Num(a), Value::Num(b)) => num_op(*a, *b, op),
                (Value::Str(a), b) => Ok(Value::Str(format!("{a}{b}").into())),
                (a, Value::Str(b)) => Ok(Value::Str(format!("{a}{b}").into())),
                (a, b) => Err(ApisenseError::Runtime(format!("cannot add {a} and {b}"))),
            },
            _ => match (&l, &r) {
                (Value::Num(a), Value::Num(b)) => num_op(*a, *b, op),
                (a, b) => Err(ApisenseError::Runtime(format!(
                    "numeric operator applied to {a} and {b}"
                ))),
            },
        }
    }

    /// Renders a callee expression as a dotted host path (`sensor.gps`).
    fn host_path(expr: &Expr) -> Option<String> {
        match expr {
            Expr::Ident(name) => Some(name.clone()),
            Expr::Member(object, field) => {
                Self::host_path(object).map(|base| format!("{base}.{field}"))
            }
            _ => None,
        }
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr]) -> Result<Value, ApisenseError> {
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.eval(arg)?);
        }
        // User-defined functions shadow host functions for bare names.
        if let Expr::Ident(name) = callee {
            if let Some(function) = self.functions.get(name).cloned() {
                return self.call_function(name, &function, values);
            }
        }
        match Self::host_path(callee) {
            Some(path) => self.host.call(&path, &mut values),
            None => Err(ApisenseError::Runtime(
                "callee is not a function name or host path".into(),
            )),
        }
    }

    fn call_function(
        &mut self,
        name: &str,
        function: &Function,
        args: Vec<Value>,
    ) -> Result<Value, ApisenseError> {
        if args.len() != function.params.len() {
            return Err(ApisenseError::Runtime(format!(
                "function '{name}' expects {} arguments, got {}",
                function.params.len(),
                args.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(ApisenseError::Runtime(format!(
                "call depth limit exceeded in '{name}'"
            )));
        }
        self.call_depth += 1;
        let mut scope = HashMap::new();
        for (param, arg) in function.params.iter().zip(args) {
            scope.insert(param.clone(), arg);
        }
        self.scopes.push(scope);
        let mut result = Value::Null;
        for stmt in &function.body {
            match self.execute(stmt) {
                Ok(Flow::Normal(_)) => {}
                Ok(Flow::Return(v)) => {
                    result = v;
                    break;
                }
                Err(e) => {
                    self.scopes.pop();
                    self.call_depth -= 1;
                    return Err(e);
                }
            }
        }
        self.scopes.pop();
        self.call_depth -= 1;
        Ok(result)
    }

    fn eval_assign(&mut self, target: &Expr, value: Value) -> Result<(), ApisenseError> {
        match target {
            Expr::Ident(name) => self.assign_var(name, value),
            Expr::Member(object, field) => {
                // Read-modify-write through the variable root.
                let root = Self::root_ident(object).ok_or_else(|| {
                    ApisenseError::Runtime("unsupported assignment target".into())
                })?;
                let mut current = self.lookup(&root).cloned().ok_or_else(|| {
                    ApisenseError::Runtime(format!("undefined variable '{root}'"))
                })?;
                Self::set_path(&mut current, object, &Some(field.clone()), None, value)?;
                self.assign_var(&root, current)
            }
            Expr::Index(object, index) => {
                let idx = self.eval(index)?;
                let root = Self::root_ident(object).ok_or_else(|| {
                    ApisenseError::Runtime("unsupported assignment target".into())
                })?;
                let mut current = self.lookup(&root).cloned().ok_or_else(|| {
                    ApisenseError::Runtime(format!("undefined variable '{root}'"))
                })?;
                Self::set_path(&mut current, object, &None, Some(idx), value)?;
                self.assign_var(&root, current)
            }
            _ => Err(ApisenseError::Runtime("invalid assignment target".into())),
        }
    }

    fn root_ident(expr: &Expr) -> Option<String> {
        match expr {
            Expr::Ident(name) => Some(name.clone()),
            Expr::Member(object, _) | Expr::Index(object, _) => Self::root_ident(object),
            _ => None,
        }
    }

    /// Writes `value` at the location described by `container_expr` plus a
    /// final member (`field`) or index (`idx`) step, mutating `root` in
    /// place. Only single-level paths from the root are supported (`m.a`,
    /// `xs[i]`), which covers sensing-script needs.
    fn set_path(
        root: &mut Value,
        container_expr: &Expr,
        field: &Option<String>,
        idx: Option<Value>,
        value: Value,
    ) -> Result<(), ApisenseError> {
        // Only `ident.field` / `ident[idx]` forms reach here.
        if !matches!(container_expr, Expr::Ident(_)) {
            return Err(ApisenseError::Runtime(
                "nested assignment paths are not supported".into(),
            ));
        }
        match (field, idx, root) {
            (Some(f), None, Value::Record(r)) => {
                r.insert(f, value);
                Ok(())
            }
            (None, Some(Value::Num(n)), Value::List(items)) => {
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
            (None, Some(Value::Str(k)), Value::Record(r)) => {
                r.insert(&k, value);
                Ok(())
            }
            _ => Err(ApisenseError::Runtime(
                "assignment target has incompatible type".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::Script;
    use super::*;

    /// Records host calls; provides a couple of sensors and `emit`.
    #[derive(Default)]
    struct TestHost {
        emitted: Vec<Value>,
        calls: Vec<String>,
    }

    impl Host for TestHost {
        fn call(&mut self, path: &str, args: &mut [Value]) -> Result<Value, ApisenseError> {
            self.calls.push(path.to_string());
            match path {
                "emit" => {
                    self.emitted
                        .push(args.first().cloned().unwrap_or(Value::Null));
                    Ok(Value::Null)
                }
                "sensor.battery" => Ok(Value::Num(0.75)),
                "sensor.gps" => {
                    let fix = [("lat", Value::Num(45.75)), ("lon", Value::Num(4.85))];
                    Ok(Value::Record(Record::new(fix)))
                }
                "math.floor" => Ok(Value::Num(args[0].as_num().unwrap_or(f64::NAN).floor())),
                other => Err(ApisenseError::UnknownSensor(other.to_string())),
            }
        }
    }

    /// Runs `src` on both execution tiers, asserts they agree on the
    /// result and the host interaction, and returns the interpreter's view.
    fn run(src: &str) -> (Value, TestHost) {
        let script = Script::compile(src).unwrap();
        let mut host = TestHost::default();
        let value = script.run_interpreted(&mut host, 100_000).unwrap();
        let mut vm_host = TestHost::default();
        let vm_value = script.run(&mut vm_host, 100_000).unwrap();
        assert_eq!(value, vm_value, "tiers disagree on {src:?}");
        assert_eq!(host.calls, vm_host.calls, "host traces differ on {src:?}");
        assert_eq!(host.emitted, vm_host.emitted);
        (value, host)
    }

    /// Error-path twin of [`run`]: both tiers must fail identically.
    fn run_err(src: &str) -> ApisenseError {
        let script = Script::compile(src).unwrap();
        let mut host = TestHost::default();
        let err = script.run_interpreted(&mut host, 100_000).unwrap_err();
        let mut vm_host = TestHost::default();
        let vm_err = script.run(&mut vm_host, 100_000).unwrap_err();
        assert_eq!(err, vm_err, "tiers disagree on {src:?}");
        err
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("1 + 2 * 3").0, Value::Num(7.0));
        assert_eq!(run("(1 + 2) * 3").0, Value::Num(9.0));
        assert_eq!(run("10 % 3").0, Value::Num(1.0));
        assert_eq!(run("-4 + 1").0, Value::Num(-3.0));
        assert_eq!(run("7 / 2").0, Value::Num(3.5));
    }

    #[test]
    fn string_concatenation() {
        assert_eq!(run(r#""a" + "b""#).0, Value::Str("ab".into()));
        assert_eq!(run(r#""n=" + 3"#).0, Value::Str("n=3".into()));
    }

    #[test]
    fn variables_and_scoping() {
        assert_eq!(run("let x = 2; let y = x * 3; y").0, Value::Num(6.0));
        // Inner block sees and can assign outer variables.
        assert_eq!(
            run("let x = 1; if (true) { x = x + 1; } x").0,
            Value::Num(2.0)
        );
        // Inner let shadows without leaking.
        assert_eq!(
            run("let x = 1; if (true) { let x = 99; } x").0,
            Value::Num(1.0)
        );
    }

    #[test]
    fn while_loop() {
        assert_eq!(
            run("let s = 0; let i = 0; while (i < 5) { s = s + i; i = i + 1; } s").0,
            Value::Num(10.0)
        );
    }

    #[test]
    fn functions_with_return_and_recursion() {
        assert_eq!(
            run("fn add(a, b) { return a + b; } add(2, 3)").0,
            Value::Num(5.0)
        );
        assert_eq!(
            run("fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } fact(6)").0,
            Value::Num(720.0)
        );
    }

    #[test]
    fn recursion_depth_limited() {
        let e = run_err("fn f(n) { return f(n + 1); } f(0)");
        assert!(e.to_string().contains("depth"), "{e}");
    }

    #[test]
    fn host_sensor_access() {
        let (value, host) = run("let fix = sensor.gps(); fix.lat");
        assert_eq!(value, Value::Num(45.75));
        assert_eq!(host.calls, vec!["sensor.gps"]);
    }

    #[test]
    fn emit_collects_records() {
        let (_, host) = run(r#"
            let fix = sensor.gps();
            emit({ "lat": fix.lat, "lon": fix.lon, "battery": sensor.battery() });
            "#);
        assert_eq!(host.emitted.len(), 1);
        let m = &host.emitted[0];
        assert_eq!(m.field("lat"), Some(&Value::Num(45.75)));
        assert_eq!(m.field("battery"), Some(&Value::Num(0.75)));
    }

    #[test]
    fn lists_maps_and_indexing() {
        assert_eq!(run("let xs = [1, 2, 3]; xs[1]").0, Value::Num(2.0));
        assert_eq!(run("let xs = [1, 2, 3]; xs.length").0, Value::Num(3.0));
        assert_eq!(run("let xs = [1, 2]; xs[0] = 9; xs[0]").0, Value::Num(9.0));
        assert_eq!(
            run(r#"let m = { "a": 1 }; m.b = 2; m["a"] + m.b"#).0,
            Value::Num(3.0)
        );
        assert_eq!(run("let xs = [1]; xs[99]").0, Value::Null);
        assert_eq!(run(r#""abc".length"#).0, Value::Num(3.0));
    }

    #[test]
    fn logic_short_circuits() {
        // The right side would be a host error if evaluated.
        assert_eq!(run("false && boom()").0, Value::Bool(false));
        assert_eq!(run("true || boom()").0, Value::Bool(true));
        assert_eq!(run("!null").0, Value::Bool(true));
        assert_eq!(run("1 == 1 && 2 != 3").0, Value::Bool(true));
    }

    #[test]
    fn fuel_stops_infinite_loops() {
        let script = Script::compile("while (true) { }").unwrap();
        let mut host = TestHost::default();
        assert_eq!(
            script.run_interpreted(&mut host, 10_000),
            Err(ApisenseError::FuelExhausted)
        );
        assert_eq!(
            script.run(&mut host, 10_000),
            Err(ApisenseError::FuelExhausted)
        );
    }

    #[test]
    fn runtime_errors_are_reported() {
        assert!(run_err("undefined_var").to_string().contains("undefined"));
        assert!(run_err("1()").to_string().contains("callee"));
        assert!(run_err("null + 1").to_string().contains("cannot add"));
        assert!(run_err("unknown.host()").to_string().contains("unknown"));
        assert!(run_err("let xs = [1]; xs[5] = 0;")
            .to_string()
            .contains("out of bounds"));
        assert!(run_err("x = 1;").to_string().contains("undeclared"));
    }

    #[test]
    fn host_math_namespace() {
        assert_eq!(run("math.floor(3.7)").0, Value::Num(3.0));
    }

    #[test]
    fn return_at_top_level_stops_script() {
        assert_eq!(run("return 5; emit(1);").0, Value::Num(5.0));
        let (_, host) = run("return 5; emit(1);");
        assert!(host.emitted.is_empty());
    }

    /// Leaf calls the compiler inlines must stay observationally identical
    /// to the tree-walker (the `run` harness asserts tier agreement).
    #[test]
    fn inlined_leaf_calls_match_the_interpreter() {
        // Slot- and constant-substituted arguments.
        assert_eq!(
            run("fn lerp(a, b, t) { return a + t * (b - a); }\n\
                 let x = 0; let y = 10; lerp(x, y, 0.25)")
            .0,
            Value::Num(2.5)
        );
        // Complex arguments spill onto the stack, evaluated left to right
        // in the caller's scope.
        assert_eq!(
            run("fn sum3(a, b, c) { return a + b + c; }\n\
                 let x = 1; sum3(x + 1, 2 * 3, x * 10)")
            .0,
            Value::Num(18.0)
        );
        // An argument-position assignment disables slot aliasing: the first
        // argument must read `x` as it was before the second mutates it.
        assert_eq!(
            run("fn g(a, b) { return a + b; }\n\
                 let x = 1; g(x, (x = 5)) + x")
            .0,
            Value::Num(11.0)
        );
        // Inlined bodies still reach the host through spilled arguments.
        let (value, host) = run("fn tag(v, k) { return k + v; }\n\
             emit(tag(sensor.battery(), \"b=\"));");
        assert_eq!(value, Value::Null);
        assert_eq!(host.emitted, [Value::Str("b=0.75".into())]);
    }

    #[test]
    fn realistic_sensing_script() {
        let (_, host) = run(r#"
            // Sample GPS only when the battery allows it, and tag readings.
            fn classify(level) {
                if (level > 0.6) { return "good"; }
                if (level > 0.3) { return "low"; }
                return "critical";
            }
            let level = sensor.battery();
            let i = 0;
            while (i < 3) {
                let fix = sensor.gps();
                emit({
                    "seq": i,
                    "lat": fix.lat,
                    "lon": fix.lon,
                    "quality": classify(level)
                });
                i = i + 1;
            }
            "#);
        assert_eq!(host.emitted.len(), 3);
        for (i, record) in host.emitted.iter().enumerate() {
            assert_eq!(record.field("seq"), Some(&Value::Num(i as f64)));
            assert_eq!(record.field("quality"), Some(&Value::Str("good".into())));
        }
    }
}
