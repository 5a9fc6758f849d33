//! Differential tests: the bytecode VM against the tree-walking
//! interpreter.
//!
//! The VM (`script/vm.rs`) claims behavioural equivalence with the
//! interpreter (`script/interp.rs`): identical values, identical error
//! classifications and messages, identical fuel-exhaustion points, and an
//! identical host-call trace. This suite checks that claim two ways:
//!
//! - a seeded program generator produces random-but-valid scripts covering
//!   the whole surface (functions, recursion past `MAX_CALL_DEPTH`,
//!   dynamic scoping, shadowed host names, failing host calls, unbounded
//!   loops, invalid assignments), each executed under a ladder of fuel
//!   budgets on both tiers;
//! - targeted fuel sweeps pin the boundary behaviour: at every budget the
//!   two tiers must flip from `FuelExhausted` to success (or to the same
//!   runtime error) at exactly the same point;
//! - mutants of generated programs (flipped bytes, truncations, spliced
//!   tokens) must compile or fail with a typed error, and keep parity when
//!   they compile.
//!
//! Numeric comparison is NaN-aware (`0 / 0` must be "equal" across tiers
//! even though `NaN != NaN`), and every compared value must also render to
//! the same JSON bytes on both tiers.
//!
//! Records get their own coverage: the host's GPS fix is built against a
//! shape made once (like the device host's), literals repeat keys, scripts
//! add keys to fixes and literals by member and index assignment, read
//! fields by string index, and compare fixes with literals that list the
//! same keys in another order. A JSON round-trip proptest checks the record
//! codec against a `BTreeMap` reference.

use apisense::script::{Host, Record, Script, Shape, Value, Vm, MAX_NESTING};
use apisense::ApisenseError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::LazyLock;

/// The shape of the host's GPS fix, made once like the device host's.
static FIX_SHAPE: LazyLock<Shape> = LazyLock::new(|| Shape::new(["lon", "lat"]));

/// Deterministic host with internal state (`seq.next`) and a failing path
/// (`boom.fail`), recording every call for trace comparison.
#[derive(Default)]
struct DiffHost {
    counter: u64,
    trace: Vec<(String, Vec<Value>)>,
}

impl Host for DiffHost {
    fn call(&mut self, path: &str, args: &mut [Value]) -> Result<Value, ApisenseError> {
        self.trace.push((path.to_string(), args.to_vec()));
        match path {
            "emit" | "log" => Ok(Value::Null),
            "seq.next" => {
                self.counter += 1;
                Ok(Value::Num(self.counter as f64))
            }
            "sensor.battery" => {
                self.counter += 1;
                Ok(Value::Num((self.counter % 10) as f64 / 10.0))
            }
            "sensor.gps" => Ok(Value::Record(
                FIX_SHAPE.record(Box::new([Value::Num(45.75), Value::Num(4.85)])),
            )),
            "math.floor" => Ok(Value::Num(
                args.first()
                    .and_then(Value::as_num)
                    .unwrap_or(f64::NAN)
                    .floor(),
            )),
            other => Err(ApisenseError::UnknownSensor(other.to_string())),
        }
    }
}

/// Structural equality with NaN == NaN (derived `PartialEq` on `Value`
/// would report a spurious mismatch when both tiers compute `NaN`), plus
/// byte-equal JSON renderings.
fn values_equivalent(a: &Value, b: &Value) -> bool {
    structurally_equal(a, b) && a.to_json() == b.to_json()
}

fn structurally_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| structurally_equal(x, y))
        }
        (Value::Record(xr), Value::Record(yr)) => {
            xr.len() == yr.len()
                && xr
                    .iter()
                    .zip(yr.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && structurally_equal(va, vb))
        }
        _ => a == b,
    }
}

fn outcomes_equivalent(
    a: &Result<Value, ApisenseError>,
    b: &Result<Value, ApisenseError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => values_equivalent(x, y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

fn traces_equivalent(a: &[(String, Vec<Value>)], b: &[(String, Vec<Value>)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((pa, xa), (pb, xb))| {
            pa == pb
                && xa.len() == xb.len()
                && xa.iter().zip(xb).all(|(x, y)| values_equivalent(x, y))
        })
}

/// Runs `script` on both tiers with the same budget and asserts outcome
/// and host-trace parity. The `vm` is reused across calls on purpose: a
/// production VM lives across readings, so cache reuse is part of what is
/// under test.
fn assert_parity(script: &Script, vm: &mut Vm, fuel: u64, src: &str) {
    let mut interp_host = DiffHost::default();
    let interp = script.run_interpreted(&mut interp_host, fuel);
    let mut vm_host = DiffHost::default();
    let by_vm = script.run_vm(vm, &mut vm_host, fuel);
    assert!(
        outcomes_equivalent(&interp, &by_vm),
        "tiers disagree at fuel {fuel}:\n interp: {interp:?}\n vm:     {by_vm:?}\n script:\n{src}"
    );
    assert!(
        traces_equivalent(&interp_host.trace, &vm_host.trace),
        "host traces differ at fuel {fuel}:\n interp: {:?}\n vm:     {:?}\n script:\n{src}",
        interp_host.trace,
        vm_host.trace
    );
}

const FUEL_LADDER: [u64; 12] = [0, 1, 2, 3, 5, 8, 13, 21, 60, 200, 1_000, 50_000];

fn assert_parity_across_budgets(src: &str) {
    let script = Script::compile(src)
        .unwrap_or_else(|e| panic!("generated script failed to compile: {e}\n{src}"));
    let mut vm = Vm::new();
    for fuel in FUEL_LADDER {
        assert_parity(&script, &mut vm, fuel, src);
    }
}

// ---------------------------------------------------------------------------
// Program generator
// ---------------------------------------------------------------------------

/// Generates random-but-parseable scripts. Biased toward valid programs
/// (declared variables, right arities) with deliberate error injection:
/// undeclared names, wrong arities, unknown host paths, nested assignment
/// targets, invalid callees and unbounded loops.
struct ProgramGen {
    rng: StdRng,
    out: String,
    /// Scope stack of declared variable names (compile-visible scoping).
    scopes: Vec<Vec<String>>,
    /// Declared function names with arities.
    fns: Vec<(String, usize)>,
    var_counter: usize,
    /// Remaining statement allowance (bounds program size).
    budget: usize,
}

const HOST_PATHS: [&str; 6] = [
    "emit",
    "seq.next",
    "sensor.battery",
    "sensor.gps",
    "math.floor",
    "boom.fail",
];

impl ProgramGen {
    fn generate(seed: u64) -> String {
        let mut g = ProgramGen {
            rng: StdRng::seed_from_u64(seed),
            out: String::new(),
            scopes: vec![Vec::new()],
            fns: Vec::new(),
            var_counter: 0,
            budget: 24,
        };
        let fn_count = g.rng.gen_range(0..3);
        for _ in 0..fn_count {
            g.fn_decl();
        }
        let stmts = g.rng.gen_range(3..9);
        for _ in 0..stmts {
            g.stmt(0);
        }
        // End on an expression so the program has an interesting result.
        let tail = g.expr(0);
        g.out.push_str(&format!("{tail};\n"));
        g.out
    }

    fn fresh_var(&mut self) -> String {
        self.var_counter += 1;
        format!("v{}", self.var_counter)
    }

    fn declared_var(&mut self) -> Option<String> {
        let all: Vec<&String> = self.scopes.iter().flatten().collect();
        if all.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..all.len());
        Some(all[i].clone())
    }

    fn fn_decl(&mut self) {
        let name = format!("f{}", self.fns.len());
        let arity = self.rng.gen_range(0..3);
        let params: Vec<String> = (0..arity).map(|i| format!("p{i}")).collect();
        self.fns.push((name.clone(), arity));
        self.out
            .push_str(&format!("fn {name}({}) {{\n", params.join(", ")));
        self.scopes.push(params);
        let body = self.rng.gen_range(1..4);
        for _ in 0..body {
            self.stmt(1);
        }
        if self.rng.gen_bool(0.7) {
            let e = self.expr(1);
            self.out.push_str(&format!("return {e};\n"));
        }
        self.scopes.pop();
        self.out.push_str("}\n");
    }

    fn stmt(&mut self, depth: usize) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match self.rng.gen_range(0..12) {
            0..=3 => {
                let e = self.expr(depth);
                let name = self.fresh_var();
                self.out.push_str(&format!("let {name} = {e};\n"));
                self.scopes.last_mut().expect("scope").push(name);
            }
            4 => {
                let value = self.expr(depth);
                match (self.declared_var(), self.rng.gen_range(0..4)) {
                    (Some(v), 0) => self.out.push_str(&format!("{v} = {value};\n")),
                    (Some(v), 1) => self.out.push_str(&format!("{v}.field = {value};\n")),
                    (Some(v), 2) => {
                        let idx = self.expr(depth + 1);
                        self.out.push_str(&format!("{v}[{idx}] = {value};\n"));
                    }
                    // Nested / undeclared targets: error-path coverage.
                    (Some(v), _) => self.out.push_str(&format!("{v}.a.b = {value};\n")),
                    (None, _) => self.out.push_str(&format!("ghost = {value};\n")),
                }
            }
            5 => {
                let cond = self.expr(depth);
                self.out.push_str(&format!("if ({cond}) {{\n"));
                self.scopes.push(Vec::new());
                self.stmt(depth + 1);
                self.scopes.pop();
                if self.rng.gen_bool(0.5) {
                    self.out.push_str("} else {\n");
                    self.scopes.push(Vec::new());
                    self.stmt(depth + 1);
                    self.scopes.pop();
                }
                self.out.push_str("}\n");
            }
            6 => {
                let i = self.fresh_var();
                let bound = self.rng.gen_range(0..6);
                self.out.push_str(&format!("let {i} = 0;\n"));
                self.scopes.last_mut().expect("scope").push(i.clone());
                if self.rng.gen_bool(0.85) {
                    self.out.push_str(&format!("while ({i} < {bound}) {{\n"));
                } else {
                    // Unbounded: exercises fuel exhaustion on every budget.
                    self.out.push_str(&format!("while ({i} >= 0) {{\n"));
                }
                self.scopes.push(Vec::new());
                if self.rng.gen_bool(0.6) {
                    self.stmt(depth + 1);
                }
                self.scopes.pop();
                self.out.push_str(&format!("{i} = {i} + 1;\n}}\n"));
            }
            7 if depth > 0 => {
                let e = self.expr(depth);
                self.out.push_str(&format!("return {e};\n"));
            }
            11 => {
                // Member-set or string-index set of a present or missing key:
                // on a record, a missing key moves it to a new shape.
                let value = self.expr(depth);
                if let Some(v) = self.declared_var() {
                    let key = self.key();
                    if self.rng.gen_bool(0.5) {
                        self.out.push_str(&format!("{v}.{key} = {value};\n"));
                    } else {
                        self.out.push_str(&format!("{v}[\"{key}\"] = {value};\n"));
                    }
                }
            }
            10 => {
                // A local of a known shape, so later bare field reads
                // (`v.lat`) meet maps, lists, strings, numbers and null.
                let e = self.shaped_value(depth);
                let name = self.fresh_var();
                self.out.push_str(&format!("let {name} = {e};\n"));
                self.scopes.last_mut().expect("scope").push(name);
            }
            _ => {
                let e = self.expr(depth);
                self.out.push_str(&format!("{e};\n"));
            }
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth >= 4 {
            return self.leaf();
        }
        match self.rng.gen_range(0..14) {
            0..=3 => self.leaf(),
            4 => {
                let op = [
                    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
                ][self.rng.gen_range(0..13)];
                let l = self.expr(depth + 1);
                let r = self.expr(depth + 1);
                format!("({l} {op} {r})")
            }
            5 => {
                let e = self.expr(depth + 1);
                if self.rng.gen_bool(0.5) {
                    format!("(-{e})")
                } else {
                    format!("(!{e})")
                }
            }
            6 => {
                let n = self.rng.gen_range(0..3);
                let items: Vec<String> = (0..n).map(|_| self.expr(depth + 1)).collect();
                format!("[{}]", items.join(", "))
            }
            7 => {
                let n = self.rng.gen_range(0..3);
                let entries: Vec<String> = (0..n)
                    .map(|i| format!("\"k{i}\": {}", self.expr(depth + 1)))
                    .collect();
                format!("{{ {} }}", entries.join(", "))
            }
            8 => {
                // Parenthesized: a bare number literal would lex `42.lat`
                // as the number `42.` followed by a stray identifier.
                let e = self.expr(depth + 1);
                let field = self.field();
                format!("({e}).{field}")
            }
            9 => {
                let e = self.expr(depth + 1);
                let i = self.expr(depth + 1);
                format!("{e}[{i}]")
            }
            10 => self.call(depth),
            // Bare field read on a local: the VM's fused slot-field op.
            11 => match self.declared_var() {
                Some(v) => format!("{v}.{}", self.field()),
                None => self.leaf(),
            },
            // String-index read on a local.
            12 => match self.declared_var() {
                Some(v) => format!("{v}[\"{}\"]", self.field()),
                None => self.leaf(),
            },
            // A host fix against a literal of the same keys in another
            // order (equal when the values match).
            _ => {
                let lat = if self.rng.gen_bool(0.7) {
                    "45.75".to_string()
                } else {
                    self.expr(depth + 1)
                };
                let op = ["==", "!="][self.rng.gen_range(0..2)];
                format!("(sensor.gps() {op} {{ \"lon\": 4.85, \"lat\": {lat} }})")
            }
        }
    }

    fn field(&mut self) -> &'static str {
        ["lat", "lon", "length", "k0", "missing"][self.rng.gen_range(0..5)]
    }

    /// A key an assignment writes: present in fixes or literals, or new.
    fn key(&mut self) -> &'static str {
        ["lat", "lon", "k0", "k1", "added", "a"][self.rng.gen_range(0..6)]
    }

    /// A value of a chosen shape: record (literal, literal with a repeated
    /// key, or a GPS fix), list, string, number or null.
    fn shaped_value(&mut self, depth: usize) -> String {
        match self.rng.gen_range(0..7) {
            0 => format!(
                "{{ \"lat\": {}, \"k0\": {} }}",
                self.expr(depth + 1),
                self.expr(depth + 1)
            ),
            6 => format!(
                "{{ \"lon\": {}, \"lat\": {}, \"lon\": {} }}",
                self.expr(depth + 1),
                self.expr(depth + 1),
                self.expr(depth + 1)
            ),
            1 => "sensor.gps()".to_string(),
            2 => format!("[{}, {}]", self.expr(depth + 1), self.expr(depth + 1)),
            3 => format!("\"s{}\"", self.rng.gen_range(0..5)),
            4 => format!("{}", self.rng.gen_range(0..100)),
            _ => "null".to_string(),
        }
    }

    fn call(&mut self, depth: usize) -> String {
        let roll = self.rng.gen_range(0..10);
        if roll < 4 && !self.fns.is_empty() {
            let i = self.rng.gen_range(0..self.fns.len());
            let (name, arity) = self.fns[i].clone();
            // Occasionally call with the wrong arity (runtime error parity).
            let argc = if self.rng.gen_bool(0.85) {
                arity
            } else {
                arity + 1
            };
            let args: Vec<String> = (0..argc).map(|_| self.expr(depth + 1)).collect();
            format!("{name}({})", args.join(", "))
        } else if roll < 9 {
            let path = HOST_PATHS[self.rng.gen_range(0..HOST_PATHS.len())];
            let argc = self.rng.gen_range(0..2);
            let args: Vec<String> = (0..argc).map(|_| self.expr(depth + 1)).collect();
            format!("{path}({})", args.join(", "))
        } else {
            // Invalid callee: a literal is neither a name nor a host path.
            format!("(3)({})", self.expr(depth + 1))
        }
    }

    fn leaf(&mut self) -> String {
        match self.rng.gen_range(0..10) {
            0..=2 => format!("{}", self.rng.gen_range(0..100)),
            3 => format!("{:.2}", self.rng.gen_range(-10.0..10.0).abs()),
            4 => ["true", "false", "null"][self.rng.gen_range(0..3)].to_string(),
            5 => format!("\"s{}\"", self.rng.gen_range(0..5)),
            6..=8 => self
                .declared_var()
                .unwrap_or_else(|| format!("{}", self.rng.gen_range(0..10))),
            // Undeclared name: error-path coverage.
            _ => "phantom".to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Generated programs — including ones that exhaust fuel, recurse past
    /// the depth limit, or fail in host calls — behave identically on both
    /// tiers across the whole fuel ladder.
    #[test]
    fn vm_matches_interpreter_on_generated_programs(seed in any::<u64>()) {
        let src = ProgramGen::generate(seed);
        assert_parity_across_budgets(&src);
    }
}

/// Applies one mutation to a generated program: flips one bit of one
/// byte, truncates the source, or splices in a whitespace-separated token
/// of `donor` (another generated program). Invalid UTF-8 from a flipped
/// high bit becomes U+FFFD, which the lexer must reject like any other
/// stray character.
fn mutate(src: &str, donor: &str, rng: &mut StdRng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    // An earlier truncation may have left nothing to flip or cut.
    let kind = if bytes.is_empty() {
        2
    } else {
        rng.gen_range(0..3)
    };
    match kind {
        0 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8);
        }
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        _ => {
            let tokens: Vec<&str> = donor.split_whitespace().collect();
            let token = tokens[rng.gen_range(0..tokens.len())];
            let at = rng.gen_range(0..=bytes.len());
            bytes.splice(at..at, token.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Fuel budgets a compiling mutant runs under: bounded, since a mutation
/// can turn a loop's exit condition into one that never holds.
const MUTANT_FUEL: [u64; 4] = [0, 21, 1_000, 20_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Mutants of generated programs — one to three flipped bytes,
    /// truncations or spliced tokens — either compile or fail with a
    /// lex, parse or capacity error; none panics. A mutant that compiles
    /// behaves identically on both tiers under bounded fuel.
    #[test]
    fn mutated_programs_fail_typed_or_keep_parity(
        seed in any::<u64>(),
        donor_seed in any::<u64>(),
        mutation_seed in any::<u64>(),
    ) {
        let donor = ProgramGen::generate(donor_seed);
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        let mut mutant = ProgramGen::generate(seed);
        for _ in 0..rng.gen_range(1..=3) {
            mutant = mutate(&mutant, &donor, &mut rng);
        }
        match Script::compile(&mutant) {
            Ok(script) => {
                let mut vm = Vm::new();
                for fuel in MUTANT_FUEL {
                    assert_parity(&script, &mut vm, fuel, &mutant);
                }
            }
            Err(error) => prop_assert!(
                matches!(
                    error,
                    ApisenseError::Lex { .. }
                        | ApisenseError::Parse { .. }
                        | ApisenseError::ScriptCompile { .. }
                ),
                "{error:?} compiling:\n{mutant}"
            ),
        }
    }
}

/// Fuel boundary sweep around a mid-block runtime error: both tiers must
/// flip from `FuelExhausted` to `cannot add` at exactly the same budget
/// (this is the per-basic-block fuel accounting's hardest case).
#[test]
fn fuel_boundary_around_runtime_error() {
    let src = "let a = 1; let b = null + a; emit(b);";
    let script = Script::compile(src).unwrap();
    let mut vm = Vm::new();
    let mut saw_error = false;
    for fuel in 0..25 {
        assert_parity(&script, &mut vm, fuel, src);
        let mut host = DiffHost::default();
        if let Err(ApisenseError::Runtime(m)) = script.run_vm(&mut vm, &mut host, fuel) {
            assert!(m.contains("cannot add"));
            saw_error = true;
        }
    }
    assert!(saw_error, "sweep never reached the runtime error");
}

/// Fuel sweep over a host-calling loop: host-call traces must match at
/// every budget, including exhausting ones.
#[test]
fn fuel_sweep_preserves_host_traces() {
    let src = "let i = 0;\n\
               while (i < 6) {\n\
                 emit(seq.next());\n\
                 i = i + 1;\n\
               }\n\
               i;";
    let script = Script::compile(src).unwrap();
    let mut vm = Vm::new();
    for fuel in 0..120 {
        assert_parity(&script, &mut vm, fuel, src);
    }
}

/// The recursion limit trips at the same depth on both tiers.
#[test]
fn call_depth_boundary_is_identical() {
    for depth in [63, 64, 65] {
        let src =
            format!("fn f(n) {{ if (n == 0) {{ return 0; }} return f(n - 1); }} f({depth});");
        assert_parity_across_budgets(&src);
    }
}

/// A user function declared mid-script shadows the host path from that
/// point on; inline caches must follow the re-binding.
#[test]
fn host_shadowing_and_redeclaration_parity() {
    assert_parity_across_budgets(
        "let a = emit(1);\n\
         fn emit(x) { return x * 2; }\n\
         let b = emit(2);\n\
         fn emit(x) { return x * 3; }\n\
         let c = emit(2);\n\
         [a, b, c];",
    );
}

/// Dynamic scoping: a function body reads and assigns its caller's locals.
#[test]
fn dynamic_scoping_parity() {
    assert_parity_across_budgets(
        "let total = 0;\n\
         fn bump(n) { total = total + n; return total; }\n\
         bump(2);\n\
         bump(3);\n\
         total;",
    );
}

/// Error-message parity for the whole assignment-target error family.
#[test]
fn assignment_error_parity() {
    for src in [
        "ghost = 1;",
        "let m = { \"a\": { \"b\": 1 } }; m.a.b = 2;",
        "ghost.a.b = 2;",
        "let xs = [1]; xs[9] = 0;",
        "let n = 4; n.field = 1;",
        "sensor.gps().lat = 3;",
    ] {
        assert_parity_across_budgets(src);
    }
}

/// Field reads off a local compile to one fused op that reads through the
/// slot; on every shape of value it must fail (or succeed) exactly like the
/// interpreter, with the same `no field '…' on …` message.
#[test]
fn slot_field_reads_match_on_every_value_shape() {
    for (src, expected) in [
        ("let n = 4; n.lat;", Err("no field 'lat' on 4")),
        ("let s = \"abc\"; s.lat;", Err("no field 'lat' on abc")),
        ("let z = null; z.k0;", Err("no field 'k0' on null")),
        ("let xs = [1, 2]; xs.lat;", Err("no field 'lat' on [1, 2]")),
        ("let b = true; b.length;", Err("no field 'length' on true")),
        ("let s = \"abc\"; s.length;", Ok(Value::Num(3.0))),
        ("let xs = [1, 2]; xs.length;", Ok(Value::Num(2.0))),
        (
            "let m = { \"lat\": 2 }; m.lat + m.lat;",
            Ok(Value::Num(4.0)),
        ),
        ("let m = { \"lat\": 2 }; m.missing;", Ok(Value::Null)),
        (
            "fn f(p) { return p.lat; } f(sensor.gps());",
            Ok(Value::Num(45.75)),
        ),
        (
            "fn f(p) { return p.lat; } f(7);",
            Err("no field 'lat' on 7"),
        ),
    ] {
        assert_parity_across_budgets(src);
        let script = Script::compile(src).unwrap();
        let outcome = script.run_vm(&mut Vm::new(), &mut DiffHost::default(), 10_000);
        match expected {
            Ok(value) => assert_eq!(outcome, Ok(value), "{src}"),
            Err(message) => assert_eq!(
                outcome,
                Err(ApisenseError::Runtime(message.to_string())),
                "{src}"
            ),
        }
    }
}

/// Fuel sweep across fused field reads: the charge folded into the fused
/// op lands before the read, so both tiers exhaust, fail on the non-map
/// read, and finish at exactly the same budgets.
#[test]
fn fuel_sweep_across_fused_field_reads() {
    let src = "let fix = sensor.gps();\n\
               let lat = fix.lat;\n\
               emit({ \"lat\": lat, \"lon\": fix.lon });\n\
               let n = 5;\n\
               let bad = n.lat;\n\
               emit(bad);";
    let script = Script::compile(src).unwrap();
    let mut vm = Vm::new();
    let mut outcomes = Vec::new();
    for fuel in 0..40 {
        assert_parity(&script, &mut vm, fuel, src);
        outcomes.push(script.run_vm(&mut vm, &mut DiffHost::default(), fuel));
    }
    assert!(outcomes.contains(&Err(ApisenseError::FuelExhausted)));
    assert!(
        outcomes.contains(&Err(ApisenseError::Runtime("no field 'lat' on 5".into()))),
        "the sweep must reach the failing field read"
    );
}

/// A script source builder over the number of nested constructs.
type NestingShape = fn(usize) -> String;

/// Every way a script nests, as a source builder over the number of
/// nested constructs: parentheses, lists, prefix minus, blocks, `else if`
/// chains, binary links, member links and chained assignments.
fn nesting_shapes() -> [(&'static str, NestingShape); 8] {
    [
        ("parens", |k| {
            format!("emit({}1{});", "(".repeat(k), ")".repeat(k))
        }),
        ("lists", |k| {
            format!("emit({}1{});", "[".repeat(k), "]".repeat(k))
        }),
        ("unary", |k| format!("emit({}1);", "-".repeat(k))),
        ("blocks", |k| {
            format!("{} emit(1); {}", "if (true) {".repeat(k), "}".repeat(k))
        }),
        ("else-if", |k| {
            format!(
                "if (false) {{}} {} else {{ emit(1); }}",
                "else if (false) {} ".repeat(k)
            )
        }),
        ("binary", |k| format!("emit(1{});", " + 1".repeat(k))),
        ("members", |k| {
            format!("let v = 1; emit(v{});", ".a".repeat(k))
        }),
        ("assignments", |k| {
            format!("let v = 0; {}1;", "v = ".repeat(k))
        }),
    ]
}

/// Hostile nesting far past the bound is a typed parse error on every
/// shape, not a stack overflow.
#[test]
fn hostile_nesting_is_a_parse_error() {
    for (shape, source) in nesting_shapes() {
        match Script::compile(&source(100_000)) {
            Err(ApisenseError::Parse { message, .. }) => {
                assert!(message.contains("nesting"), "{shape}: {message}")
            }
            other => panic!("{shape}: expected a nesting parse error, got {other:?}"),
        }
    }
}

/// The deepest script the parser accepts compiles and runs on both tiers
/// with identical outcomes, inside the default 2 MB test-thread stack —
/// the bound leaves every later recursion (bytecode compiler, tree-walker,
/// drop) room to spare, even in a debug build.
#[test]
fn scripts_nested_at_the_limit_run_on_both_tiers() {
    for (shape, source) in nesting_shapes() {
        let deepest = (1..=MAX_NESTING)
            .rev()
            .find(|&k| Script::compile(&source(k)).is_ok())
            .unwrap_or_else(|| panic!("{shape}: nothing compiles"));
        // The bound itself refuses the next level, not some other limit:
        // every shape spends at most four levels outside its k constructs.
        assert!(deepest + 4 >= MAX_NESTING, "{shape}: only {deepest} levels");
        assert!(
            matches!(
                Script::compile(&source(deepest + 1)),
                Err(ApisenseError::Parse { .. })
            ),
            "{shape}"
        );
        let src = source(deepest);
        let script = Script::compile(&src).unwrap();
        assert_parity(&script, &mut Vm::new(), 1_000_000, &src);
    }
}

/// Record semantics on both tiers, pinned to their JSON bytes: a repeated
/// key keeps its last value, member and index assignment add keys to a
/// host fix and to a literal, string indexing reads fields, and a fix
/// equals a literal listing the same keys in another order.
#[test]
fn record_semantics_match_and_render_sorted() {
    for (src, json) in [
        (
            "let m = { \"b\": 1, \"a\": 2, \"b\": 3 }; m;",
            r#"{"a":2.0,"b":3.0}"#,
        ),
        (
            "let f = sensor.gps(); f.accuracy = 5; f;",
            r#"{"accuracy":5.0,"lat":45.75,"lon":4.85}"#,
        ),
        (
            "let f = sensor.gps(); f[\"zone\"] = \"in\"; f;",
            r#"{"lat":45.75,"lon":4.85,"zone":"in"}"#,
        ),
        (
            "let m = { \"lon\": 1 }; m.alt = 2; m[\"a\"] = 3; m.lon = 4; m;",
            r#"{"a":3.0,"alt":2.0,"lon":4.0}"#,
        ),
        (
            "let f = sensor.gps(); [f[\"lat\"], f[\"none\"]];",
            "[45.75,null]",
        ),
        ("sensor.gps() == { \"lon\": 4.85, \"lat\": 45.75 };", "true"),
        ("{ \"lat\": 45.75, \"lon\": 4.85 } == sensor.gps();", "true"),
        ("sensor.gps() == { \"lat\": 45.75 };", "false"),
        ("sensor.gps() != { \"lat\": 45.75, \"lon\": 0 };", "true"),
    ] {
        assert_parity_across_budgets(src);
        let script = Script::compile(src).unwrap();
        let value = script
            .run_vm(&mut Vm::new(), &mut DiffHost::default(), 10_000)
            .unwrap();
        assert_eq!(value.to_json(), json, "{src}");
        assert_eq!(Value::from_json(json).unwrap(), value, "{src}");
    }
}

/// A random value tree and its JSON text rendered independently through a
/// `BTreeMap` (sorted keys, last duplicate wins).
fn random_value(rng: &mut StdRng, depth: usize) -> (Value, String) {
    let leaf = depth >= 3 || rng.gen_bool(0.4);
    match rng.gen_range(0..if leaf { 4 } else { 6 }) {
        0 => (Value::Null, "null".into()),
        1 => {
            let b = rng.gen_bool(0.5);
            (Value::Bool(b), b.to_string())
        }
        2 => {
            let n = rng.gen_range(-1e6..1e6);
            (Value::Num(n), format!("{n:?}"))
        }
        3 => {
            let s = ["", "a", "q\"uote", "back\\slash", "line\nfeed", "é"][rng.gen_range(0..6)];
            let v = Value::Str(s.into());
            let text = v.to_json();
            (v, text)
        }
        4 => {
            let (items, texts): (Vec<Value>, Vec<String>) = (0..rng.gen_range(0..4))
                .map(|_| random_value(rng, depth + 1))
                .unzip();
            (Value::List(items), format!("[{}]", texts.join(",")))
        }
        _ => {
            let mut entries = Vec::new();
            let mut reference = BTreeMap::new();
            for _ in 0..rng.gen_range(0..6) {
                let key = ["lon", "lat", "accuracy", "a", "", "z\"k"][rng.gen_range(0..6)];
                let (value, text) = random_value(rng, depth + 1);
                entries.push((key, value));
                reference.insert(key, text);
            }
            let fields: Vec<String> = reference
                .iter()
                .map(|(k, text)| format!("{}:{text}", Value::Str((*k).into()).to_json()))
                .collect();
            (
                Value::Record(Record::new(entries)),
                format!("{{{}}}", fields.join(",")),
            )
        }
    }
}

/// Whether every record in `value` lists its keys strictly ascending.
fn keys_sorted(value: &Value) -> bool {
    match value {
        Value::List(items) => items.iter().all(keys_sorted),
        Value::Record(r) => {
            let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
            keys.windows(2).all(|w| w[0] < w[1]) && r.iter().all(|(_, v)| keys_sorted(v))
        }
        _ => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `to_json` renders records with sorted keys, byte for byte as a
    /// `BTreeMap` would, and `from_json` gives back an equal value.
    #[test]
    fn record_json_round_trips_with_sorted_keys(seed in any::<u64>()) {
        let (value, reference) = random_value(&mut StdRng::seed_from_u64(seed), 0);
        prop_assert!(keys_sorted(&value));
        prop_assert_eq!(value.to_json(), reference.clone());
        let parsed = Value::from_json(&value.to_json()).unwrap();
        prop_assert!(keys_sorted(&parsed));
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(parsed.to_json(), reference);
    }
}
