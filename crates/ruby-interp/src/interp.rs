//! The tree-walking interpreter.

use crate::contracts::DynamicCheckHook;
use crate::corelib;
use crate::error::{Control, ErrorKind, EvalResult, RubyError};
use crate::value::{Closure, Value};
use ruby_syntax::{BinOp, Block, Expr, ExprKind, Item, LValue, MethodDef, Program, Span};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Default evaluation fuel (one unit per AST node evaluated).
const DEFAULT_FUEL: u64 = 20_000_000;

/// How attr accessor helpers behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessorKind {
    Reader,
    Writer,
    Both,
}

/// The methods and accessors one class defines itself.
#[derive(Default)]
struct ClassDefs {
    /// Instance methods (`[0]`) and singleton `def self.` methods (`[1]`),
    /// by name.
    methods: [HashMap<String, Rc<MethodDef>>; 2],
    /// attribute → accessor kind.
    accessors: HashMap<String, AccessorKind>,
}

/// What one class's names resolved to along its ancestor chain.
struct Resolved {
    /// The class, its superclasses, then the builtin fallbacks.
    ancestors: Vec<String>,
    /// Instance (`[0]`) and singleton (`[1]`) method lookups, misses included.
    methods: [HashMap<String, Option<Rc<MethodDef>>>; 2],
    /// Accessor lookups (`name` or `name=`) → the attribute, misses included.
    accessors: HashMap<String, Option<Rc<str>>>,
}

/// Table of user-defined classes and methods extracted from a [`Program`].
///
/// The table never changes after load, so each `(class, singleton, name)`
/// is resolved against the ancestor chain once and cached; a repeat lookup
/// is two `&str` probes (class, then name) and allocates nothing.
#[derive(Default)]
struct MethodTable {
    /// class → its own definitions (`"Object"` holds top-level `def`s).
    classes: HashMap<String, ClassDefs>,
    /// class → superclass.
    superclasses: HashMap<String, String>,
    /// class → names resolved so far.
    resolved: RefCell<HashMap<String, Resolved>>,
    /// Ancestor-chain walks made to resolve a name.
    #[cfg(test)]
    walks: Cell<usize>,
}

impl MethodTable {
    /// Moves the method definitions in `items` into the table and appends
    /// the top-level expressions to `main`.
    fn collect(&mut self, owner: &str, items: Vec<Item>, main: &mut Vec<Expr>) {
        for item in items {
            match item {
                Item::Method(m) => {
                    let defs = self.classes.entry(owner.to_string()).or_default();
                    defs.methods[usize::from(m.singleton)].insert(m.name.clone(), Rc::new(m));
                }
                Item::Class(c) => {
                    let sup = c.superclass.unwrap_or_else(|| "Object".to_string());
                    self.superclasses.insert(c.name.clone(), sup);
                    // attr_accessor / attr_reader / attr_writer declarations.
                    for body_item in &c.body {
                        if let Item::Expr(e) = body_item {
                            if let ExprKind::Call { recv: None, name, args, .. } = &e.kind {
                                let kind = match name.as_str() {
                                    "attr_accessor" => Some(AccessorKind::Both),
                                    "attr_reader" => Some(AccessorKind::Reader),
                                    "attr_writer" => Some(AccessorKind::Writer),
                                    _ => None,
                                };
                                if let Some(kind) = kind {
                                    let defs = self.classes.entry(c.name.clone()).or_default();
                                    for arg in args {
                                        if let ExprKind::Sym(attr) = &arg.kind {
                                            defs.accessors.insert(attr.clone(), kind);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Class bodies run no code of their own.
                    self.collect(&c.name, c.body, &mut Vec::new());
                }
                Item::Expr(e) => main.push(e),
            }
        }
    }

    fn ancestors(&self, class: &str) -> Vec<String> {
        let mut out = vec![class.to_string()];
        let mut current = class;
        let mut fuel = 64;
        while fuel > 0 {
            fuel -= 1;
            match self.superclasses.get(current) {
                Some(sup) => {
                    out.push(sup.clone());
                    current = sup;
                }
                None => break,
            }
        }
        // Builtin numeric tower fallbacks.
        match class {
            "Integer" | "Float" => out.push("Numeric".to_string()),
            _ => {}
        }
        if !out.iter().any(|c| c == "Object") {
            out.push("Object".to_string());
        }
        out
    }

    /// Runs `f` on `class`'s resolution cache, building the class's
    /// ancestor chain the first time the class is seen.
    fn with_class<R>(&self, class: &str, f: impl FnOnce(&mut Resolved) -> R) -> R {
        let mut resolved = self.resolved.borrow_mut();
        if let Some(r) = resolved.get_mut(class) {
            return f(r);
        }
        let r = resolved.entry(class.to_string()).or_insert_with(|| Resolved {
            ancestors: self.ancestors(class),
            methods: Default::default(),
            accessors: HashMap::new(),
        });
        f(r)
    }

    /// Looks `name` up in the `cache` of `class`'s resolutions, resolving it
    /// with `walk` over the ancestor chain on a miss.
    fn resolve<T: Clone>(
        &self,
        class: &str,
        name: &str,
        cache: impl Fn(&mut Resolved) -> &mut HashMap<String, T>,
        walk: impl FnOnce(&[String]) -> T,
    ) -> T {
        self.with_class(class, |r| {
            if let Some(hit) = cache(r).get(name) {
                return hit.clone();
            }
            #[cfg(test)]
            self.walks.set(self.walks.get() + 1);
            let found = walk(&r.ancestors);
            cache(r).insert(name.to_string(), found.clone());
            found
        })
    }

    fn lookup(&self, class: &str, singleton: bool, name: &str) -> Option<Rc<MethodDef>> {
        let side = usize::from(singleton);
        let walk = |ancestors: &[String]| {
            ancestors.iter().find_map(|anc| self.classes.get(anc)?.methods[side].get(name).cloned())
        };
        self.resolve(class, name, |r| &mut r.methods[side], walk)
    }

    /// A method `class` itself defines (no inheritance).
    fn own_method(&self, class: &str, name: &str) -> Option<Rc<MethodDef>> {
        self.classes.get(class)?.methods[0].get(name).cloned()
    }

    /// The attribute an `attr_*` accessor named `name` reads (or, for
    /// `name=`, writes) on instances of `class`.
    fn accessor(&self, class: &str, name: &str) -> Option<Rc<str>> {
        let (attr, is_writer) = match name.strip_suffix('=') {
            Some(base) => (base, true),
            None => (name, false),
        };
        let grants = |anc: &String| match self.classes.get(anc).and_then(|d| d.accessors.get(attr))
        {
            Some(AccessorKind::Both) => true,
            Some(AccessorKind::Reader) => !is_writer,
            Some(AccessorKind::Writer) => is_writer,
            None => false,
        };
        let walk = |ancestors: &[String]| ancestors.iter().any(grants).then(|| Rc::from(attr));
        self.resolve(class, name, |r| &mut r.accessors, walk)
    }

    /// True if `ancestor` is on `class`'s ancestor chain.
    fn inherits(&self, class: &str, ancestor: &str) -> bool {
        self.with_class(class, |r| r.ancestors.iter().any(|a| a == ancestor))
    }

    fn is_class(&self, name: &str) -> bool {
        self.superclasses.contains_key(name)
    }
}

/// A call frame: local variables, `self`, and the block passed to the
/// current method (for `yield`).
#[derive(Clone)]
pub struct Frame {
    /// Local variables, shared with any blocks created in this frame.
    pub locals: Rc<RefCell<HashMap<String, Value>>>,
    /// The current `self`.
    pub self_val: Value,
    /// The block passed to the current method, if any.
    pub block: Option<Rc<Closure>>,
}

impl Frame {
    /// A fresh top-level frame with `self` bound to the "main" object.
    pub fn top_level() -> Self {
        Frame {
            locals: Rc::new(RefCell::new(HashMap::new())),
            self_val: Value::new_object("Object"),
            block: None,
        }
    }
}

/// The Ruby-subset interpreter.
pub struct Interpreter {
    table: MethodTable,
    /// The program's top-level expressions, in order.
    main: Vec<Expr>,
    globals: RefCell<HashMap<String, Value>>,
    constants: RefCell<HashMap<String, Value>>,
    class_ivars: RefCell<HashMap<(String, String), Value>>,
    hook: Option<Rc<dyn DynamicCheckHook>>,
    fuel: Cell<u64>,
    checks_performed: Cell<u64>,
    output: RefCell<Vec<String>>,
}

impl Interpreter {
    /// Creates an interpreter for `program` (class and method definitions
    /// are registered immediately; top-level expressions run when
    /// [`Interpreter::eval_program`] is called).
    pub fn new(program: Program) -> Self {
        let mut table = MethodTable::default();
        let mut main = Vec::new();
        table.collect("Object", program.items, &mut main);
        Interpreter {
            table,
            main,
            globals: RefCell::new(HashMap::new()),
            constants: RefCell::new(HashMap::new()),
            class_ivars: RefCell::new(HashMap::new()),
            hook: None,
            fuel: Cell::new(DEFAULT_FUEL),
            checks_performed: Cell::new(0),
            output: RefCell::new(Vec::new()),
        }
    }

    /// Installs the dynamic-check hook used at rewritten (checked) call
    /// sites.
    pub fn set_hook(&mut self, hook: Rc<dyn DynamicCheckHook>) {
        self.hook = Some(hook);
    }

    /// Removes any installed hook (runs the program unchecked).
    pub fn clear_hook(&mut self) {
        self.hook = None;
    }

    /// Overrides the evaluation fuel (number of AST nodes evaluated before
    /// the interpreter reports a timeout).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel.set(fuel);
    }

    /// Number of dynamic checks executed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks_performed.get()
    }

    /// Lines printed by `puts` during evaluation.
    pub fn output(&self) -> Vec<String> {
        self.output.borrow().clone()
    }

    /// Defines a global constant (e.g. a fixture object).
    pub fn define_constant(&self, name: &str, value: Value) {
        self.constants.borrow_mut().insert(name.to_string(), value);
    }

    /// Defines a global variable.
    pub fn define_global(&self, name: &str, value: Value) {
        self.globals.borrow_mut().insert(name.to_string(), value);
    }

    /// Evaluates every top-level expression of the program in order.
    ///
    /// # Errors
    ///
    /// Returns the first runtime error (including blame) encountered.
    pub fn eval_program(&self) -> Result<Value, RubyError> {
        let frame = Frame::top_level();
        let mut last = Value::Nil;
        for e in &self.main {
            match self.eval(&frame, e) {
                Ok(v) => last = v,
                Err(Control::Return(v)) => return Ok(v),
                Err(c) => return Err(crate::error::into_error(c)),
            }
        }
        Ok(last)
    }

    /// Calls a user-defined method by name, e.g. `call("User", true,
    /// "available?", args)` for `User.available?`.
    ///
    /// # Errors
    ///
    /// Returns runtime errors raised during the call.
    pub fn call(
        &self,
        class: &str,
        singleton: bool,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, RubyError> {
        let recv =
            if singleton { Value::Class(class.to_string()) } else { Value::new_object(class) };
        self.invoke_method(Span::dummy(), &recv, name, args, None).map_err(crate::error::into_error)
    }

    // ---- evaluation -----------------------------------------------------

    fn burn(&self, span: Span) -> EvalResult<()> {
        let f = self.fuel.get();
        if f == 0 {
            return Err(Control::error(ErrorKind::Timeout, "evaluation fuel exhausted", span));
        }
        self.fuel.set(f - 1);
        Ok(())
    }

    /// Evaluates a single expression in the given frame.
    ///
    /// # Errors
    ///
    /// Returns runtime errors or control-flow signals.
    pub fn eval(&self, frame: &Frame, expr: &Expr) -> EvalResult {
        self.burn(expr.span)?;
        match &expr.kind {
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::True => Ok(Value::Bool(true)),
            ExprKind::False => Ok(Value::Bool(false)),
            ExprKind::Int(i) => Ok(Value::Int(*i)),
            ExprKind::Float(f) => Ok(Value::Float(*f)),
            ExprKind::Str(s) => Ok(Value::str(s.clone())),
            ExprKind::Sym(s) => Ok(Value::Sym(s.clone())),
            ExprKind::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(frame, item)?);
                }
                Ok(Value::array(out))
            }
            ExprKind::Hash(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((self.eval(frame, k)?, self.eval(frame, v)?));
                }
                Ok(Value::hash(out))
            }
            ExprKind::SelfExpr => Ok(frame.self_val.clone()),
            ExprKind::Ident(name) => {
                if let Some(v) = frame.locals.borrow().get(name) {
                    return Ok(v.clone());
                }
                self.invoke_method(expr.span, &frame.self_val, name, vec![], frame.block.clone())
            }
            ExprKind::IVar(name) => Ok(self.read_ivar(&frame.self_val, name)),
            ExprKind::GVar(name) => {
                Ok(self.globals.borrow().get(name).cloned().unwrap_or(Value::Nil))
            }
            ExprKind::Const(path) => self.read_const(expr.span, path),
            ExprKind::Assign { target, value } => {
                let v = self.eval(frame, value)?;
                self.assign(frame, expr.span, target, v.clone())?;
                Ok(v)
            }
            ExprKind::OpAssign { target, op, value } => {
                let current = self.read_lvalue(frame, expr.span, target)?;
                let new = match op.as_str() {
                    "||" => {
                        if current.truthy() {
                            current
                        } else {
                            self.eval(frame, value)?
                        }
                    }
                    other => {
                        let rhs = self.eval(frame, value)?;
                        self.invoke_method(expr.span, &current, other, vec![rhs], None)?
                    }
                };
                self.assign(frame, expr.span, target, new.clone())?;
                Ok(new)
            }
            ExprKind::Call { recv, name, args, block } => {
                let recv_val = match recv {
                    Some(r) => self.eval(frame, r)?,
                    None => frame.self_val.clone(),
                };
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(frame, a)?);
                }
                let closure = block.as_ref().map(|b| self.make_closure(frame, b));
                // When there is no explicit receiver and no matching method,
                // fall back to kernel-level helpers (puts, raise, assert...).
                let checked = self.hook.as_ref().map(|h| h.has_check(expr.span)).unwrap_or(false);
                if checked {
                    self.checks_performed.set(self.checks_performed.get() + 1);
                    let hook = self.hook.as_ref().expect("checked implies hook");
                    hook.before_call(expr.span, &recv_val, &arg_vals)
                        .map_err(|msg| Control::error(ErrorKind::Blame, msg, expr.span))?;
                }
                let result = if recv.is_none() {
                    self.invoke_self_call(expr.span, frame, name, arg_vals, closure)?
                } else {
                    self.invoke_method(expr.span, &recv_val, name, arg_vals, closure)?
                };
                if checked {
                    let hook = self.hook.as_ref().expect("checked implies hook");
                    hook.after_call(expr.span, &result)
                        .map_err(|msg| Control::error(ErrorKind::Blame, msg, expr.span))?;
                }
                Ok(result)
            }
            ExprKind::BoolOp { op, lhs, rhs } => {
                let l = self.eval(frame, lhs)?;
                match op {
                    BinOp::And => {
                        if l.truthy() {
                            self.eval(frame, rhs)
                        } else {
                            Ok(l)
                        }
                    }
                    BinOp::Or => {
                        if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval(frame, rhs)
                        }
                    }
                }
            }
            ExprKind::Not(inner) => {
                let v = self.eval(frame, inner)?;
                Ok(Value::Bool(!v.truthy()))
            }
            ExprKind::If { arms, else_body } => {
                for arm in arms {
                    if self.eval(frame, &arm.cond)?.truthy() {
                        return self.eval_body(frame, &arm.body);
                    }
                }
                self.eval_body(frame, else_body)
            }
            ExprKind::Case { subject, arms, else_body } => {
                let subject = self.eval(frame, subject)?;
                for arm in arms {
                    let cond = self.eval(frame, &arm.cond)?;
                    let matched = match &cond {
                        Value::Class(c) => self.value_is_a(&subject, c),
                        other => other.ruby_eq(&subject),
                    };
                    if matched {
                        return self.eval_body(frame, &arm.body);
                    }
                }
                self.eval_body(frame, else_body)
            }
            ExprKind::While { cond, body } => {
                let mut result = Value::Nil;
                while self.eval(frame, cond)?.truthy() {
                    self.burn(expr.span)?;
                    match self.eval_body(frame, body) {
                        Ok(v) => result = v,
                        Err(Control::Break(v)) => return Ok(v),
                        Err(Control::Next(_)) => continue,
                        Err(other) => return Err(other),
                    }
                }
                Ok(result)
            }
            ExprKind::Return(v) => {
                let value = match v {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Nil,
                };
                Err(Control::Return(value))
            }
            ExprKind::Yield(args) => {
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval(frame, a)?);
                }
                match &frame.block {
                    Some(closure) => self.call_closure(closure, &arg_vals, expr.span),
                    None => {
                        Err(Control::error(ErrorKind::Raised, "no block given (yield)", expr.span))
                    }
                }
            }
            ExprKind::Break => Err(Control::Break(Value::Nil)),
            ExprKind::Next => Err(Control::Next(Value::Nil)),
            ExprKind::Lambda(block) => Ok(Value::Lambda(self.make_closure(frame, block))),
            ExprKind::TypeCast { expr: inner, .. } => self.eval(frame, inner),
            // Recovery placeholder for source that failed to parse: evaluates
            // to nil so a poisoned method can still be *defined* (calling it
            // is the caller's bug, not the interpreter's).
            ExprKind::Error => Ok(Value::Nil),
        }
    }

    fn eval_body(&self, frame: &Frame, body: &[Expr]) -> EvalResult {
        let mut last = Value::Nil;
        for e in body {
            last = self.eval(frame, e)?;
        }
        Ok(last)
    }

    fn make_closure(&self, frame: &Frame, block: &Arc<Block>) -> Rc<Closure> {
        Rc::new(Closure::from_block(block, frame.locals.clone(), frame.self_val.clone()))
    }

    /// Invokes a block/lambda closure with the given arguments.
    ///
    /// # Errors
    ///
    /// Propagates errors raised by the closure body.
    pub fn call_closure(&self, closure: &Closure, args: &[Value], span: Span) -> EvalResult {
        self.burn(span)?;
        {
            let mut locals = closure.locals.borrow_mut();
            for (i, p) in closure.block.params.iter().enumerate() {
                set_local(&mut locals, p, args.get(i).cloned().unwrap_or(Value::Nil));
            }
        }
        let frame = Frame {
            locals: closure.locals.clone(),
            self_val: closure.self_val.clone(),
            block: None,
        };
        let mut last = Value::Nil;
        for e in &closure.block.body {
            match self.eval(&frame, e) {
                Ok(v) => last = v,
                Err(Control::Next(v)) => return Ok(v),
                Err(other) => return Err(other),
            }
        }
        Ok(last)
    }

    // ---- variables ------------------------------------------------------

    fn read_ivar(&self, self_val: &Value, name: &str) -> Value {
        match self_val {
            Value::Object(o) => o.borrow().ivars.get(name).cloned().unwrap_or(Value::Nil),
            Value::Class(c) => self
                .class_ivars
                .borrow()
                .get(&(c.clone(), name.to_string()))
                .cloned()
                .unwrap_or(Value::Nil),
            _ => Value::Nil,
        }
    }

    fn write_ivar(&self, self_val: &Value, name: &str, value: Value) {
        match self_val {
            Value::Object(o) => {
                o.borrow_mut().ivars.insert(name.to_string(), value);
            }
            Value::Class(c) => {
                self.class_ivars.borrow_mut().insert((c.clone(), name.to_string()), value);
            }
            _ => {}
        }
    }

    fn read_const(&self, span: Span, path: &[String]) -> EvalResult {
        let joined = path.join("::");
        if let Some(v) = self.constants.borrow().get(&joined) {
            return Ok(v.clone());
        }
        if self.table.is_class(&joined) || BUILTIN_CLASSES.contains(&joined.as_str()) {
            return Ok(Value::Class(joined));
        }
        // Single-segment constant defined at top level?
        if path.len() == 1 {
            if let Some(v) = self.constants.borrow().get(&path[0]) {
                return Ok(v.clone());
            }
        }
        Err(Control::error(ErrorKind::Name, format!("uninitialized constant {joined}"), span))
    }

    fn read_lvalue(&self, frame: &Frame, span: Span, target: &LValue) -> EvalResult {
        match target {
            LValue::Local(name) => {
                Ok(frame.locals.borrow().get(name).cloned().unwrap_or(Value::Nil))
            }
            LValue::IVar(name) => Ok(self.read_ivar(&frame.self_val, name)),
            LValue::GVar(name) => {
                Ok(self.globals.borrow().get(name).cloned().unwrap_or(Value::Nil))
            }
            LValue::Const(name) => self.read_const(span, std::slice::from_ref(name)),
            LValue::Index { recv, index } => {
                let r = self.eval(frame, recv)?;
                let i = self.eval(frame, index)?;
                self.invoke_method(span, &r, "[]", vec![i], None)
            }
            LValue::Attr { recv, name } => {
                let r = self.eval(frame, recv)?;
                self.invoke_method(span, &r, name, vec![], None)
            }
        }
    }

    fn assign(&self, frame: &Frame, span: Span, target: &LValue, value: Value) -> EvalResult<()> {
        match target {
            LValue::Local(name) => set_local(&mut frame.locals.borrow_mut(), name, value),
            LValue::IVar(name) => self.write_ivar(&frame.self_val, name, value),
            LValue::GVar(name) => {
                self.globals.borrow_mut().insert(name.clone(), value);
            }
            LValue::Const(name) => {
                self.constants.borrow_mut().insert(name.clone(), value);
            }
            LValue::Index { recv, index } => {
                let r = self.eval(frame, recv)?;
                let i = self.eval(frame, index)?;
                self.invoke_method(span, &r, "[]=", vec![i, value], None)?;
            }
            LValue::Attr { recv, name } => {
                let r = self.eval(frame, recv)?;
                self.invoke_method(span, &r, &format!("{name}="), vec![value], None)?;
            }
        }
        Ok(())
    }

    // ---- dispatch -------------------------------------------------------

    fn invoke_self_call(
        &self,
        span: Span,
        frame: &Frame,
        name: &str,
        args: Vec<Value>,
        block: Option<Rc<Closure>>,
    ) -> EvalResult {
        // Kernel-level helpers take priority only when the receiver class
        // does not define the method.
        let recv = frame.self_val.clone();
        match self.try_invoke(span, &recv, name, &args, &block)? {
            Some(v) => Ok(v),
            None => match self.kernel_call(span, name, &args, &block)? {
                Some(v) => Ok(v),
                None => Err(Control::error(
                    ErrorKind::NoMethod,
                    format!("undefined method `{name}` for {}", recv.inspect()),
                    span,
                )),
            },
        }
    }

    /// Invokes `name` on `recv`, raising `NoMethodError` if undefined.
    ///
    /// # Errors
    ///
    /// Returns runtime errors raised by the method body.
    pub fn invoke_method(
        &self,
        span: Span,
        recv: &Value,
        name: &str,
        args: Vec<Value>,
        block: Option<Rc<Closure>>,
    ) -> EvalResult {
        match self.try_invoke(span, recv, name, &args, &block)? {
            Some(v) => Ok(v),
            None => {
                if let Value::Object(_) | Value::Class(_) = recv {
                    if let Some(v) = self.kernel_call(span, name, &args, &block)? {
                        return Ok(v);
                    }
                }
                Err(Control::error(
                    ErrorKind::NoMethod,
                    format!("undefined method `{name}` for {}", recv.inspect()),
                    span,
                ))
            }
        }
    }

    fn try_invoke(
        &self,
        span: Span,
        recv: &Value,
        name: &str,
        args: &[Value],
        block: &Option<Rc<Closure>>,
    ) -> EvalResult<Option<Value>> {
        // `nil` receivers produce blame-like NoMethod errors except for the
        // few methods NilClass actually has (handled in corelib).
        match recv {
            Value::Class(class) => {
                // `new` constructs an instance and runs `initialize`.
                if name == "new" {
                    let obj = Value::new_object(class.clone());
                    if let Some(init) = self.table.lookup(class, false, "initialize") {
                        self.run_method_def(&init, obj.clone(), args, block.clone(), span)?;
                    }
                    return Ok(Some(obj));
                }
                if let Some(def) = self.table.lookup(class, true, name) {
                    return Ok(Some(self.run_method_def(
                        &def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                // Generic object methods on the class object itself.
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
            Value::Object(obj) => {
                // Resolve before running: the body may write the object's ivars.
                let def = self.table.lookup(&obj.borrow().class, false, name);
                if let Some(def) = def {
                    return Ok(Some(self.run_method_def(
                        &def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                let accessor = self.table.accessor(&obj.borrow().class, name);
                if let Some(attr) = accessor {
                    if name.ends_with('=') {
                        let value = args.first().cloned().unwrap_or(Value::Nil);
                        self.write_ivar(recv, &attr, value.clone());
                        return Ok(Some(value));
                    }
                    return Ok(Some(self.read_ivar(recv, &attr)));
                }
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
            other => {
                // User code may monkey-patch builtin classes; check user
                // definitions first, then the native core library.
                let class = other.builtin_class_name().unwrap_or_default();
                if let Some(def) = self.table.own_method(class, name) {
                    return Ok(Some(self.run_method_def(
                        &def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
        }
    }

    fn run_method_def(
        &self,
        def: &MethodDef,
        self_val: Value,
        args: &[Value],
        block: Option<Rc<Closure>>,
        span: Span,
    ) -> EvalResult {
        let locals: HashMap<String, Value> = HashMap::new();
        let frame = Frame { locals: Rc::new(RefCell::new(locals)), self_val, block };
        // Bind parameters.
        let mut arg_iter = args.iter();
        for p in &def.params {
            if p.block {
                continue;
            }
            let value = match arg_iter.next() {
                Some(v) => v.clone(),
                None => match &p.default {
                    Some(d) => self.eval(&frame, d)?,
                    None => Value::Nil,
                },
            };
            frame.locals.borrow_mut().insert(p.name.clone(), value);
        }
        if args.len() > def.params.iter().filter(|p| !p.block).count() {
            return Err(Control::error(
                ErrorKind::Argument,
                format!(
                    "wrong number of arguments for `{}` (given {}, expected {})",
                    def.name,
                    args.len(),
                    def.params.len()
                ),
                span,
            ));
        }
        match self.eval_body(&frame, &def.body) {
            Ok(v) => Ok(v),
            Err(Control::Return(v)) => Ok(v),
            Err(other) => Err(other),
        }
    }

    fn kernel_call(
        &self,
        span: Span,
        name: &str,
        args: &[Value],
        block: &Option<Rc<Closure>>,
    ) -> EvalResult<Option<Value>> {
        match name {
            "puts" | "p" | "print" => {
                let line = args.iter().map(|a| a.to_display_string()).collect::<Vec<_>>().join("");
                self.output.borrow_mut().push(line);
                Ok(Some(Value::Nil))
            }
            "raise" => {
                let msg = args
                    .first()
                    .map(|a| a.to_display_string())
                    .unwrap_or_else(|| "RuntimeError".to_string());
                Err(Control::error(ErrorKind::Raised, msg, span))
            }
            "assert" => {
                let ok = args.first().map(|a| a.truthy()).unwrap_or(false);
                if ok {
                    Ok(Some(Value::Bool(true)))
                } else {
                    Err(Control::error(ErrorKind::AssertionFailed, "assertion failed", span))
                }
            }
            "assert_equal" => {
                let a = args.first().cloned().unwrap_or(Value::Nil);
                let b = args.get(1).cloned().unwrap_or(Value::Nil);
                if a.ruby_eq(&b) {
                    Ok(Some(Value::Bool(true)))
                } else {
                    Err(Control::error(
                        ErrorKind::AssertionFailed,
                        format!("expected {} but got {}", a.inspect(), b.inspect()),
                        span,
                    ))
                }
            }
            "refute" => {
                let ok = args.first().map(|a| a.truthy()).unwrap_or(false);
                if ok {
                    Err(Control::error(ErrorKind::AssertionFailed, "refute failed", span))
                } else {
                    Ok(Some(Value::Bool(true)))
                }
            }
            "require" | "require_relative" | "attr_accessor" | "attr_reader" | "attr_writer" => {
                Ok(Some(Value::Bool(true)))
            }
            "lambda" | "proc" => match block {
                Some(b) => Ok(Some(Value::Lambda(b.clone()))),
                None => Ok(Some(Value::Nil)),
            },
            "rand" => {
                // Deterministic "random" for reproducible tests.
                let max = args.first().and_then(|a| a.as_int()).unwrap_or(2);
                Ok(Some(Value::Int(if max > 0 { 42 % max } else { 0 })))
            }
            _ => Ok(None),
        }
    }

    /// True if `value` is an instance of `class` (or a subclass).
    pub fn value_is_a(&self, value: &Value, class: &str) -> bool {
        if class == "Object" {
            return true;
        }
        // Boolean pseudo-class.
        if class == "Boolean" && matches!(value, Value::Bool(_)) {
            return true;
        }
        if class == "Numeric" && matches!(value, Value::Int(_) | Value::Float(_)) {
            return true;
        }
        let inherits = |actual: &str| actual == class || self.table.inherits(actual, class);
        match value {
            Value::Object(o) => inherits(&o.borrow().class),
            builtin => inherits(builtin.builtin_class_name().unwrap_or_default()),
        }
    }
}

/// Binds local `name`, reusing the existing key when it is already bound.
fn set_local(locals: &mut HashMap<String, Value>, name: &str, value: Value) {
    match locals.get_mut(name) {
        Some(slot) => *slot = value,
        None => {
            locals.insert(name.to_string(), value);
        }
    }
}

/// Builtin class names the interpreter recognizes as constants without a
/// user definition.
const BUILTIN_CLASSES: &[&str] = &[
    "Object",
    "String",
    "Integer",
    "Float",
    "Numeric",
    "Symbol",
    "Array",
    "Hash",
    "NilClass",
    "TrueClass",
    "FalseClass",
    "Boolean",
    "Proc",
    "Class",
    "RDL",
    "JSON",
    "Time",
    "ActiveRecord",
    "ActiveRecord::Base",
    "Sequel",
    "Sequel::Model",
    "StandardError",
    "ArgumentError",
    "RuntimeError",
];

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::parse_program_strict;

    fn run(src: &str) -> Result<Value, RubyError> {
        let prog = parse_program_strict(src).expect("parse");
        let interp = Interpreter::new(prog);
        interp.eval_program()
    }

    fn run_ok(src: &str) -> Value {
        run(src).expect("eval")
    }

    #[test]
    fn evaluates_arithmetic_and_locals() {
        assert_eq!(run_ok("x = 2\ny = x * 3 + 1\ny"), Value::Int(7));
        assert_eq!(run_ok("x = 10.0 / 4\nx"), Value::Float(2.5));
        assert_eq!(run_ok("x = 7 % 3\nx"), Value::Int(1));
    }

    #[test]
    fn evaluates_conditionals_and_booleans() {
        assert_eq!(run_ok("if 1 == 1\n 'yes'\nelse\n 'no'\nend"), Value::str("yes"));
        assert_eq!(run_ok("x = nil\nx = 5 unless false\nx"), Value::Int(5));
        assert_eq!(run_ok("(1 == 2) || 'fallback'"), Value::str("fallback"));
        assert_eq!(run_ok("true && false"), Value::Bool(false));
        assert_eq!(run_ok("!nil"), Value::Bool(true));
    }

    #[test]
    fn evaluates_while_loops() {
        assert_eq!(run_ok("i = 0\nwhile i < 5\n i = i + 1\nend\ni"), Value::Int(5));
        assert_eq!(
            run_ok("i = 0\nwhile true\n i = i + 1\n break if i == 3\nend\ni"),
            Value::Int(3)
        );
    }

    #[test]
    fn defines_and_calls_methods() {
        let v = run_ok("def add(a, b)\n a + b\nend\nadd(2, 3)");
        assert_eq!(v, Value::Int(5));
        let v = run_ok("def greet(name = 'world')\n 'hello ' + name\nend\ngreet()");
        assert_eq!(v, Value::str("hello world"));
    }

    #[test]
    fn classes_instances_and_ivars() {
        let src = r#"
class Point
  def initialize(x, y)
    @x = x
    @y = y
  end
  def sum()
    @x + @y
  end
end
p = Point.new(3, 4)
p.sum()
"#;
        assert_eq!(run_ok(src), Value::Int(7));
    }

    #[test]
    fn singleton_methods_and_class_ivars() {
        let src = r#"
class Counter
  def self.bump()
    @count = (@count || 0) + 1
  end
end
Counter.bump()
Counter.bump()
Counter.bump()
"#;
        assert_eq!(run_ok(src), Value::Int(3));
    }

    #[test]
    fn inheritance_dispatch() {
        let src = r#"
class Animal
  def speak()
    'generic'
  end
  def describe()
    speak() + '!'
  end
end
class Dog < Animal
  def speak()
    'woof'
  end
end
Dog.new().describe()
"#;
        assert_eq!(run_ok(src), Value::str("woof!"));
    }

    #[test]
    fn attr_accessors() {
        let src = r#"
class User
  attr_accessor(:name)
end
u = User.new()
u.name = 'alice'
u.name
"#;
        assert_eq!(run_ok(src), Value::str("alice"));
    }

    #[test]
    fn blocks_and_yield() {
        let src = r#"
def twice()
  yield(1) + yield(2)
end
twice() { |x| x * 10 }
"#;
        assert_eq!(run_ok(src), Value::Int(30));
    }

    #[test]
    fn case_expression() {
        let src = "x = 2\ncase x\nwhen 1\n 'one'\nwhen 2\n 'two'\nelse\n 'many'\nend";
        assert_eq!(run_ok(src), Value::str("two"));
        let src = "x = 'str'\ncase x\nwhen String\n 'a string'\nelse\n 'other'\nend";
        assert_eq!(run_ok(src), Value::str("a string"));
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(run("frobnicate(1)").unwrap_err().kind, ErrorKind::NoMethod);
        assert_eq!(run("UndefinedConst").unwrap_err().kind, ErrorKind::Name);
        assert_eq!(run("raise('boom')").unwrap_err().kind, ErrorKind::Raised);
        assert_eq!(run("assert(1 == 2)").unwrap_err().kind, ErrorKind::AssertionFailed);
    }

    #[test]
    fn infinite_loops_time_out() {
        let prog = parse_program_strict("while true\n x = 1\nend").unwrap();
        let mut interp = Interpreter::new(prog);
        interp.set_fuel(10_000);
        let err = interp.eval_program().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
    }

    #[test]
    fn op_assign_forms() {
        assert_eq!(run_ok("x = 1\nx += 4\nx"), Value::Int(5));
        assert_eq!(run_ok("x = nil\nx ||= 'default'\nx"), Value::str("default"));
        assert_eq!(run_ok("x = 'set'\nx ||= 'default'\nx"), Value::str("set"));
    }

    #[test]
    fn globals_and_constants() {
        assert_eq!(run_ok("$counter = 7\n$counter + 1"), Value::Int(8));
        assert_eq!(run_ok("MAX = 10\nMAX * 2"), Value::Int(20));
    }

    #[test]
    fn lambdas_are_values() {
        let src = "double = ->(x) { x * 2 }\ndouble.call(21)";
        assert_eq!(run_ok(src), Value::Int(42));
    }

    #[test]
    fn puts_is_captured() {
        let prog = parse_program_strict("puts('hello')\nputs(42)").unwrap();
        let interp = Interpreter::new(prog);
        interp.eval_program().unwrap();
        assert_eq!(interp.output(), vec!["hello".to_string(), "42".to_string()]);
    }

    #[test]
    fn call_entry_point() {
        let prog = parse_program_strict("class M\n def self.f(x)\n x + 1\n end\nend").unwrap();
        let interp = Interpreter::new(prog);
        assert_eq!(interp.call("M", true, "f", vec![Value::Int(41)]).unwrap(), Value::Int(42));
    }

    // ---- dispatch semantics ----------------------------------------------

    #[test]
    fn singleton_methods_are_inherited_through_the_chain() {
        let src = r#"
class Base
  def self.make()
    'base'
  end
  def self.kind()
    'base kind'
  end
end
class Mid < Base
  def self.kind()
    'mid kind'
  end
end
class Leaf < Mid
end
[Leaf.make(), Leaf.kind(), Mid.make(), Base.kind()]
"#;
        assert_eq!(run_ok(src).inspect(), r#"["base", "mid kind", "base", "base kind"]"#);
        // An instance method is not a singleton method, nor the reverse.
        let src = "class A\n def inst()\n 1\n end\nend\nclass B < A\nend\nB.inst()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        let src = "class A\n def self.cls()\n 1\n end\nend\nclass B < A\nend\nB.new().cls()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
    }

    #[test]
    fn accessors_are_inherited_and_respect_their_kind() {
        let src = r#"
class Base
  attr_accessor(:name)
  attr_reader(:id)
end
class Child < Base
  attr_writer(:id)
end
c = Child.new()
c.name = 'alice'
c.id = 7
[c.name, c.id]
"#;
        // `id=` resolves to Child's writer; `id` skips it (writer only) and
        // resolves to Base's reader.
        assert_eq!(run_ok(src).inspect(), r#"["alice", 7]"#);
        let src = "class R\n attr_reader(:x)\nend\nr = R.new()\nr.x = 1";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        let src = "class W\n attr_writer(:x)\nend\nw = W.new()\nw.x = 1\nw.x";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        // A user method wins over an accessor of the same name.
        let src = "class U\n attr_accessor(:x)\n def x()\n 'method'\n end\nend\nu = U.new()\nu.x = 1\nu.x";
        assert_eq!(run_ok(src), Value::str("method"));
    }

    #[test]
    fn builtin_classes_can_be_reopened() {
        let src = "class Integer\n def double()\n self * 2\n end\nend\n3.double";
        assert_eq!(run_ok(src), Value::Int(6));
        let src = "class String\n def shout()\n self.upcase() + '!'\n end\nend\n'hi'.shout()";
        assert_eq!(run_ok(src), Value::str("HI!"));
        // User definitions on a builtin class shadow the native method.
        let src = "class Array\n def length()\n 99\n end\nend\n[1, 2].length()";
        assert_eq!(run_ok(src), Value::Int(99));
    }

    #[test]
    fn builtin_receivers_dispatch_only_to_their_exact_class() {
        for recv in ["3", "'s'", "[]", "{}", "nil", ":sym", "1.5"] {
            let src = format!("def helper()\n 1\nend\n{recv}.helper()");
            assert_eq!(run(&src).unwrap_err().kind, ErrorKind::NoMethod, "{recv}.helper()");
        }
        // Methods on Numeric or Object are not inherited by builtins either.
        let src = "class Numeric\n def twice()\n 2\n end\nend\n3.twice()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        let src = "class Object\n def twice()\n 2\n end\nend\n'x'.twice()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        // But a top-level `def` is reachable on user objects and self.
        let src = "def helper()\n 1\nend\nclass K\nend\n[K.new().helper(), helper()]";
        assert_eq!(run_ok(src).inspect(), "[1, 1]");
    }

    #[test]
    fn is_a_follows_the_chain_and_the_numeric_tower() {
        let src = r#"
class A
end
class B < A
end
class C < B
end
c = C.new()
[c.is_a?(C), c.is_a?(B), c.is_a?(A), c.is_a?(Object), A.new().is_a?(B), c.is_a?(Integer)]
"#;
        assert_eq!(run_ok(src).inspect(), "[true, true, true, true, false, false]");
        let src = "[3.is_a?(Numeric), 1.5.is_a?(Numeric), 'x'.is_a?(Numeric), 3.is_a?(Float), \
                   nil.is_a?(Object), true.is_a?(Boolean)]";
        assert_eq!(run_ok(src).inspect(), "[true, true, false, false, true, true]");
        let src = "class A\nend\nclass B < A\nend\ncase B.new()\nwhen Integer\n 1\nwhen A\n 2\nend";
        assert_eq!(run_ok(src), Value::Int(2));
    }

    #[test]
    fn blocks_mutating_their_receiver_see_the_pre_call_snapshot() {
        let src = "a = [1, 2]\nn = 0\na.each { |x| a.push(x)\n n = n + 1 }\n[n, a.length()]";
        assert_eq!(run_ok(src).inspect(), "[2, 4]");
        let src = "a = [1, 2]\nb = a.select { |x| a.push(x)\n true }\n[b.length(), a.length()]";
        assert_eq!(run_ok(src).inspect(), "[2, 4]");
        let src = "a = [1, 2, 3]\nb = a.map { |x| a.pop()\n x }\n[b, a]";
        assert_eq!(run_ok(src).inspect(), "[[1, 2, 3], []]");
        let src = "h = { a: 1 }\nn = 0\nh.each { |k, v| h[:b] = 2\n n = n + 1 }\n[n, h.length()]";
        assert_eq!(run_ok(src).inspect(), "[1, 2]");
    }

    /// `s << t` and `xs << 1` reach `corelib`'s `String#<<`/`Array#<<`
    /// from source, chaining left to right on the mutated receiver.
    #[test]
    fn shift_operator_runs_from_source() {
        assert_eq!(run_ok("s = 'ab'\ns << 'c'\ns"), Value::str("abc"));
        assert_eq!(run_ok("s = 'a'\ns << 'b' << 'c'"), Value::str("abc"));
        assert_eq!(run_ok("s = 'ab'\ns << s\ns"), Value::str("abab"));
        assert_eq!(run_ok("xs = [1]\nxs << 1\nxs"), run_ok("[1, 1]"));
        assert_eq!(run_ok("xs = []\nxs << 1 + 1 << 3\nxs.length()"), Value::Int(2));
        assert_eq!(run_ok("xs = [1]\n(xs << 2).length() > 1"), Value::Bool(true));
    }

    #[test]
    fn receivers_passed_as_their_own_argument() {
        // `<<` called on a receiver value directly (see also the source-level
        // test above).
        let interp = Interpreter::new(Program::empty());
        let s = Value::str("ab");
        let out = interp.invoke_method(Span::dummy(), &s, "<<", vec![s.clone()], None);
        assert_eq!(out.ok(), Some(Value::str("abab")));
        assert_eq!(s, Value::str("abab"));
        let a = Value::array(vec![Value::Int(1)]);
        interp.invoke_method(Span::dummy(), &a, "<<", vec![Value::Int(2)], None).ok();
        assert_eq!(a.inspect(), "[1, 2]");
        assert_eq!(run_ok("s = 'ab'\ns.concat(s)\ns + s"), Value::str("abababab"));
        assert_eq!(run_ok("s = 'ab'\ns == s"), Value::Bool(true));
        assert_eq!(run_ok("a = [1]\na[1] = a.length()\na"), run_ok("[1, 1]"));
        assert_eq!(run_ok("a = [1, 2]\nb = a + a\nb.length()"), Value::Int(4));
        assert_eq!(run_ok("a = [1, 2]\na.delete(a.first)\na"), run_ok("[2]"));
        assert_eq!(run_ok("h = { a: 1 }\nh.merge!(h)\nh.length()"), Value::Int(1));
        assert_eq!(run_ok("h = { a: 1 }\nh[:b] = h.length()\nh[:b]"), Value::Int(1));
        assert_eq!(run_ok("h = { a: 1 }\nh.delete(:a)\nh.empty?()"), Value::Bool(true));
    }

    #[test]
    fn each_name_is_resolved_once_per_interpreter() {
        let src = r#"
class Base
  attr_accessor(:name)
  def self.build(name)
    b = new()
    b.name = name
    b
  end
  def label()
    'base:' + name
  end
end
class Leaf < Base
  def label()
    super_label() + '!'
  end
  def super_label()
    'leaf:' + name
  end
end
class Integer
  def double()
    self * 2
  end
end
items = [Base.build('a'), Leaf.build('b'), Leaf.build('c')]
labels = items.map { |i| i.label() }
assert(labels.length() == 3)
assert(items.select { |i| i.is_a?(Base) }.length() == 3)
assert(3.double == 6)
assert([1, 2].map { |x| x.double }.sum() == 6)
"#;
        let interp = Interpreter::new(parse_program_strict(src).unwrap());
        interp.eval_program().unwrap();
        let walks = interp.table.walks.get();
        let resolved: usize = interp
            .table
            .resolved
            .borrow()
            .values()
            .map(|r| r.methods[0].len() + r.methods[1].len() + r.accessors.len())
            .sum();
        assert!(walks > 0);
        // One walk per distinct (class, singleton, name) resolved ...
        assert_eq!(walks, resolved);
        // ... and none at all once every call site is warm.
        interp.eval_program().unwrap();
        assert_eq!(interp.table.walks.get(), walks);
    }
}
