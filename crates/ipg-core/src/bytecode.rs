//! Lowering a checked grammar to a flat bytecode program.
//!
//! The checked IR ([`crate::check`]) is a tree of `Box`ed expressions and
//! `Vec`s of terms — fine for checking, but the interpreter chases
//! pointers and hashes names for every step it takes. [`compile`] flattens
//! that IR into a [`Program`]:
//!
//! * one [`PRule`] per nonterminal, indexed directly by [`NtId`];
//! * all alternatives in one dense [`PAlt`] array, each owning a
//!   contiguous span of the shared instruction array;
//! * one fixed-size [`Instr`] per term, in evaluation (topologically
//!   sorted) order, with the result slot (`written index`) pre-resolved to
//!   a `u16`;
//! * expressions flattened into one shared [`BExpr`] pool addressed by
//!   [`ExprId`] — operands are `u32` ids, not `Box` pointers;
//! * terminal literals concatenated into one byte pool addressed by
//!   `(offset, len)` spans;
//! * switch cases in one shared case pool.
//!
//! The program is executed by [`crate::interp::vm`]. Its shape is pinned
//! by snapshot tests over [`Program::disassemble`] so that codegen changes
//! show up as reviewable listing diffs.

use crate::arena::NtTable;
use crate::check::{CAlt, CExpr, CInterval, CRuleBody, CSwitchCase, CTermKind, Grammar, NtId};
use crate::intern::Sym;
use crate::syntax::{BinOp, Builtin};
use std::fmt::Write as _;
use std::sync::Arc;

/// Index of an expression in [`Program`]'s flat expression pool.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ExprId(pub u32);

impl std::fmt::Debug for ExprId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExprId({})", self.0)
    }
}

/// A span of bytes in the program's terminal-literal pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LitSpan {
    /// Offset of the first byte.
    pub start: u32,
    /// Number of bytes.
    pub len: u32,
}

/// One rule of the compiled program.
#[derive(Clone, Debug)]
pub struct PRule {
    /// How the rule parses.
    pub kind: PRuleKind,
    /// Whether this is a local (`where`) rule: it inherits the invoking
    /// alternative's environment and is never memoized.
    pub is_local: bool,
}

/// The rule dispatch variants.
#[derive(Clone, Copy, Debug)]
pub enum PRuleKind {
    /// Biased choice over `count` alternatives starting at
    /// `Program::alts[first]`.
    Alts {
        /// Index of the first alternative.
        first: u32,
        /// Number of alternatives.
        count: u32,
    },
    /// A builtin leaf parser.
    Builtin(Builtin),
    /// Index into the grammar's blackbox registry.
    Blackbox(u32),
}

/// One alternative: a contiguous instruction span plus the size of its
/// result-slot vector.
#[derive(Clone, Copy, Debug)]
pub struct PAlt {
    /// Index of the first instruction in `Program::code`.
    pub first: u32,
    /// Number of instructions.
    pub count: u32,
    /// Number of result slots (`== n_terms` of the checked alternative).
    pub n_slots: u16,
}

/// One bytecode instruction — a checked term with pre-resolved operands.
/// `slot` is the term's written index: the result-vector slot it fills and
/// the index sibling [`BExpr::NtAttr`] references use.
#[derive(Clone, Copy, Debug)]
pub enum Instr {
    /// `"s"[lo, hi]` — match literal bytes inside the interval.
    Match {
        /// Literal bytes (span into `Program::lits`).
        lit: LitSpan,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `B[lo, hi]` — invoke nonterminal `nt` on the interval.
    Call {
        /// Callee.
        nt: NtId,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `{attr = expr}` — bind an attribute.
    Set {
        /// Attribute symbol.
        attr: Sym,
        /// Defining expression.
        expr: ExprId,
    },
    /// `⟨expr⟩` — fail the alternative unless `expr` is non-zero.
    Guard {
        /// Condition.
        expr: ExprId,
    },
    /// `for var = from to to do B[lo, hi]`.
    Loop {
        /// Loop variable symbol.
        var: Sym,
        /// Inclusive lower bound.
        from: ExprId,
        /// Exclusive upper bound.
        to: ExprId,
        /// Element nonterminal.
        nt: NtId,
        /// Per-element left endpoint (may mention `var`).
        lo: ExprId,
        /// Per-element right endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `star B[lo, hi]` — one-or-more repetition.
    Star {
        /// Element nonterminal.
        nt: NtId,
        /// Left interval endpoint.
        lo: ExprId,
        /// Right interval endpoint.
        hi: ExprId,
        /// Result slot.
        slot: u16,
    },
    /// `switch(c1 : B1[..] / … / D[..])` — dispatch over
    /// `Program::cases[first..first+count]` (default last).
    Switch {
        /// Index of the first case.
        first: u32,
        /// Number of cases including the default.
        count: u16,
        /// Result slot.
        slot: u16,
    },
}

/// One case of a compiled switch.
#[derive(Clone, Copy, Debug)]
pub struct PCase {
    /// Guard (`None` for the default case).
    pub cond: Option<ExprId>,
    /// Case nonterminal.
    pub nt: NtId,
    /// Left interval endpoint.
    pub lo: ExprId,
    /// Right interval endpoint.
    pub hi: ExprId,
}

/// A compiled expression. The structural mirror of [`CExpr`] with all
/// `Box`es replaced by pool ids and term references narrowed to `u16`
/// slots; every variant is `Copy`.
#[derive(Clone, Copy, Debug)]
pub enum BExpr {
    /// Integer literal.
    Num(i64),
    /// Binary operation.
    Bin(BinOp, ExprId, ExprId),
    /// Ternary conditional.
    Cond(ExprId, ExprId, ExprId),
    /// `EOI` of the current rule's input.
    Eoi,
    /// A local attribute or loop variable.
    Local(Sym),
    /// `B.id` resolved to a sibling slot.
    NtAttr {
        /// Sibling result slot.
        slot: u16,
        /// Expected nonterminal.
        nt: NtId,
        /// Attribute symbol.
        attr: Sym,
    },
    /// `B(e).id` resolved to a sibling array slot.
    ElemAttr {
        /// Sibling array slot.
        slot: u16,
        /// Expected element nonterminal.
        nt: NtId,
        /// Element index expression.
        index: ExprId,
        /// Attribute symbol.
        attr: Sym,
    },
    /// `B.id` resolved through the invoking-alternative chain.
    OuterAttr {
        /// Nonterminal to search for.
        nt: NtId,
        /// Attribute symbol.
        attr: Sym,
    },
    /// `B(e).id` resolved through the invoking-alternative chain.
    OuterElem {
        /// Element nonterminal to search for.
        nt: NtId,
        /// Element index expression.
        index: ExprId,
        /// Attribute symbol.
        attr: Sym,
    },
    /// Existential scan over a sibling array slot (or the parent chain
    /// when `slot` is `None`).
    Exists {
        /// Bound variable.
        var: Sym,
        /// Sibling array slot, if the array is a sibling.
        slot: Option<u16>,
        /// Element nonterminal.
        nt: NtId,
        /// Per-element condition.
        cond: ExprId,
        /// Result when an element matches.
        then: ExprId,
        /// Result when none matches.
        els: ExprId,
    },
}

/// Pre-sizing hints for the VM's per-parse allocations (see
/// [`Program::size_hints`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeHints {
    /// Frame-stack capacity (static call-graph nesting plus slack).
    pub frames: usize,
    /// Arena node-pool capacity.
    pub nodes: usize,
    /// Arena leaf-pool capacity.
    pub leaves: usize,
    /// Arena child-id pool capacity.
    pub children: usize,
    /// Arena shift-record capacity.
    pub shifts: usize,
}

/// A checked grammar lowered to flat bytecode. Build one with [`compile`];
/// execute it with [`crate::interp::vm::VmParser`].
#[derive(Debug)]
pub struct Program {
    pub(crate) rules: Vec<PRule>,
    pub(crate) alts: Vec<PAlt>,
    pub(crate) code: Vec<Instr>,
    pub(crate) exprs: Vec<BExpr>,
    pub(crate) cases: Vec<PCase>,
    pub(crate) lits: Vec<u8>,
    pub(crate) nt_table: Arc<NtTable>,
    pub(crate) start: NtId,
}

/// Lowers a checked grammar into a flat bytecode [`Program`].
pub fn compile(g: &Grammar) -> Program {
    let mut c = Compiler {
        out: Program {
            rules: Vec::with_capacity(g.nt_count()),
            alts: Vec::new(),
            code: Vec::new(),
            exprs: Vec::new(),
            cases: Vec::new(),
            lits: Vec::new(),
            nt_table: Arc::new(NtTable {
                names: g.rules().iter().map(|r| r.name.clone()).collect(),
                syms: g.rules().iter().map(|r| r.name_sym).collect(),
            }),
            start: g.start_nt(),
        },
    };
    for rule in g.rules() {
        let kind = match &rule.body {
            CRuleBody::Builtin(b) => PRuleKind::Builtin(*b),
            CRuleBody::Blackbox(idx) => PRuleKind::Blackbox(*idx as u32),
            CRuleBody::Alts(alts) => {
                let first = c.out.alts.len() as u32;
                for alt in alts {
                    c.compile_alt(alt);
                }
                PRuleKind::Alts { first, count: alts.len() as u32 }
            }
        };
        c.out.rules.push(PRule { kind, is_local: rule.is_local });
    }
    c.out
}

struct Compiler {
    out: Program,
}

impl Compiler {
    fn compile_alt(&mut self, alt: &CAlt) {
        // Lower the terms into a scratch vector first: expression lowering
        // appends to the shared pools, so instruction emission must not be
        // interleaved with reading `self.out.code`.
        let mut instrs = Vec::with_capacity(alt.terms.len());
        for term in &alt.terms {
            let slot = term.orig_index as u16;
            let instr = match &term.kind {
                CTermKind::Terminal { bytes, interval } => {
                    let lit = self.lit(bytes);
                    let (lo, hi) = self.interval(interval);
                    Instr::Match { lit, lo, hi, slot }
                }
                CTermKind::Symbol { nt, interval } => {
                    let (lo, hi) = self.interval(interval);
                    Instr::Call { nt: *nt, lo, hi, slot }
                }
                CTermKind::AttrDef { attr, expr } => {
                    Instr::Set { attr: *attr, expr: self.expr(expr) }
                }
                CTermKind::Predicate { expr } => Instr::Guard { expr: self.expr(expr) },
                CTermKind::Array { var, from, to, nt, interval } => {
                    let from = self.expr(from);
                    let to = self.expr(to);
                    let (lo, hi) = self.interval(interval);
                    Instr::Loop { var: *var, from, to, nt: *nt, lo, hi, slot }
                }
                CTermKind::Star { nt, interval } => {
                    let (lo, hi) = self.interval(interval);
                    Instr::Star { nt: *nt, lo, hi, slot }
                }
                CTermKind::Switch { cases } => {
                    let first = self.out.cases.len() as u32;
                    // Reserve the span, then fill it: case lowering appends
                    // to the expression pool only.
                    let lowered: Vec<PCase> = cases.iter().map(|case| self.case(case)).collect();
                    self.out.cases.extend(lowered);
                    Instr::Switch { first, count: cases.len() as u16, slot }
                }
            };
            instrs.push(instr);
        }
        let first = self.out.code.len() as u32;
        let count = instrs.len() as u32;
        self.out.code.extend(instrs);
        self.out.alts.push(PAlt { first, count, n_slots: alt.n_terms as u16 });
    }

    fn case(&mut self, case: &CSwitchCase) -> PCase {
        let cond = case.cond.as_ref().map(|c| self.expr(c));
        let (lo, hi) = self.interval(&case.interval);
        PCase { cond, nt: case.nt, lo, hi }
    }

    fn lit(&mut self, bytes: &[u8]) -> LitSpan {
        let start = self.out.lits.len() as u32;
        self.out.lits.extend_from_slice(bytes);
        LitSpan { start, len: bytes.len() as u32 }
    }

    fn interval(&mut self, iv: &CInterval) -> (ExprId, ExprId) {
        (self.expr(&iv.lo), self.expr(&iv.hi))
    }

    fn push_expr(&mut self, e: BExpr) -> ExprId {
        let id = ExprId(self.out.exprs.len() as u32);
        self.out.exprs.push(e);
        id
    }

    fn expr(&mut self, e: &CExpr) -> ExprId {
        let lowered = match e {
            CExpr::Num(n) => BExpr::Num(*n),
            CExpr::Eoi => BExpr::Eoi,
            CExpr::Local(sym) => BExpr::Local(*sym),
            CExpr::Bin(op, a, b) => {
                let a = self.expr(a);
                let b = self.expr(b);
                BExpr::Bin(*op, a, b)
            }
            CExpr::Cond(c, t, f) => {
                let c = self.expr(c);
                let t = self.expr(t);
                let f = self.expr(f);
                BExpr::Cond(c, t, f)
            }
            CExpr::NtAttr { term, nt, attr } => {
                BExpr::NtAttr { slot: *term as u16, nt: *nt, attr: *attr }
            }
            CExpr::ElemAttr { term, nt, index, attr } => {
                let index = self.expr(index);
                BExpr::ElemAttr { slot: *term as u16, nt: *nt, index, attr: *attr }
            }
            CExpr::OuterAttr { nt, attr } => BExpr::OuterAttr { nt: *nt, attr: *attr },
            CExpr::OuterElem { nt, index, attr } => {
                let index = self.expr(index);
                BExpr::OuterElem { nt: *nt, index, attr: *attr }
            }
            CExpr::Exists { var, term, nt, cond, then, els } => {
                let cond = self.expr(cond);
                let then = self.expr(then);
                let els = self.expr(els);
                BExpr::Exists { var: *var, slot: term.map(|t| t as u16), nt: *nt, cond, then, els }
            }
        };
        self.push_expr(lowered)
    }
}

impl Program {
    /// The start nonterminal the program was compiled for.
    pub fn start_nt(&self) -> NtId {
        self.start
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of instructions across all alternatives.
    pub fn instr_count(&self) -> usize {
        self.code.len()
    }

    /// Pre-sizing hints for the VM's per-parse allocations, derived from
    /// compile-time program statistics: the frame stack from the static
    /// call-graph nesting, the arena pools from the instruction count.
    /// Hints are capacities, not limits — deep recursion and large inputs
    /// still grow the vectors; the clamps keep small grammars from
    /// over-allocating per parse.
    pub fn size_hints(&self) -> SizeHints {
        let nesting = self.static_nesting();
        let instrs = self.code.len();
        SizeHints {
            frames: (nesting + 8).min(128),
            nodes: instrs.clamp(32, 512),
            leaves: instrs.clamp(32, 512),
            children: (2 * instrs).clamp(64, 1024),
            shifts: instrs.clamp(32, 512),
        }
    }

    /// Longest acyclic call chain from the start rule (recursive cycles
    /// contribute one traversal; their true depth is input-dependent).
    fn static_nesting(&self) -> usize {
        fn depth_of(p: &Program, nt: usize, memo: &mut [u32], on_path: &mut [bool]) -> u32 {
            if memo[nt] != u32::MAX {
                return memo[nt];
            }
            if on_path[nt] {
                return 0;
            }
            on_path[nt] = true;
            let mut best = 0;
            if let PRuleKind::Alts { first, count } = p.rules[nt].kind {
                for alt in &p.alts[first as usize..(first + count) as usize] {
                    for instr in &p.code[alt.first as usize..(alt.first + alt.count) as usize] {
                        match *instr {
                            Instr::Call { nt: c, .. }
                            | Instr::Loop { nt: c, .. }
                            | Instr::Star { nt: c, .. } => {
                                best = best.max(1 + depth_of(p, c.0 as usize, memo, on_path));
                            }
                            Instr::Switch { first, count, .. } => {
                                for case in
                                    &p.cases[first as usize..(first + count as u32) as usize]
                                {
                                    best = best
                                        .max(1 + depth_of(p, case.nt.0 as usize, memo, on_path));
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            on_path[nt] = false;
            memo[nt] = best;
            best
        }
        let mut memo = vec![u32::MAX; self.rules.len()];
        let mut on_path = vec![false; self.rules.len()];
        1 + depth_of(self, self.start.0 as usize, &mut memo, &mut on_path) as usize
    }

    /// The shared nonterminal name table (also carried by every
    /// [`crate::arena::TreeArena`] this program produces).
    pub(crate) fn nt_table(&self) -> Arc<NtTable> {
        self.nt_table.clone()
    }

    fn nt_name(&self, nt: NtId) -> &str {
        &self.nt_table.names[nt.0 as usize]
    }

    /// Renders a human-readable listing of the whole program.
    ///
    /// The output is deterministic for a given grammar; the snapshot tests
    /// pin it so that lowering changes show up as reviewable diffs.
    pub fn disassemble(&self, g: &Grammar) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "; program `{}`: {} rules, {} alts, {} instrs, {} exprs, {} cases, {} lit bytes",
            g.nt_name(self.start),
            self.rules.len(),
            self.alts.len(),
            self.code.len(),
            self.exprs.len(),
            self.cases.len(),
            self.lits.len()
        );
        for (i, rule) in self.rules.iter().enumerate() {
            let nt = NtId(i as u32);
            let local = if rule.is_local { " (local)" } else { "" };
            match rule.kind {
                PRuleKind::Builtin(b) => {
                    let _ = writeln!(s, "rule {i} {}{local} := builtin {b}", self.nt_name(nt));
                }
                PRuleKind::Blackbox(idx) => {
                    let name =
                        g.blackboxes().get(idx as usize).map(|bb| bb.name.as_str()).unwrap_or("?");
                    let _ = writeln!(
                        s,
                        "rule {i} {}{local} := blackbox #{idx} ({name})",
                        self.nt_name(nt)
                    );
                }
                PRuleKind::Alts { first, count } => {
                    let _ = writeln!(s, "rule {i} {}{local}:", self.nt_name(nt));
                    for a in first..first + count {
                        let alt = self.alts[a as usize];
                        let _ = writeln!(s, "  alt {} [slots={}]:", a - first, alt.n_slots);
                        for pc in alt.first..alt.first + alt.count {
                            let _ = writeln!(
                                s,
                                "    {pc:04}  {}",
                                self.render_instr(g, self.code[pc as usize])
                            );
                        }
                    }
                }
            }
        }
        s
    }

    fn render_instr(&self, g: &Grammar, instr: Instr) -> String {
        match instr {
            Instr::Match { lit, lo, hi, slot } => {
                let bytes = &self.lits[lit.start as usize..(lit.start + lit.len) as usize];
                format!(
                    "match {}[{}, {}] -> s{slot}",
                    crate::interp::preview(bytes),
                    self.render_expr(g, lo),
                    self.render_expr(g, hi)
                )
            }
            Instr::Call { nt, lo, hi, slot } => format!(
                "call {}[{}, {}] -> s{slot}",
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Set { attr, expr } => {
                format!("set {} = {}", g.attr_name(attr), self.render_expr(g, expr))
            }
            Instr::Guard { expr } => format!("guard {}", self.render_expr(g, expr)),
            Instr::Loop { var, from, to, nt, lo, hi, slot } => format!(
                "loop {} = {} to {} do {}[{}, {}] -> s{slot}",
                g.attr_name(var),
                self.render_expr(g, from),
                self.render_expr(g, to),
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Star { nt, lo, hi, slot } => format!(
                "star {}[{}, {}] -> s{slot}",
                self.nt_name(nt),
                self.render_expr(g, lo),
                self.render_expr(g, hi)
            ),
            Instr::Switch { first, count, slot } => {
                let mut s = format!("switch -> s{slot}");
                for case in &self.cases[first as usize..(first + count as u32) as usize] {
                    let target = format!(
                        "{}[{}, {}]",
                        self.nt_name(case.nt),
                        self.render_expr(g, case.lo),
                        self.render_expr(g, case.hi)
                    );
                    match case.cond {
                        Some(c) => {
                            let _ = write!(
                                s,
                                "\n            case {} => {target}",
                                self.render_expr(g, c)
                            );
                        }
                        None => {
                            let _ = write!(s, "\n            default => {target}");
                        }
                    }
                }
                s
            }
        }
    }

    fn render_expr(&self, g: &Grammar, e: ExprId) -> String {
        match self.exprs[e.0 as usize] {
            BExpr::Num(n) => n.to_string(),
            BExpr::Eoi => "EOI".into(),
            BExpr::Local(sym) => g.attr_name(sym).to_owned(),
            BExpr::Bin(op, a, b) => {
                format!("({} {op} {})", self.render_expr(g, a), self.render_expr(g, b))
            }
            BExpr::Cond(c, t, f) => format!(
                "({} ? {} : {})",
                self.render_expr(g, c),
                self.render_expr(g, t),
                self.render_expr(g, f)
            ),
            BExpr::NtAttr { slot, nt, attr } => {
                format!("s{slot}:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::ElemAttr { slot, nt, index, attr } => format!(
                "s{slot}:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::OuterAttr { nt, attr } => {
                format!("outer:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::OuterElem { nt, index, attr } => format!(
                "outer:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::Exists { var, slot, nt, cond, then, els } => {
                let arr = match slot {
                    Some(sl) => format!("s{sl}:{}", self.nt_name(nt)),
                    None => format!("outer:{}", self.nt_name(nt)),
                };
                format!(
                    "(exists {} in {arr}. {} ? {} : {})",
                    g.attr_name(var),
                    self.render_expr(g, cond),
                    self.render_expr(g, then),
                    self.render_expr(g, els)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::parse_grammar;

    fn fig2() -> Grammar {
        parse_grammar(
            r#"
            S -> H[0, 8] Data[H.offset, H.offset + H.length];
            H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
            Int := u32le;
            Data := bytes;
            "#,
        )
        .unwrap()
    }

    #[test]
    fn compiles_fig2_to_flat_program() {
        let g = fig2();
        let p = compile(&g);
        assert_eq!(p.rule_count(), 4);
        // S has one alternative with two calls; H has four terms.
        assert_eq!(p.alts.len(), 2);
        assert_eq!(p.instr_count(), 6);
        assert!(matches!(p.rules[g.nt_id("Int").unwrap().0 as usize].kind, PRuleKind::Builtin(_)));
    }

    #[test]
    fn disassembly_is_deterministic_and_readable() {
        let g = fig2();
        let p = compile(&g);
        let d1 = p.disassemble(&g);
        let d2 = compile(&g).disassemble(&g);
        assert_eq!(d1, d2);
        assert!(d1.contains("call H[0, 8] -> s0"), "got:\n{d1}");
        assert!(d1.contains("set offset = s0:Int.val"), "got:\n{d1}");
        assert!(d1.contains(":= builtin u32le"), "got:\n{d1}");
    }
}
