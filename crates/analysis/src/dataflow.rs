//! State-variable data-flow analysis over the AST.
//!
//! This is the information source for MuFuzz's sequence-aware mutation
//! (paper §IV-A): for each function we compute which state variables it reads
//! and writes, which of them are read inside branch conditions, and which have
//! a read-after-write (RAW) dependency *within the function itself* (e.g.
//! `invested += donations` both reads and writes `invested`).

use mufuzz_lang::{Contract, Expr, Function, LValue, Stmt, Type};
use std::collections::{BTreeMap, BTreeSet};

/// Read/write facts for one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionAccess {
    /// Function name.
    pub name: String,
    /// State variables read anywhere in the function.
    pub reads: BTreeSet<String>,
    /// State variables written anywhere in the function.
    pub writes: BTreeSet<String>,
    /// State variables read inside a branch condition (`if`, `while`,
    /// `require`) of this function.
    pub branch_reads: BTreeSet<String>,
    /// State variables with a read-after-write dependency inside this
    /// function: the variable is written by an expression that reads the same
    /// variable (directly or via a compound assignment).
    pub raw_vars: BTreeSet<String>,
    /// Whether the function touches any state variable at all.
    pub touches_state: bool,
    /// Whether the function is payable (can receive ether).
    pub payable: bool,
}

/// Data-flow facts for a whole contract.
#[derive(Clone, Debug, Default)]
pub struct DataFlowInfo {
    /// Per-function facts, in declaration order.
    pub functions: Vec<FunctionAccess>,
    /// All state variable names.
    pub state_vars: BTreeSet<String>,
    /// State variables read in *any* branch condition of the contract.
    pub branch_read_vars: BTreeSet<String>,
}

impl DataFlowInfo {
    /// Facts for a specific function.
    pub fn function(&self, name: &str) -> Option<&FunctionAccess> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Functions that repetition should be considered for (paper §IV-A): the
    /// function has a RAW dependency on a state variable `V` within itself and
    /// `V` is read by one of the branch statements of the contract.
    pub fn repeat_candidates(&self) -> BTreeSet<String> {
        self.functions
            .iter()
            .filter(|f| f.raw_vars.iter().any(|v| self.branch_read_vars.contains(v)))
            .map(|f| f.name.clone())
            .collect()
    }

    /// Map from state variable to the functions that write it.
    pub fn writers(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &self.functions {
            for v in &f.writes {
                map.entry(v.clone()).or_default().insert(f.name.clone());
            }
        }
        map
    }

    /// Map from state variable to the functions that read it.
    pub fn readers(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut map: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &self.functions {
            for v in &f.reads {
                map.entry(v.clone()).or_default().insert(f.name.clone());
            }
        }
        map
    }
}

/// Analyse a contract's data flow.
pub fn analyze_contract(contract: &Contract) -> DataFlowInfo {
    let state_vars: BTreeSet<String> = contract.state_vars.iter().map(|v| v.name.clone()).collect();

    let mut functions = Vec::new();
    for f in contract.callable_functions() {
        if f.name.is_empty() {
            continue;
        }
        functions.push(analyze_function(f, &state_vars));
    }

    let branch_read_vars = functions
        .iter()
        .flat_map(|f| f.branch_reads.iter().cloned())
        .collect();

    DataFlowInfo {
        functions,
        state_vars,
        branch_read_vars,
    }
}

/// Analyse one function.
pub fn analyze_function(f: &Function, state_vars: &BTreeSet<String>) -> FunctionAccess {
    let mut access = FunctionAccess {
        name: f.name.clone(),
        payable: f.payable,
        ..Default::default()
    };
    analyze_block(&f.body, state_vars, &mut access);
    access.touches_state = !access.reads.is_empty() || !access.writes.is_empty();
    access
}

fn analyze_block(block: &[Stmt], state_vars: &BTreeSet<String>, out: &mut FunctionAccess) {
    for stmt in block {
        analyze_stmt(stmt, state_vars, out);
    }
}

/// Fold one statement's facts into `out`. Reads are collected as names
/// borrowed from the AST; a name is copied only when it first enters one of
/// `out`'s sets.
fn analyze_stmt(stmt: &Stmt, state_vars: &BTreeSet<String>, out: &mut FunctionAccess) {
    let mut reads = BTreeSet::new();
    match stmt {
        Stmt::Local(_, _, init) => collect_reads(init, state_vars, &mut reads),
        Stmt::Assign(lvalue, op, value) => {
            let target = lvalue.base_name();
            collect_reads(value, state_vars, &mut reads);
            // A mapping index expression also reads state used in the key.
            if let LValue::Index(_, key) = lvalue {
                collect_reads(key, state_vars, &mut reads);
            }
            if state_vars.contains(target) {
                insert_name(&mut out.writes, target);
                // Compound assignments read the target; an explicit
                // self-reference on the right-hand side also counts.
                let compound = !matches!(op, mufuzz_lang::AssignOp::Assign);
                if compound || reads.contains(target) {
                    insert_name(&mut out.raw_vars, target);
                }
                if compound {
                    insert_name(&mut out.reads, target);
                }
            }
        }
        Stmt::If(cond, then_block, else_block) => {
            collect_reads(cond, state_vars, &mut reads);
            extend_names(&mut out.branch_reads, &reads);
            analyze_block(then_block, state_vars, out);
            analyze_block(else_block, state_vars, out);
        }
        Stmt::While(cond, body) => {
            collect_reads(cond, state_vars, &mut reads);
            extend_names(&mut out.branch_reads, &reads);
            analyze_block(body, state_vars, out);
        }
        Stmt::Require(cond) => {
            collect_reads(cond, state_vars, &mut reads);
            extend_names(&mut out.branch_reads, &reads);
        }
        Stmt::Transfer(to, amount) => {
            collect_reads(to, state_vars, &mut reads);
            collect_reads(amount, state_vars, &mut reads);
        }
        Stmt::ExprStmt(e) | Stmt::SelfDestruct(e) => collect_reads(e, state_vars, &mut reads),
        Stmt::Return(Some(e)) => collect_reads(e, state_vars, &mut reads),
        Stmt::Return(None) | Stmt::BugMarker => {}
    }
    extend_names(&mut out.reads, &reads);
}

/// Add `name` to `set`, allocating only when it is not there yet.
fn insert_name(set: &mut BTreeSet<String>, name: &str) {
    if !set.contains(name) {
        set.insert(name.to_owned());
    }
}

/// Add every borrowed name to `set` (see [`insert_name`]).
fn extend_names(set: &mut BTreeSet<String>, names: &BTreeSet<&str>) {
    for name in names {
        insert_name(set, name);
    }
}

/// Collect the state variables read by an expression.
fn collect_reads<'a>(expr: &'a Expr, state_vars: &BTreeSet<String>, out: &mut BTreeSet<&'a str>) {
    match expr {
        Expr::Ident(name) => {
            if state_vars.contains(name) {
                out.insert(name);
            }
        }
        Expr::Index(base, key) => {
            collect_reads(base, state_vars, out);
            collect_reads(key, state_vars, out);
        }
        Expr::Binary(_, lhs, rhs) => {
            collect_reads(lhs, state_vars, out);
            collect_reads(rhs, state_vars, out);
        }
        Expr::Not(inner) | Expr::BalanceOf(inner) | Expr::Cast(_, inner) => {
            collect_reads(inner, state_vars, out)
        }
        Expr::Keccak(args) => {
            for a in args {
                collect_reads(a, state_vars, out);
            }
        }
        Expr::Send(to, amount) | Expr::CallValue(to, amount) => {
            collect_reads(to, state_vars, out);
            collect_reads(amount, state_vars, out);
        }
        Expr::DelegateCall(to, args) => {
            collect_reads(to, state_vars, out);
            for a in args {
                collect_reads(a, state_vars, out);
            }
        }
        Expr::Number(_) | Expr::Bool(_) | Expr::Env(_) => {}
    }
}

/// True if the function's parameters are all value types (mappings cannot be
/// ABI-encoded). Exposed for corpus sanity checks.
pub fn has_encodable_params(f: &Function) -> bool {
    f.params
        .iter()
        .all(|p| !matches!(p.ty, Type::Mapping(_, _)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mufuzz_lang::parse_contract_source;

    const CROWDSALE: &str = r#"
        contract Crowdsale {
            uint256 phase = 0;
            uint256 goal;
            uint256 invested;
            address owner;
            mapping(address => uint256) invests;

            constructor() public {
                goal = 100 ether;
                invested = 0;
                owner = msg.sender;
            }
            function invest(uint256 donations) public payable {
                if (invested < goal) {
                    invests[msg.sender] += donations;
                    invested += donations;
                    phase = 0;
                } else {
                    phase = 1;
                }
            }
            function refund() public {
                if (phase == 0) {
                    msg.sender.transfer(invests[msg.sender]);
                    invests[msg.sender] = 0;
                }
            }
            function withdraw() public {
                if (phase == 1) {
                    bug();
                    owner.transfer(invested);
                }
            }
        }
    "#;

    fn info() -> DataFlowInfo {
        analyze_contract(&parse_contract_source(CROWDSALE).unwrap())
    }

    #[test]
    fn matches_paper_dependency_graph() {
        // Figure 3 of the paper: invest writes invested/invests/phase and
        // reads goal/invested; refund reads phase/invests and writes invests;
        // withdraw reads phase/invested.
        let info = info();
        let invest = info.function("invest").unwrap();
        assert!(invest.writes.contains("invested"));
        assert!(invest.writes.contains("invests"));
        assert!(invest.writes.contains("phase"));
        assert!(invest.reads.contains("goal"));
        assert!(invest.reads.contains("invested"));

        let refund = info.function("refund").unwrap();
        assert!(refund.reads.contains("phase"));
        assert!(refund.reads.contains("invests"));
        assert!(refund.writes.contains("invests"));

        let withdraw = info.function("withdraw").unwrap();
        assert!(withdraw.reads.contains("phase"));
        assert!(withdraw.reads.contains("invested"));
        assert!(withdraw.writes.is_empty());
    }

    #[test]
    fn detects_raw_dependency_on_invested() {
        let info = info();
        let invest = info.function("invest").unwrap();
        assert!(invest.raw_vars.contains("invested"));
        assert!(invest.raw_vars.contains("invests"));
        // phase = 0 / 1 are plain writes, not RAW.
        assert!(!invest.raw_vars.contains("phase"));
    }

    #[test]
    fn branch_reads_include_condition_variables() {
        let info = info();
        let invest = info.function("invest").unwrap();
        assert!(invest.branch_reads.contains("invested"));
        assert!(invest.branch_reads.contains("goal"));
        let withdraw = info.function("withdraw").unwrap();
        assert!(withdraw.branch_reads.contains("phase"));
        assert!(info.branch_read_vars.contains("invested"));
    }

    #[test]
    fn repeat_candidates_single_out_invest() {
        // invest has a RAW dependency on `invested`, and `invested` is read in
        // a branch condition — exactly the paper's criterion for repetition.
        let info = info();
        let candidates = info.repeat_candidates();
        assert!(candidates.contains("invest"));
        assert!(!candidates.contains("refund"));
        assert!(!candidates.contains("withdraw"));
    }

    #[test]
    fn writers_and_readers_maps() {
        let info = info();
        let writers = info.writers();
        assert!(writers["phase"].contains("invest"));
        let readers = info.readers();
        assert!(readers["phase"].contains("refund"));
        assert!(readers["phase"].contains("withdraw"));
    }

    #[test]
    fn functions_without_state_are_flagged() {
        let src = r#"
            contract Pure {
                uint256 counter;
                function noop(uint256 x) public returns (uint256) { return x + 1; }
                function bump() public { counter += 1; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        assert!(!info.function("noop").unwrap().touches_state);
        assert!(info.function("bump").unwrap().touches_state);
    }

    #[test]
    fn explicit_self_reference_counts_as_raw() {
        let src = r#"
            contract C {
                uint256 total;
                function add(uint256 x) public { total = total + x; }
                function reset() public { total = 0; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        assert!(info.function("add").unwrap().raw_vars.contains("total"));
        assert!(info.function("reset").unwrap().raw_vars.is_empty());
    }

    #[test]
    fn while_and_require_conditions_count_as_branch_reads() {
        let src = r#"
            contract C {
                uint256 limit;
                uint256 count;
                function run(uint256 n) public {
                    require(count < limit);
                    while (count < n) { count += 1; }
                }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        let run = info.function("run").unwrap();
        assert!(run.branch_reads.contains("limit"));
        assert!(run.branch_reads.contains("count"));
        assert!(run.raw_vars.contains("count"));
    }

    #[test]
    fn encodable_params_check() {
        let contract = parse_contract_source(CROWDSALE).unwrap();
        assert!(has_encodable_params(contract.function("invest").unwrap()));
    }
}
