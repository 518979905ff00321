//! Function dependency order and transaction-sequence planning.
//!
//! From the data-flow facts we relate `f1 -> f2` whenever `f1` writes a
//! state variable that `f2` reads. Ordering functions along this relation
//! gives the base transaction sequence (writers before readers); the
//! sequence-aware *mutation* then duplicates the functions that carry a RAW
//! dependency feeding a branch condition (paper §IV-A).
//!
//! Functions are identified by name: two declarations with one name are one
//! node of the relation. [`plan_sequence`] numbers the names once,
//! intersects the write and read sets of every ordered pair of declarations
//! once to give each name its predecessor names' numbers, and then orders in
//! one round per function. A round rescans the unplaced functions'
//! predecessor lists, so ordering is quadratic in the number of functions
//! (times their predecessors) and compares no strings.

use crate::dataflow::{DataFlowInfo, FunctionAccess};
use std::collections::{BTreeSet, HashMap};

/// The state variables `writer` writes and `reader` reads: the labels of the
/// edge `writer -> reader`, none when the two share a name.
fn shared_vars<'a>(
    writer: &'a FunctionAccess,
    reader: &'a FunctionAccess,
) -> impl Iterator<Item = &'a String> {
    (writer.name != reader.name)
        .then(|| writer.writes.intersection(&reader.reads))
        .into_iter()
        .flatten()
}

/// Function names numbered by first declaration: `ids[i]` is the index of
/// the first node named like node `i`.
struct NameIds<'a> {
    ids: Vec<usize>,
    first: HashMap<&'a str, usize>,
}

impl<'a> NameIds<'a> {
    fn new(names: impl Iterator<Item = &'a str>) -> NameIds<'a> {
        let mut first = HashMap::new();
        let ids = names
            .enumerate()
            .map(|(i, name)| *first.entry(name).or_insert(i))
            .collect();
        NameIds { ids, first }
    }

    /// The number of `name`, if a node carries it.
    fn of(&self, name: &str) -> Option<usize> {
        self.first.get(name).copied()
    }
}

/// Order the nodes writers first. `ids[i]` numbers node `i`'s name and
/// `preds[id]` lists the numbers of the names with an edge into name `id`,
/// each once. Each round places the unplaced node with the fewest
/// predecessor names that an unplaced node still carries, the earliest
/// declared on ties (which also breaks cycles).
fn dependency_order(ids: &[usize], preds: &[Vec<usize>]) -> Vec<usize> {
    let mut unplaced_named = vec![0usize; ids.len()];
    for &id in ids {
        unplaced_named[id] += 1;
    }
    let mut placed = vec![false; ids.len()];
    let mut order = Vec::with_capacity(ids.len());
    for _ in 0..ids.len() {
        let mut best = None;
        let mut best_deg = usize::MAX;
        for node in (0..ids.len()).filter(|&node| !placed[node]) {
            let deg = preds[ids[node]]
                .iter()
                .filter(|&&p| unplaced_named[p] > 0)
                .count();
            if deg < best_deg {
                best_deg = deg;
                best = Some(node);
            }
        }
        let node = best.expect("an unplaced node remains every round");
        placed[node] = true;
        unplaced_named[ids[node]] -= 1;
        order.push(node);
    }
    order
}

/// The planned transaction sequence for a contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SequencePlan {
    /// Base sequence: function names ordered writers-before-readers
    /// (the constructor is implicit and always first).
    pub base_order: Vec<String>,
    /// Functions eligible for repetition (RAW dependency feeding a branch).
    pub repeat_candidates: BTreeSet<String>,
    /// The mutated sequence with repeated functions inserted before their
    /// dependent readers.
    pub mutated_order: Vec<String>,
}

impl SequencePlan {
    /// Number of calls in the mutated sequence.
    pub fn len(&self) -> usize {
        self.mutated_order.len()
    }

    /// True if the plan contains no callable functions.
    pub fn is_empty(&self) -> bool {
        self.mutated_order.is_empty()
    }
}

/// Derive the sequence plan for a contract's data-flow facts.
pub fn plan_sequence(info: &DataFlowInfo) -> SequencePlan {
    let functions = &info.functions;
    let names = NameIds::new(functions.iter().map(|f| f.name.as_str()));
    // A name's facts are those of its first declaration, as in
    // `DataFlowInfo::function`.
    let facts = |id: usize| &functions[id];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); functions.len()];
    for (r, reader) in functions.iter().enumerate() {
        for (w, writer) in functions.iter().enumerate() {
            let (r, w) = (names.ids[r], names.ids[w]);
            if shared_vars(writer, reader).next().is_some() && !preds[r].contains(&w) {
                preds[r].push(w);
            }
        }
    }
    // Functions that touch no state still get fuzzed, but they are appended at
    // the end of the sequence (the paper ignores them for ordering purposes).
    let (stateful, stateless): (Vec<usize>, Vec<usize>) = dependency_order(&names.ids, &preds)
        .into_iter()
        .map(|node| names.ids[node])
        .partition(|&id| facts(id).touches_state);
    let mut base = stateful;
    base.extend(stateless);

    let repeat_candidates = info.repeat_candidates();

    // Sequence mutation: duplicate each repeat candidate immediately before
    // the last function (after its own position) that reads a variable the
    // candidate writes.
    let mut mutated = base.clone();
    for candidate in repeat_candidates.iter().filter_map(|name| names.of(name)) {
        let Some(cand_pos) = mutated.iter().position(|&id| id == candidate) else {
            continue;
        };
        let cand_writes = &facts(candidate).writes;
        let after = cand_pos + 1;
        let insert_at = mutated[after..]
            .iter()
            .rposition(|&id| id != candidate && !cand_writes.is_disjoint(&facts(id).reads))
            .map(|i| after + i);
        match insert_at {
            Some(i) => mutated.insert(i, candidate),
            None => mutated.push(candidate),
        }
    }

    let to_names = |ids: Vec<usize>| ids.into_iter().map(|id| facts(id).name.clone()).collect();
    SequencePlan {
        base_order: to_names(base),
        repeat_candidates,
        mutated_order: to_names(mutated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{analyze_contract, FunctionAccess};
    use mufuzz_lang::parse_contract_source;

    const CROWDSALE: &str = r#"
        contract Crowdsale {
            uint256 phase = 0;
            uint256 goal;
            uint256 invested;
            address owner;
            mapping(address => uint256) invests;
            constructor() public { goal = 100 ether; invested = 0; owner = msg.sender; }
            function invest(uint256 donations) public payable {
                if (invested < goal) {
                    invests[msg.sender] += donations;
                    invested += donations;
                    phase = 0;
                } else { phase = 1; }
            }
            function refund() public {
                if (phase == 0) {
                    msg.sender.transfer(invests[msg.sender]);
                    invests[msg.sender] = 0;
                }
            }
            function withdraw() public {
                if (phase == 1) { bug(); owner.transfer(invested); }
            }
        }
    "#;

    fn plan() -> SequencePlan {
        plan_sequence(&analyze_contract(
            &parse_contract_source(CROWDSALE).unwrap(),
        ))
    }

    #[test]
    fn base_order_places_invest_first_and_withdraw_last() {
        let plan = plan();
        let pos = |name: &str| plan.base_order.iter().position(|n| n == name).unwrap();
        assert!(pos("invest") < pos("refund"));
        assert!(pos("invest") < pos("withdraw"));
        assert_eq!(plan.base_order.len(), 3);
    }

    #[test]
    fn mutated_order_repeats_invest_before_withdraw() {
        // This reproduces the paper's motivating sequence:
        // [invest, refund, invest, withdraw].
        let plan = plan();
        assert!(plan.repeat_candidates.contains("invest"));
        let invest_count = plan
            .mutated_order
            .iter()
            .filter(|n| n.as_str() == "invest")
            .count();
        assert_eq!(invest_count, 2);
        // The duplicated invest appears after the first and before withdraw.
        let last_invest = plan
            .mutated_order
            .iter()
            .rposition(|n| n == "invest")
            .unwrap();
        let withdraw = plan
            .mutated_order
            .iter()
            .position(|n| n == "withdraw")
            .unwrap();
        assert!(last_invest < withdraw);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn writers_declared_after_their_readers_still_come_first() {
        let src = r#"
            contract C {
                uint256 x;
                uint256 y;
                function readY() public returns (uint256) { return y; }
                function readX() public returns (uint256) { return x; }
                function copyX() public { y = x; }
                function setX(uint256 v) public { x = v; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        let plan = plan_sequence(&info);
        assert_eq!(plan.base_order, vec!["setX", "readX", "copyX", "readY"]);
    }

    #[test]
    fn stateless_functions_go_last() {
        let src = r#"
            contract C {
                uint256 x;
                function pureMath(uint256 a) public returns (uint256) { return a * 2; }
                function setX(uint256 v) public { x = v; }
                function readX() public returns (uint256) { return x; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        let plan = plan_sequence(&info);
        assert_eq!(plan.base_order.last().unwrap(), "pureMath");
        let pos = |name: &str| plan.base_order.iter().position(|n| n == name).unwrap();
        assert!(pos("setX") < pos("readX"));
    }

    #[test]
    fn contracts_without_dependencies_keep_declaration_order() {
        let src = r#"
            contract C {
                uint256 a;
                uint256 b;
                function setA(uint256 v) public { a = v; }
                function setB(uint256 v) public { b = v; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        let plan = plan_sequence(&info);
        assert_eq!(
            plan.base_order,
            vec!["setA".to_string(), "setB".to_string()]
        );
        assert!(plan.repeat_candidates.is_empty());
        assert_eq!(plan.base_order, plan.mutated_order);
    }

    #[test]
    fn a_repeated_name_takes_its_first_declarations_facts() {
        let access = |name: &str, reads: &[&str], writes: &[&str]| FunctionAccess {
            name: name.into(),
            reads: reads.iter().map(|v| v.to_string()).collect(),
            writes: writes.iter().map(|v| v.to_string()).collect(),
            raw_vars: writes.iter().map(|v| v.to_string()).collect(),
            touches_state: !reads.is_empty() || !writes.is_empty(),
            ..Default::default()
        };
        let info = DataFlowInfo {
            functions: vec![
                access("f", &[], &[]),
                access("g", &["a"], &[]),
                access("f", &[], &["a"]),
            ],
            state_vars: BTreeSet::from(["a".into()]),
            branch_read_vars: BTreeSet::from(["a".into()]),
        };
        // The second `f` writes `a` for `g`, so both `f`s are ordered before
        // `g`; but the first `f` touches no state, so the plan moves both
        // last, and the repeated `f` writes nothing `g` reads, so it goes at
        // the end.
        let plan = plan_sequence(&info);
        assert_eq!(plan.base_order, vec!["g", "f", "f"]);
        assert_eq!(plan.mutated_order, vec!["g", "f", "f", "f"]);
    }

    #[test]
    fn cyclic_dependencies_still_produce_a_total_order() {
        let src = r#"
            contract C {
                uint256 a;
                uint256 b;
                function f() public { a = b + 1; }
                function g() public { b = a + 1; }
            }
        "#;
        let info = analyze_contract(&parse_contract_source(src).unwrap());
        let plan = plan_sequence(&info);
        assert_eq!(plan.base_order.len(), 2);
        assert!(!plan.is_empty());
    }
}
