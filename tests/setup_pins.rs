//! Pins the outputs of the campaign set-up analyses.
//!
//! Before a campaign starts it builds the contract's control-flow graph
//! (branch enumeration, nesting depth, vulnerable-instruction
//! reachability), plans its transaction sequence from the data-flow facts
//! and harvests the `PUSH` constants into the mutation value pool. Every
//! campaign number downstream depends on these outputs, so a rewrite of
//! the analyses must reproduce them exactly. This suite digests them for
//! the corpus contracts and for seeded random byte strings, and compares
//! the digests with constants captured from the original implementations.
//!
//! Digested per input:
//! * every CFG block: start, end, successors and `is_branch`;
//! * every branch site: pc, taken target, fall-through, nesting depth and
//!   reachable vulnerable pcs;
//! * the CFG's vulnerable pcs;
//! * the sequence plan's base order, repeat candidates and mutated order
//!   (compiled contracts only);
//! * the `Debug` form of the harvested value pool.

use mufuzz::InterestingValues;
use mufuzz_analysis::{analyze_contract, plan_sequence, ControlFlowGraph};
use mufuzz_corpus::{d1_large, d1_small, d2, BenchContract};
use mufuzz_lang::compile_source;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use random_code::random_code;

#[path = "support/random_code.rs"]
mod random_code;

/// Random byte strings in the random-code group.
const RANDOM_CODES: usize = 200;

/// FNV-1a over a stream of length-prefixed fields.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.num(s.len());
        self.bytes(s.as_bytes());
    }

    fn strs<'a>(&mut self, items: impl ExactSizeIterator<Item = &'a String>) {
        self.num(items.len());
        for s in items {
            self.str(s);
        }
    }

    fn nums(&mut self, items: impl ExactSizeIterator<Item = usize>) {
        self.num(items.len());
        for v in items {
            self.num(v);
        }
    }
}

/// The digests of one group of inputs.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    cfg: u64,
    plan: u64,
    pool: u64,
}

fn digest_cfg(d: &mut Digest, code: &[u8]) {
    let cfg = ControlFlowGraph::build(code);
    d.num(cfg.blocks.len());
    for (&start, block) in &cfg.blocks {
        d.num(start);
        d.num(block.start);
        d.num(block.end);
        d.nums(block.successors.iter().copied());
        d.num(usize::from(block.is_branch));
    }
    d.num(cfg.branches.len());
    for (&pc, site) in &cfg.branches {
        d.num(pc);
        d.num(site.pc);
        match site.taken_target {
            Some(t) => {
                d.num(1);
                d.num(t);
            }
            None => d.num(0),
        }
        d.num(site.fallthrough);
        d.num(site.nesting_depth);
        d.nums(site.reachable_vulnerable.iter().copied());
    }
    d.nums(cfg.vulnerable_pcs.iter().copied());
}

fn digest_pool(d: &mut Digest, code: &[u8]) {
    d.str(&format!("{:?}", InterestingValues::harvest(code)));
}

fn contract_pins(contracts: &[BenchContract]) -> Pins {
    let (mut cfg, mut plan, mut pool) = (Digest::new(), Digest::new(), Digest::new());
    for bench in contracts {
        let compiled = compile_source(&bench.source)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", bench.name));
        digest_cfg(&mut cfg, &compiled.runtime);
        let p = plan_sequence(&analyze_contract(&compiled.contract));
        plan.strs(p.base_order.iter());
        plan.strs(p.repeat_candidates.iter());
        plan.strs(p.mutated_order.iter());
        digest_pool(&mut pool, &compiled.runtime);
    }
    Pins {
        cfg: cfg.0,
        plan: plan.0,
        pool: pool.0,
    }
}

fn random_pins() -> Pins {
    let mut rng = SmallRng::seed_from_u64(0x5e70_9175);
    let (mut cfg, mut pool) = (Digest::new(), Digest::new());
    for _ in 0..RANDOM_CODES {
        let code = random_code(&mut rng);
        digest_cfg(&mut cfg, &code);
        digest_pool(&mut pool, &code);
    }
    Pins {
        cfg: cfg.0,
        plan: 0,
        pool: pool.0,
    }
}

#[test]
fn d2_setup_outputs_are_pinned() {
    let pins = contract_pins(&d2(1).contracts);
    assert_eq!(
        pins,
        Pins {
            cfg: 0xcb0a_a9bd_d453_09f4,
            plan: 0x8090_1e3d_0508_d69f,
            pool: 0x03f8_7d8a_dfcf_48f3,
        }
    );
}

#[test]
fn d1_setup_outputs_are_pinned() {
    let pins = contract_pins(&d1_small(4).contracts);
    assert_eq!(
        pins,
        Pins {
            cfg: 0xa983_7379_41d7_6cf2,
            plan: 0x432c_8697_c989_7d93,
            pool: 0xfcac_0da6_d725_f5f8,
        },
        "D1-small"
    );
    let pins = contract_pins(&d1_large(2).contracts);
    assert_eq!(
        pins,
        Pins {
            cfg: 0x6266_9f7c_3689_1bc7,
            plan: 0xf852_68bf_9a01_d5e3,
            pool: 0x38af_ea31_9752_9b7c,
        },
        "D1-large"
    );
}

#[test]
fn random_code_setup_outputs_are_pinned() {
    assert_eq!(
        random_pins(),
        Pins {
            cfg: 0x6d93_7fff_f0e4_81ca,
            plan: 0,
            pool: 0x34d7_8ed8_c883_b95c,
        }
    );
}
