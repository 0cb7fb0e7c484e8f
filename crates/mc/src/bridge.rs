//! Bridge from gate-level netlists to Kripke structures.
//!
//! Primary inputs of the netlist are treated as free (nondeterministic)
//! environment variables, exactly like `VAR`s in an SMV model: a Kripke
//! state is a pair *(flip-flop state, input valuation)* and every state has
//! one successor per input valuation of the next cycle. Every *named* net
//! becomes an atomic proposition, evaluated on the settled combinational
//! valuation of the pair.
//!
//! Fairness constraints are given as net names: the set of pairs where the
//! net is true must recur on fair paths (used for "the environment offers
//! data / accepts data infinitely often" when checking liveness).
//!
//! # Exploration kernel
//!
//! Successors are computed on the same levelized tape that backs every
//! simulation throughput number: [`Program::compile`] run in a 512-lane
//! [`WideSim`], so one settle evaluates 512 (state, input) pairs. The tape
//! is the *unoptimized* one — peephole passes keep only outputs and state
//! exact, while every named net is an atom here.
//!
//! * **Lane layout.** With `combos = 2^inputs` input valuations, lane `l`
//!   carries input bit `b < 9` as `(l >> b) & 1`, a pattern computed once.
//!   When `combos < 512`, lane group `g` (`combos` lanes) carries frontier
//!   state `frontier + g`, so one pass covers `512 / combos` states.
//!   Otherwise one state takes `combos / 512` passes, and input bits
//!   `b ≥ 9` are splatted from the pass index.
//! * **Numbering.** A batch holds only already-discovered states and its
//!   lanes are consumed in (state, combo) order, so every pass covers a
//!   contiguous run of pair ids `state · combos + combo`. New states get
//!   exactly the BFS numbers a pair-at-a-time exploration assigns, and the
//!   state budget trips at the same pair.
//! * **Successors and atoms.** A lane's next state is read from the
//!   flip-flop data slots (for latches, the latch slot itself) and keyed
//!   as packed `u64` words. Each atom's lane words are appended to a
//!   bit-stream over pair ids: one word operation per 64 pairs.

use std::collections::HashMap;

use elastic_netlist::levelize::Program;
use elastic_netlist::wide::{lane_mask, lane_masks, WideSim, LANES};
use elastic_netlist::{Gate, NetId, Netlist};

use crate::bitset::StateSet;
use crate::error::McError;
use crate::kripke::{Kripke, StateId};

/// Lane words of the exploration kernel.
const WORDS: usize = 8;
/// (state, input) pairs evaluated per settle.
const PASS_LANES: usize = WORDS * LANES;
/// Input bits addressed by the lane index; higher bits come from the pass
/// index.
const LANE_BITS: usize = PASS_LANES.trailing_zeros() as usize;

/// One value per lane of a pass.
type Lanes = [u64; WORDS];

/// Budgets for the exhaustive exploration.
#[derive(Debug, Clone, Copy)]
pub struct BridgeOptions {
    /// Maximum number of distinct flip-flop states.
    pub max_ff_states: usize,
    /// Maximum number of primary inputs (the input alphabet is `2^inputs`).
    pub max_inputs: usize,
}

impl Default for BridgeOptions {
    fn default() -> Self {
        BridgeOptions {
            max_ff_states: 1 << 20,
            max_inputs: 14,
        }
    }
}

/// A Kripke structure backed by the reachable state space of a netlist.
#[derive(Debug, Clone)]
pub struct NetlistKripke {
    /// Number of input valuations (`2^k`).
    combos: usize,
    /// Successor flip-flop state per pair, indexed `ff_idx * combos + i`.
    delta: Vec<u32>,
    /// Atom sets over pairs, one per named net.
    atoms: HashMap<String, StateSet>,
    /// Fairness sets over pairs.
    fairness: Vec<StateSet>,
    /// Discovered flip-flop states in BFS order, `key_words` packed words
    /// each (bit `j` is state element `j`).
    ff_states: Vec<u64>,
    key_words: usize,
    /// Names of the state nets and input nets, for descriptions.
    state_names: Vec<String>,
    input_names: Vec<String>,
}

impl NetlistKripke {
    /// Number of distinct flip-flop states discovered.
    pub fn num_ff_states(&self) -> usize {
        self.delta.len() / self.combos
    }

    /// Decomposes a pair id into (flip-flop state index, input index).
    fn split(&self, s: StateId) -> (usize, usize) {
        (s / self.combos, s % self.combos)
    }

    /// Self-stabilization convergence analysis for a netlist carrying
    /// fault-arm inputs (primary inputs named `fault.*`, as spliced by
    /// `elastic_core::compile` for each corruption site).
    ///
    /// The structure's flip-flop states were explored under *all* input
    /// valuations, arms included, so they are exactly the fault-reachable
    /// states. The **legal** set is re-derived as the states reachable
    /// from reset with every arm held low. Convergence then asks: from
    /// every fault-reachable state, does *every* fault-free run (arms low,
    /// environment still adversarial) re-enter the legal set? A state
    /// diverges iff it can start an infinite arm-low run that avoids the
    /// legal set forever — the greatest fixpoint of "outside the legal set
    /// with some arm-low successor still inside the fixpoint". When no
    /// state diverges, the protocol is self-stabilizing in the closure
    /// sense (the legal set is closed under arm-low transitions by
    /// construction) and [`ConvergenceReport::convergence_bound`] is the
    /// worst-case number of fault-free cycles back to legality.
    ///
    /// A netlist without `fault.*` inputs is trivially converging: every
    /// reachable state is legal.
    pub fn convergence_report(&self) -> ConvergenceReport {
        let fault_bits: Vec<usize> = self
            .input_names
            .iter()
            .enumerate()
            .filter(|(_, n)| n.starts_with("fault."))
            .map(|(i, _)| i)
            .collect();
        let arm_mask: usize = fault_bits.iter().map(|&b| 1usize << b).sum();
        let clean: Vec<usize> = (0..self.combos).filter(|c| c & arm_mask == 0).collect();
        let nff = self.num_ff_states();

        // Legal set: BFS from reset over arm-low transitions only.
        let mut legal = vec![false; nff];
        let mut queue = vec![0usize];
        legal[0] = true;
        while let Some(s) = queue.pop() {
            for &c in &clean {
                let t = self.delta[s * self.combos + c] as usize;
                if !legal[t] {
                    legal[t] = true;
                    queue.push(t);
                }
            }
        }
        let legal_count = legal.iter().filter(|&&l| l).count();

        // Backward closure: level[s] = worst-case arm-low cycles until the
        // run is inside the legal set, for every environment choice. A
        // state joins level k+1 once all its arm-low successors sit at
        // level <= k; states that never join can sustain an infinite
        // illegal arm-low run — they diverge.
        let mut level = vec![None::<usize>; nff];
        for (s, &l) in legal.iter().enumerate() {
            if l {
                level[s] = Some(0);
            }
        }
        let mut bound = 0usize;
        loop {
            let mut changed = false;
            for s in 0..nff {
                if level[s].is_some() {
                    continue;
                }
                let worst = clean
                    .iter()
                    .map(|&c| level[self.delta[s * self.combos + c] as usize])
                    .try_fold(0usize, |acc, l| l.map(|l| acc.max(l)));
                if let Some(w) = worst {
                    level[s] = Some(w + 1);
                    bound = bound.max(w + 1);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let diverging = level.iter().filter(|l| l.is_none()).count();
        ConvergenceReport {
            ff_states: nff,
            legal: legal_count,
            diverging,
            converging: diverging == 0,
            convergence_bound: bound,
            fault_inputs: fault_bits.len(),
        }
    }
}

/// Verdict of [`NetlistKripke::convergence_report`]: does the protocol
/// re-enter its legal `(I*R*T)*` state set from every fault-reachable
/// state once the fault arms go quiet?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Fault-reachable flip-flop states (explored under all arm values).
    pub ff_states: usize,
    /// States reachable from reset with every arm held low.
    pub legal: usize,
    /// States from which some fault-free run avoids the legal set forever.
    pub diverging: usize,
    /// `diverging == 0`: the network is self-stabilizing under this fault
    /// set.
    pub converging: bool,
    /// Worst-case fault-free cycles from any fault-reachable state back
    /// into the legal set (0 when every reachable state is legal).
    pub convergence_bound: usize,
    /// Number of `fault.*` arm inputs found.
    pub fault_inputs: usize,
}

/// Explores the reachable states of `netlist` under all input sequences and
/// builds the Kripke structure (see the module docs for the lane layout).
///
/// Every named net becomes an atom; `fairness_nets` lists net names whose
/// truth must recur along fair paths.
///
/// # Errors
///
/// * [`McError::Budget`] when the input count or state budget is exceeded;
/// * [`McError::UnknownAtom`] when a fairness net name does not exist;
/// * [`McError::Netlist`] for netlist construction errors (unbound state,
///   combinational cycles).
pub fn netlist_kripke(
    netlist: &Netlist,
    fairness_nets: &[&str],
    opts: BridgeOptions,
) -> Result<NetlistKripke, McError> {
    let num_inputs = netlist.inputs().len();
    if num_inputs > opts.max_inputs {
        return Err(McError::Budget {
            what: "inputs",
            limit: opts.max_inputs,
        });
    }
    // The alphabet is 2^inputs; a raised `max_inputs` must not turn into a
    // shift-overflow panic once the input count reaches the word width
    // (`1usize << 64` aborts in debug builds). Anything wide enough to
    // overflow the shift is unexplorable anyway, so it is the same typed
    // budget violation.
    let combos = if num_inputs < usize::BITS as usize {
        1usize << num_inputs
    } else {
        return Err(McError::Budget {
            what: "inputs",
            limit: opts.max_inputs.min(usize::BITS as usize - 1),
        });
    };
    let prog = Program::compile(netlist)?;
    let inputs: Vec<_> = netlist.inputs().to_vec();
    let named: Vec<(String, _)> = netlist
        .named_nets()
        .into_iter()
        .map(|(s, n)| (s.to_string(), n))
        .collect();
    for f in fairness_nets {
        if !named.iter().any(|(n, _)| n == f) {
            return Err(McError::UnknownAtom((*f).to_string()));
        }
    }

    let state_nets = prog.state_nets().to_vec();
    // Where each state bit's successor settles: a flip-flop's data input,
    // a latch's own output.
    let next_nets: Vec<NetId> = state_nets
        .iter()
        .map(|&n| match netlist.gate(n) {
            Gate::Dff { d: Some(d), .. } => *d,
            _ => n,
        })
        .collect();
    let key_words = state_nets.len().div_ceil(64);
    let mut ff_states = vec![0u64; key_words];
    for (j, n) in state_nets.iter().enumerate() {
        if prog.init()[n.index()] {
            ff_states[j / 64] |= 1 << (j % 64);
        }
    }
    let mut index: HashMap<Box<[u64]>, u32> = HashMap::new();
    index.insert(ff_states.clone().into_boxed_slice(), 0);
    let mut num_states = 1usize;

    let group = combos.min(PASS_LANES);
    let states_per_pass = PASS_LANES / group;
    let passes_per_state = combos / group;
    let lane_bits: Vec<Lanes> = (0..num_inputs.min(LANE_BITS))
        .map(|b| lane_pattern(|l| l >> b & 1 == 1))
        .collect();
    let group_masks: Vec<Lanes> = (0..states_per_pass)
        .map(|g| lane_pattern(|l| l / group == g))
        .collect();

    let mut sim = WideSim::<WORDS>::from_program(prog);
    let mut state_words: Vec<Lanes> = vec![[0; WORDS]; state_nets.len()];
    let mut next_keys = vec![0u64; PASS_LANES * key_words];
    let mut atom_bits: Vec<PairBits> = named.iter().map(|_| PairBits::default()).collect();
    let mut delta: Vec<u32> = Vec::new();
    let mut frontier = 0usize;
    while frontier < num_states {
        let batch = states_per_pass.min(num_states - frontier);
        let live = batch * group;
        let live_masks = lane_masks::<WORDS>(live);
        state_words.fill([0; WORDS]);
        for (g, mask) in group_masks.iter().enumerate().take(batch) {
            let key = &ff_states[(frontier + g) * key_words..][..key_words];
            for j in set_bits(key) {
                for (s, m) in state_words[j].iter_mut().zip(mask) {
                    *s |= m;
                }
            }
        }
        for pass in 0..passes_per_state {
            // The settle writes transparent latches, which are state, so
            // every pass starts from a fresh load.
            sim.load_state_words(&state_words)?;
            for (b, &inp) in inputs.iter().enumerate() {
                let words = match lane_bits.get(b) {
                    Some(&w) => w,
                    None if pass >> (b - LANE_BITS) & 1 == 1 => [u64::MAX; WORDS],
                    None => [0; WORDS],
                };
                sim.set_input_words(inp, words)?;
            }
            sim.settle();
            for (bits, (_, net)) in atom_bits.iter_mut().zip(&named) {
                bits.append(&lane_words(&sim, *net), live);
            }
            // Transpose the successor bits into one packed key per lane.
            next_keys.fill(0);
            for (j, &net) in next_nets.iter().enumerate() {
                for (w, mask) in live_masks.iter().enumerate() {
                    for k in set_bits(&[sim.word(net, w) & mask]) {
                        next_keys[(w * LANES + k) * key_words + j / 64] |= 1 << (j % 64);
                    }
                }
            }
            for lane in 0..live {
                let key = &next_keys[lane * key_words..(lane + 1) * key_words];
                let next = match index.get(key) {
                    Some(&i) => i,
                    None => {
                        if num_states >= opts.max_ff_states {
                            return Err(McError::Budget {
                                what: "states",
                                limit: opts.max_ff_states,
                            });
                        }
                        let i = num_states as u32;
                        index.insert(key.into(), i);
                        ff_states.extend_from_slice(key);
                        num_states += 1;
                        i
                    }
                };
                delta.push(next);
            }
        }
        frontier += batch;
    }

    let n_pairs = delta.len();
    let atoms: HashMap<String, StateSet> = named
        .into_iter()
        .zip(atom_bits)
        .map(|((name, _), bits)| (name, StateSet::from_blocks(bits.words, n_pairs)))
        .collect();
    let fairness = fairness_nets
        .iter()
        .map(|f| atoms.get(*f).expect("validated above").clone())
        .collect();
    let state_names = state_nets.iter().map(|&n| netlist.net_name(n)).collect();
    let input_names = inputs.iter().map(|&n| netlist.net_name(n)).collect();
    Ok(NetlistKripke {
        combos,
        delta,
        atoms,
        fairness,
        ff_states,
        key_words,
        state_names,
        input_names,
    })
}

/// The lane words with bit `l` set iff `f(l)`.
fn lane_pattern(f: impl Fn(usize) -> bool) -> Lanes {
    let mut words = [0; WORDS];
    for l in (0..PASS_LANES).filter(|&l| f(l)) {
        words[l / LANES] |= 1 << (l % LANES);
    }
    words
}

/// All lane words of one net after a settle.
fn lane_words(sim: &WideSim<WORDS>, net: NetId) -> Lanes {
    std::array::from_fn(|w| sim.word(net, w))
}

/// Positions of the set bits of a packed bit-vector, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let k = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + k
            })
        })
    })
}

/// A growing bit-stream over pair ids. A pass covers a contiguous run of
/// pairs, so appending its lanes is one or two word operations per 64
/// pairs, wherever the run starts.
#[derive(Default)]
struct PairBits {
    words: Vec<u64>,
    len: usize,
}

impl PairBits {
    /// Appends lanes `0..n` of `lanes`.
    fn append(&mut self, lanes: &Lanes, n: usize) {
        let shift = self.len % 64;
        for (w, &word) in lanes.iter().enumerate().take(n.div_ceil(LANES)) {
            let v = word & lane_mask((n - w * LANES).min(LANES));
            match self.words.last_mut() {
                Some(last) if shift != 0 => {
                    *last |= v << shift;
                    self.words.push(v >> (64 - shift));
                }
                _ => self.words.push(v),
            }
        }
        self.len += n;
        self.words.truncate(self.len.div_ceil(64));
    }
}

impl Kripke for NetlistKripke {
    fn num_states(&self) -> usize {
        self.delta.len()
    }

    fn initial_states(&self) -> StateSet {
        let mut s = StateSet::empty(self.num_states());
        for i in 0..self.combos {
            s.insert(i); // pairs (ff-state 0, every input valuation)
        }
        s
    }

    fn pre_exists(&self, target: &StateSet) -> StateSet {
        // g[s'] = some pair (s', *) is in target.
        let mut g = vec![false; self.num_ff_states()];
        for p in target.iter() {
            g[p / self.combos] = true;
        }
        let mut out = StateSet::empty(self.num_states());
        for (p, &succ) in self.delta.iter().enumerate() {
            if g[succ as usize] {
                out.insert(p);
            }
        }
        out
    }

    fn post(&self, s: StateId, out: &mut Vec<StateId>) {
        let succ = self.delta[s] as usize;
        out.extend((0..self.combos).map(|i| succ * self.combos + i));
    }

    fn atom_set(&self, name: &str) -> Option<StateSet> {
        self.atoms.get(name).cloned()
    }

    fn fairness_sets(&self) -> Vec<StateSet> {
        self.fairness.clone()
    }

    fn describe_state(&self, s: StateId) -> String {
        let (ff, combo) = self.split(s);
        let key = &self.ff_states[ff * self.key_words..][..self.key_words];
        let regs: Vec<String> = self
            .state_names
            .iter()
            .enumerate()
            .map(|(j, n)| format!("{n}={}", key[j / 64] >> (j % 64) & 1))
            .collect();
        let ins: Vec<String> = self
            .input_names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{n}={}", u8::from(combo >> i & 1 == 1)))
            .collect();
        format!("[{} | {}]", regs.join(" "), ins.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, check_fair};
    use crate::parse;
    use elastic_netlist::{LatchPhase, Netlist};

    /// Pairs (as a set) satisfying `f(state, combo)`.
    fn pairs(k: &NetlistKripke, f: impl Fn(usize, usize) -> bool) -> StateSet {
        let mut s = StateSet::empty(k.num_states());
        for p in 0..k.num_states() {
            if f(p / k.combos, p % k.combos) {
                s.insert(p);
            }
        }
        s
    }

    /// Successor flip-flop state of every pair, read through `post`.
    fn successors(k: &NetlistKripke) -> Vec<usize> {
        let mut out = Vec::new();
        (0..k.num_states())
            .map(|p| {
                out.clear();
                k.post(p, &mut out);
                out[0] / k.combos
            })
            .collect()
    }

    /// One-bit handshake: req input; grant FF follows req one cycle later.
    fn follower() -> Netlist {
        let mut n = Netlist::new("follower");
        let req = n.input("req");
        let grant = n.dff_bound(req, false);
        n.set_name(grant, "grant").unwrap();
        n
    }

    #[test]
    fn follower_properties() {
        let k = netlist_kripke(&follower(), &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 2);
        assert_eq!(k.num_states(), 4);
        let f = parse("AG (req -> AX grant)").unwrap();
        assert!(check(&k, &f).unwrap().holds());
        // The input valuation is part of the state (SMV-style), so
        // grant & !req deterministically loses the grant next cycle...
        let g = parse("AG ((grant & req) -> AX grant)").unwrap();
        assert!(check(&k, &g).unwrap().holds());
        // ...and `EX grant` fails from (grant, req=0) pairs.
        let ng = parse("AG (grant -> EX grant)").unwrap();
        assert!(!check(&k, &ng).unwrap().holds());
        let h = parse("AG grant").unwrap();
        assert!(!check(&k, &h).unwrap().holds());
    }

    #[test]
    fn liveness_needs_fairness() {
        let n = follower();
        let free = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let live = parse("AG AF grant").unwrap();
        assert!(
            !check(&free, &live).unwrap().holds(),
            "env may never request"
        );
        let fair = netlist_kripke(&n, &["req"], BridgeOptions::default()).unwrap();
        assert!(check_fair(&fair, &live).unwrap().holds());
    }

    #[test]
    fn unknown_fairness_net() {
        let e = netlist_kripke(&follower(), &["nope"], BridgeOptions::default()).unwrap_err();
        assert_eq!(e, McError::UnknownAtom("nope".into()));
    }

    #[test]
    fn input_budget_enforced() {
        let mut n = Netlist::new("wide");
        for i in 0..4 {
            n.input(format!("i{i}"));
        }
        let e = netlist_kripke(
            &n,
            &[],
            BridgeOptions {
                max_ff_states: 10,
                max_inputs: 3,
            },
        )
        .unwrap_err();
        assert!(matches!(e, McError::Budget { what: "inputs", .. }));
    }

    #[test]
    fn word_width_inputs_are_a_typed_budget_error_not_a_shift_panic() {
        // Regression: raising `max_inputs` past the word width used to hit
        // `1usize << 64` and abort. The wide netlist is rejected with a
        // typed budget error before any exploration is attempted.
        let mut n = Netlist::new("very_wide");
        for i in 0..usize::BITS as usize {
            n.input(format!("i{i}"));
        }
        let e = netlist_kripke(
            &n,
            &[],
            BridgeOptions {
                max_ff_states: 4,
                max_inputs: usize::MAX,
            },
        )
        .unwrap_err();
        assert!(matches!(e, McError::Budget { what: "inputs", .. }), "{e:?}");
    }

    #[test]
    fn state_descriptions_mention_nets() {
        let n = follower();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let d = k.describe_state(1);
        assert!(d.contains("grant=0"), "{d}");
        assert!(d.contains("req=1"), "{d}");
    }

    #[test]
    fn convergence_trivial_without_fault_arms() {
        let k = netlist_kripke(&follower(), &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.fault_inputs, 0);
        assert!(r.converging);
        assert_eq!(r.diverging, 0);
        assert_eq!(r.legal, r.ff_states);
        assert_eq!(r.convergence_bound, 0);
    }

    #[test]
    fn convergence_of_a_self_draining_corruption() {
        // A 2-bit shift chain fed by the fault arm: while armed the chain
        // fills with illegal state, once the arm drops the ones drain out
        // in two cycles — self-stabilizing with convergence bound 2.
        let mut n = Netlist::new("drain");
        let arm = n.input("fault.c.vp");
        let b0 = n.dff_bound(arm, false);
        let b1 = n.dff_bound(b0, false);
        n.set_name(b0, "b0").unwrap();
        n.set_name(b1, "b1").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.fault_inputs, 1);
        assert_eq!(r.ff_states, 4, "arm reaches all four chain states");
        assert_eq!(r.legal, 1, "arm-low from reset stays at 00");
        assert!(r.converging, "{r:?}");
        assert_eq!(r.convergence_bound, 2, "two cycles to flush the chain");
    }

    #[test]
    fn convergence_detects_a_latching_fault() {
        // A sticky bit: once the arm has set it, it feeds itself and never
        // clears — the corrupted state survives arbitrarily long fault-free
        // operation, so the netlist is NOT self-stabilizing.
        let mut n = Netlist::new("sticky");
        let arm = n.input("fault.c.vp");
        let bit = n.dff(false);
        let d = n.or([bit, arm]);
        n.bind_dff(bit, d).unwrap();
        n.set_name(bit, "stuck").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        let r = k.convergence_report();
        assert_eq!(r.ff_states, 2);
        assert_eq!(r.legal, 1);
        assert_eq!(r.diverging, 1, "the latched state never re-legalizes");
        assert!(!r.converging);
    }

    #[test]
    fn counter_reaches_all_states() {
        // 2-bit counter: 4 ff states, no inputs.
        let mut n = Netlist::new("counter");
        let b0 = n.dff(false);
        let b1 = n.dff(false);
        let nb0 = n.not(b0);
        let carry = b0;
        let d1 = n.xor(b1, carry);
        n.bind_dff(b0, nb0).unwrap();
        n.bind_dff(b1, d1).unwrap();
        n.set_name(b0, "b0").unwrap();
        n.set_name(b1, "b1").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 4);
        let f = parse("AG AF (b1 & b0)").unwrap();
        assert!(check(&k, &f).unwrap().holds());
    }

    #[test]
    fn no_inputs_one_lane_per_state() {
        // combos = 1: a lane group is a single lane, so a pass could carry
        // 512 states — but a deterministic chain from reset only ever has
        // one discovered, unexplored state, so every pass is a one-lane
        // batch and every atom append is one unaligned bit.
        let bits = 10;
        let mut n = Netlist::new("counter10");
        let q: Vec<NetId> = (0..bits).map(|_| n.dff(false)).collect();
        let mut carry = n.constant(true);
        for (b, &qb) in q.iter().enumerate() {
            let d = n.xor(qb, carry);
            carry = n.and2(qb, carry);
            n.bind_dff(qb, d).unwrap();
            n.set_name(qb, format!("b{b}")).unwrap();
        }
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 1 << bits);
        assert_eq!(k.num_states(), 1 << bits, "one pair per state");
        let succ = successors(&k);
        for (s, &t) in succ.iter().enumerate() {
            assert_eq!(t, (s + 1) % (1 << bits), "state {s}");
        }
        for b in 0..bits {
            let want = pairs(&k, |s, _| s >> b & 1 == 1);
            assert_eq!(k.atom_set(&format!("b{b}")), Some(want), "b{b}");
        }
    }

    #[test]
    fn nine_inputs_fill_one_pass_per_state() {
        // combos = 512 = one full pass per state; q_b captures input b for
        // b < 3, so combo c leads to the state numbered c mod 8.
        let mut n = Netlist::new("capture9");
        for b in 0..9 {
            let i = n.input(format!("i{b}"));
            if b < 3 {
                let q = n.dff_bound(i, false);
                n.set_name(q, format!("q{b}")).unwrap();
            }
        }
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.combos, 512);
        assert_eq!(k.num_ff_states(), 8);
        let succ = successors(&k);
        for (p, &t) in succ.iter().enumerate() {
            assert_eq!(t, p % 8, "pair {p}");
        }
        for b in 0..9 {
            let i = pairs(&k, |_, c| c >> b & 1 == 1);
            assert_eq!(k.atom_set(&format!("i{b}")), Some(i), "i{b}");
        }
        for b in 0..3 {
            let q = pairs(&k, |s, _| s >> b & 1 == 1);
            assert_eq!(k.atom_set(&format!("q{b}")), Some(q), "q{b}");
        }
    }

    #[test]
    fn ten_inputs_take_two_passes_with_bit_nine_splatted() {
        // combos = 1024: each state takes two passes, input bit 9 comes
        // from the pass index and bits 0..9 from the lane index. The high
        // latch samples the low latch before the low phase rewrites it, so
        // the second pass is only right if it reloads the state.
        let mut n = Netlist::new("wide10");
        let ins: Vec<NetId> = (0..10).map(|b| n.input(format!("i{b}"))).collect();
        let q = n.dff_bound(ins[9], false);
        n.set_name(q, "q").unwrap();
        let lo = n.latch(LatchPhase::Low, false);
        n.bind_latch(lo, ins[9]).unwrap();
        let hi = n.latch(LatchPhase::High, false);
        n.bind_latch(hi, lo).unwrap();
        let x = n.xor(ins[9], ins[3]);
        n.set_name(x, "x").unwrap();
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.combos, 1024);
        // State s holds lo = s & 1 (= q) and hi = s >> 1; the successor
        // takes lo = q = i9 and hi = the current lo.
        assert_eq!(k.num_ff_states(), 4);
        let succ = successors(&k);
        for (p, &t) in succ.iter().enumerate() {
            let (s, c) = (p / 1024, p % 1024);
            assert_eq!(t, c >> 9 | (s & 1) << 1, "pair {p}");
        }
        let i9 = pairs(&k, |_, c| c >> 9 == 1);
        assert_eq!(k.atom_set("i9"), Some(i9));
        let xs = pairs(&k, |_, c| (c >> 9 ^ c >> 3) & 1 == 1);
        assert_eq!(k.atom_set("x"), Some(xs));
        assert_eq!(k.atom_set("q"), Some(pairs(&k, |s, _| s & 1 == 1)));
        assert!(k.describe_state(1024 + 512).contains("q=1 "));
        assert!(k.describe_state(1024 + 512).ends_with("i9=1]"));
    }

    #[test]
    fn partial_batches_keep_bfs_numbering() {
        // A 3-bit shift register fed by input `a`, with two more inputs
        // (combos = 8, 64 states per pass). The frontier batches hold 1,
        // 1, 2 and 4 states — each far short of a full pass — and BFS
        // numbers every state by its register value q0 + 2·q1 + 4·q2.
        let mut n = Netlist::new("shift3");
        let a = n.input("a");
        let b = n.input("b");
        let _c = n.input("c");
        let q0 = n.dff_bound(a, false);
        let q1 = n.dff_bound(q0, false);
        let q2 = n.dff_bound(q1, false);
        let x = n.and([a, b, q2]);
        n.set_name(x, "x").unwrap();
        let k = netlist_kripke(&n, &["x"], BridgeOptions::default()).unwrap();
        assert_eq!(k.num_ff_states(), 8);
        let succ = successors(&k);
        for (p, &t) in succ.iter().enumerate() {
            let (s, c) = (p / 8, p % 8);
            assert_eq!(t, (s << 1 | c & 1) & 7, "pair {p}");
        }
        let want = pairs(&k, |s, c| c & 3 == 3 && s & 4 != 0);
        assert_eq!(k.atom_set("x"), Some(want.clone()));
        assert_eq!(k.fairness_sets(), vec![want]);
    }

    #[test]
    fn pair_bits_append_at_any_offset() {
        // Runs of every awkward length, starting at every offset class,
        // against a plain bool vector.
        let mut bits = PairBits::default();
        let mut naive = Vec::new();
        for (r, n) in [3usize, 70, 512, 1, 64, 61, 128, 5, 500]
            .into_iter()
            .enumerate()
        {
            let lanes = lane_pattern(|l| (l * 7 + r * 3) % 5 < 2);
            bits.append(&lanes, n);
            naive.extend((0..n).map(|l| (l * 7 + r * 3) % 5 < 2));
        }
        assert_eq!(bits.len, naive.len());
        assert_eq!(bits.words.len(), naive.len().div_ceil(64), "no stray words");
        let set = StateSet::from_blocks(bits.words, naive.len());
        for (p, &v) in naive.iter().enumerate() {
            assert_eq!(set.contains(p), v, "pair {p}");
        }
    }

    #[test]
    fn state_keys_span_several_words() {
        // A 70-bit one-hot ring advancing when `en` is high: the key is two
        // words, and states 64..70 differ only in the second one.
        let bits = 70;
        let mut n = Netlist::new("ring70");
        let en = n.input("en");
        let q: Vec<NetId> = (0..bits).map(|b| n.dff(b == 0)).collect();
        for b in 0..bits {
            let d = n.mux(en, q[(b + bits - 1) % bits], q[b]);
            n.bind_dff(q[b], d).unwrap();
            n.set_name(q[b], format!("q{b}")).unwrap();
        }
        let k = netlist_kripke(&n, &[], BridgeOptions::default()).unwrap();
        assert_eq!(k.key_words, 2);
        assert_eq!(k.num_ff_states(), bits);
        let succ = successors(&k);
        for (p, &t) in succ.iter().enumerate() {
            let (s, c) = (p / 2, p % 2);
            assert_eq!(t, if c == 1 { (s + 1) % bits } else { s }, "pair {p}");
        }
        assert_eq!(k.atom_set("q69"), Some(pairs(&k, |s, _| s == 69)));
        let d = k.describe_state(2 * 69);
        assert!(
            d.contains("q69=1") && d.contains("q0=0") && d.contains("q63=0"),
            "{d}"
        );
    }

    #[test]
    fn state_budget_is_a_typed_error_mid_batch() {
        // 2^6-state counter with an enable: discovered one state per pass.
        let mut n = Netlist::new("counter6");
        let en = n.input("en");
        let mut carry = en;
        for _ in 0..6 {
            let q = n.dff(false);
            let d = n.xor(q, carry);
            carry = n.and2(q, carry);
            n.bind_dff(q, d).unwrap();
        }
        let opts = |max_ff_states| BridgeOptions {
            max_ff_states,
            max_inputs: 4,
        };
        assert_eq!(
            netlist_kripke(&n, &[], opts(64)).unwrap().num_ff_states(),
            64
        );
        for limit in [1, 10, 63] {
            let e = netlist_kripke(&n, &[], opts(limit)).unwrap_err();
            assert_eq!(
                e,
                McError::Budget {
                    what: "states",
                    limit
                }
            );
        }
        // A 6-bit shift register: the batch {2, 3} discovers states 4 to 7,
        // so a budget of 5 trips in the middle of that pass.
        let mut n = Netlist::new("shift6");
        let mut d = n.input("a");
        for _ in 0..6 {
            d = n.dff_bound(d, false);
        }
        let e = netlist_kripke(&n, &[], opts(5)).unwrap_err();
        assert_eq!(
            e,
            McError::Budget {
                what: "states",
                limit: 5
            }
        );
        assert_eq!(
            netlist_kripke(&n, &[], opts(64)).unwrap().num_ff_states(),
            64
        );
    }

    #[test]
    fn netlist_errors_surface_from_the_tape_compiler() {
        let mut unbound = Netlist::new("unbound");
        let _ = unbound.dff(false);
        let e = netlist_kripke(&unbound, &[], BridgeOptions::default()).unwrap_err();
        assert!(matches!(e, McError::Netlist(_)), "{e:?}");
        assert_eq!(e, McError::from(Program::compile(&unbound).unwrap_err()));

        let mut cyclic = Netlist::new("cyclic");
        let w = cyclic.wire();
        let x = cyclic.not(w);
        cyclic.bind_wire(w, x).unwrap();
        let e = netlist_kripke(&cyclic, &[], BridgeOptions::default()).unwrap_err();
        assert!(matches!(e, McError::Netlist(_)), "{e:?}");
        assert_eq!(e, McError::from(Program::compile(&cyclic).unwrap_err()));
    }
}
