//! Simulated-annealing placement.
//!
//! Assigns packed entities (CLBs, BRAMs, IOBs) to device sites minimizing
//! total half-perimeter wirelength (HPWL), blended with a VPR-style
//! criticality-weighted timing term (see [`PlaceOptions::timing_weight`]).
//! Placement quality feeds directly into routed wirelength and therefore
//! interconnect power — the dominant FPGA power component (paper Sec. 2) —
//! and, through the timing term, into fmax: since the paper's power
//! numbers scale with clock frequency, a placement that shortens the
//! critical path (the BRAM address/enable setup loop for EMB FSMs) moves
//! the bottom-line tables directly.
//!
//! There is one annealer (`anneal`) over a set of movable entities.
//! [`place`] runs it with every entity movable on the full schedule
//! (acceptance-keyed cooling, quench-polished reheats, scaled by an
//! effort knob); [`place_incremental`] runs it with only the ECO delta
//! movable against [`PinnedEntities`], on the short ECO schedule. A
//! private `Schedule` carries everything the two walks do differently,
//! and both entry points go through the same guarded two-arm selection
//! (`pick_guarded`).

use crate::device::Device;
use crate::netlist::{NetId, Netlist};
use crate::pack::{EntityId, PackedDesign};
use crate::sta::TimingKernel;
use crate::timing::DelayModel;
use std::fmt;
use xrand::SmallRng;

/// Bumped whenever [`place`] can produce a different placement for the
/// same (netlist, device, options) input — the flow-artifact cache mixes
/// it into placement keys so stale artifacts from an older algorithm are
/// never returned. Version 2: adaptive VPR schedule (T0 from sampled
/// move-delta stddev, acceptance-keyed cooling, dynamic exit). Version 3:
/// criticality-weighted timing cost (frozen per-level criticalities from
/// the incremental STA kernel, timing-aware quench, early-exit move
/// rejection) — wirelength-only behavior at `timing_weight = 0` is
/// byte-identical to version 2. Version 4 added the guarded two-arm
/// selection ([`pick_guarded`]): with the timing term on, the blind and
/// criticality-weighted anneals both run and the better STA estimate
/// wins, so timing-driven placement is never worse than wirelength-only.
pub const ALGORITHM_VERSION: u32 = 4;

/// Placement options.
#[derive(Debug, Clone, Copy)]
pub struct PlaceOptions {
    /// RNG seed (placement is deterministic given the seed).
    pub seed: u64,
    /// Effort multiplier: moves per temperature ≈ `effort · entities^{4/3}`.
    pub effort: f64,
    /// Hard cap on annealing moves. When the cap is hit the anneal stops
    /// where it is, the best-seen configuration is polished and returned,
    /// and [`Placement::budget`] is flagged [`BudgetOutcome::Exhausted`] —
    /// so no effort setting can hang the experiment harness. The default
    /// is far above what any paper benchmark spends (~200k moves), so
    /// results are unchanged unless a caller tightens it.
    pub max_moves: u64,
    /// Weight `w ∈ [0, 1]` of the timing term in the annealing cost:
    /// `(1−w)·Σ hpwl + w·scale·Σ crit^exp·net_per_hop·hpwl`, with `scale`
    /// re-normalizing the timing term onto the wirelength scale at every
    /// criticality refresh (VPR's self-normalizing trade-off). `0.0`
    /// disables the timing machinery entirely and reproduces the
    /// wirelength-only placement byte-for-byte.
    pub timing_weight: f64,
    /// Criticality sharpening exponent (VPR's `criticality_exp`): the
    /// per-net weight is `criticality^crit_exp`, so large exponents focus
    /// the timing term on the near-critical cone only.
    pub crit_exp: f64,
    /// Every `retime_interval`-th per-level criticality refresh is backed
    /// by a from-scratch recompute of the timing kernel (debug-asserted
    /// bit-identical to the incremental state — the drift bound). `0`
    /// disables the periodic full re-time.
    pub retime_interval: u32,
    /// Delay model the timing term anneals against (wire delay per net is
    /// `net_base + net_per_hop · hpwl`). Flows pass their own model so
    /// placement and post-route analysis agree.
    pub delay: DelayModel,
}

impl PlaceOptions {
    /// Default annealing-move cap (see [`PlaceOptions::max_moves`]).
    pub const DEFAULT_MAX_MOVES: u64 = 50_000_000;
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 1,
            effort: 10.0,
            max_moves: Self::DEFAULT_MAX_MOVES,
            timing_weight: 0.5,
            crit_exp: 8.0,
            retime_interval: 8,
            delay: DelayModel::default(),
        }
    }
}

/// Whether an iterative optimization ran to its natural end or was cut
/// off by its move/iteration budget (in which case the best state seen
/// so far is returned, flagged).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetOutcome {
    /// The optimization converged (or exhausted its schedule) normally.
    #[default]
    Completed,
    /// The budget ran out first; the result is the best seen so far.
    Exhausted {
        /// Moves/iterations spent when the budget cut in.
        spent: u64,
    },
}

impl BudgetOutcome {
    /// True when the budget ran out.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        matches!(self, BudgetOutcome::Exhausted { .. })
    }
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The design does not fit the device.
    DoesNotFit {
        /// What overflowed ("CLBs", "BRAMs" or "IOBs").
        what: &'static str,
        /// Required count.
        need: usize,
        /// Available sites.
        have: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::DoesNotFit { what, need, have } => {
                write!(f, "design needs {need} {what}, device has {have}")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A placement: entity → site coordinates.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The target device.
    pub device: Device,
    /// CLB locations (indexed like `PackedDesign::clbs`).
    pub clb_loc: Vec<(usize, usize)>,
    /// BRAM locations.
    pub bram_loc: Vec<(usize, usize)>,
    /// IOB locations.
    pub iob_loc: Vec<(usize, usize)>,
    /// Final HPWL cost.
    pub hpwl: f64,
    /// Final Σ hpwl² over the same nets — the quadratic tie-breaker the
    /// descent phases optimize (a cheap timing proxy; see [`quench`]).
    pub hpwl_sq: f64,
    /// Annealing moves attempted (excludes the T0 calibration samples
    /// and the deterministic quench passes).
    pub moves: u64,
    /// Whether the anneal ran its full schedule or hit
    /// [`PlaceOptions::max_moves`] (best-seen returned either way).
    pub budget: BudgetOutcome,
}

impl Placement {
    /// The site of an entity.
    #[must_use]
    pub fn location(&self, e: EntityId) -> (usize, usize) {
        match e {
            EntityId::Clb(i) => self.clb_loc[i],
            EntityId::Bram(i) => self.bram_loc[i],
            EntityId::Iob(i) => self.iob_loc[i],
        }
    }
}

/// Net pin model used for cost: the entities touching each net. Shared
/// with [`crate::sta::estimate_critical_ns`] so the placer's cost model
/// and the post-place fmax estimate see the same pins.
pub(crate) fn build_net_pins(netlist: &Netlist, packed: &PackedDesign) -> Vec<Vec<EntityId>> {
    let mut pins: Vec<Vec<EntityId>> = vec![Vec::new(); netlist.num_nets()];
    for (i, cell) in netlist.cells().iter().enumerate() {
        let Some(entity) = packed.entity_of_cell[i] else {
            continue;
        };
        for net in cell.inputs().into_iter().chain(cell.outputs()) {
            if !pins[net.index()].contains(&entity) {
                pins[net.index()].push(entity);
            }
        }
    }
    for (i, iob) in packed.iobs.iter().enumerate() {
        let e = EntityId::Iob(i);
        if !pins[iob.net.index()].contains(&e) {
            pins[iob.net.index()].push(e);
        }
    }
    pins
}

/// Per-kind coordinate lists, `[CLBs, BRAMs, IOBs]`, each indexed like
/// the matching `PackedDesign` list (or, for device sites, in the
/// device's site order).
type Locs = [Vec<(usize, usize)>; 3];

/// Per-kind movability, indexed like [`Locs`].
type Mask = [Vec<bool>; 3];

/// Entity-kind names, indexed like [`Locs`], as the errors report them.
const KINDS: [&str; 3] = ["CLBs", "BRAMs", "IOBs"];

fn kind_of(e: EntityId) -> (usize, usize) {
    match e {
        EntityId::Clb(i) => (0, i),
        EntityId::Bram(i) => (1, i),
        EntityId::Iob(i) => (2, i),
    }
}

fn at(locs: &Locs, e: EntityId) -> (usize, usize) {
    let (kind, idx) = kind_of(e);
    locs[kind][idx]
}

/// The device's sites per kind, and the first kind the packed design
/// overflows (`(what, need, have)`), if any.
fn sites_for(
    packed: &PackedDesign,
    device: &Device,
) -> (Locs, Option<(&'static str, usize, usize)>) {
    let sites = [device.clb_sites(), device.bram_sites(), device.iob_sites()];
    let need = [packed.clbs.len(), packed.brams.len(), packed.iobs.len()];
    let overflow = (0..3)
        .find(|&k| need[k] > sites[k].len())
        .map(|k| (KINDS[k], need[k], sites[k].len()));
    (sites, overflow)
}

/// The sites of each kind no entity occupies, in site order.
fn free_sites(locs: &Locs, sites: &Locs) -> Locs {
    std::array::from_fn(|k| {
        let used: std::collections::HashSet<(usize, usize)> = locs[k].iter().copied().collect();
        sites[k]
            .iter()
            .copied()
            .filter(|s| !used.contains(s))
            .collect()
    })
}

/// Cached bounding box of one net's pins, plus the HPWL derived from it.
/// The anneal keeps one `NetBox` per active net so the cost of a layout
/// *before* a move is a table lookup instead of a rescan of every pin;
/// the *after* side grows the cached box by the moved pin's new site, and
/// rescans only when the pin left the box's edge (a move can shrink a box
/// only then). The quench also keeps, per movable pin, the box of its net
/// *without* that pin, so any candidate site costs one [`NetBox::grown`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetBox {
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
    /// `((max_x - min_x) + (max_y - min_y)) as f64`; 0.0 for nets with
    /// fewer than two pins (same convention as the historical scan).
    hpwl: f64,
}

impl NetBox {
    /// Placeholder for nets the cost function never looks at (< 2 pins).
    const EMPTY: NetBox = NetBox {
        min_x: 0,
        max_x: 0,
        min_y: 0,
        max_y: 0,
        hpwl: 0.0,
    };

    fn new(min_x: usize, max_x: usize, min_y: usize, max_y: usize) -> NetBox {
        NetBox {
            min_x,
            max_x,
            min_y,
            max_y,
            hpwl: ((max_x - min_x) + (max_y - min_y)) as f64,
        }
    }

    /// The box of at least one point.
    fn bound(points: impl Iterator<Item = (usize, usize)>) -> NetBox {
        let mut min_x = usize::MAX;
        let mut max_x = 0;
        let mut min_y = usize::MAX;
        let mut max_y = 0;
        for (x, y) in points {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        NetBox::new(min_x, max_x, min_y, max_y)
    }

    fn compute(pins: &[EntityId], loc: &dyn Fn(EntityId) -> (usize, usize)) -> NetBox {
        if pins.len() < 2 {
            return NetBox::EMPTY;
        }
        NetBox::bound(pins.iter().map(|&p| loc(p)))
    }

    /// This box stretched to cover `(x, y)`.
    fn grown(&self, (x, y): (usize, usize)) -> NetBox {
        NetBox::new(
            self.min_x.min(x),
            self.max_x.max(x),
            self.min_y.min(y),
            self.max_y.max(y),
        )
    }

    /// Whether `(x, y)` lies on an edge of this box: only a pin there can
    /// shrink the box by leaving.
    fn on_edge(&self, (x, y): (usize, usize)) -> bool {
        x == self.min_x || x == self.max_x || y == self.min_y || y == self.max_y
    }
}

pub(crate) fn hpwl_of_net(pins: &[EntityId], loc: &dyn Fn(EntityId) -> (usize, usize)) -> f64 {
    NetBox::compute(pins, loc).hpwl
}

/// The two smallest and two largest values of one axis over a net's
/// pins, so the box of the net without any one pin is read off without a
/// rescan: leaving out the holder of an extreme falls back to the
/// runner-up (which equals the extreme when two pins share it).
#[derive(Debug, Clone, Copy)]
struct Extremes {
    lo: (usize, usize),
    hi: (usize, usize),
}

impl Extremes {
    const NONE: Extremes = Extremes {
        lo: (usize::MAX, usize::MAX),
        hi: (0, 0),
    };

    fn push(&mut self, v: usize) {
        if v < self.lo.0 {
            self.lo = (v, self.lo.0);
        } else if v < self.lo.1 {
            self.lo.1 = v;
        }
        if v > self.hi.0 {
            self.hi = (v, self.hi.0);
        } else if v > self.hi.1 {
            self.hi.1 = v;
        }
    }

    /// `(min, max)` over the pushed values with one `v` left out.
    fn without(&self, v: usize) -> (usize, usize) {
        (
            if v == self.lo.0 { self.lo.1 } else { self.lo.0 },
            if v == self.hi.0 { self.hi.1 } else { self.hi.0 },
        )
    }
}

/// One active net of an entity, with the slot of the entity's pin on it:
/// an index into the placer's flat per-pin tables (see
/// [`NetModel::pin_base`]).
#[derive(Debug, Clone, Copy)]
struct NetPin {
    net: NetId,
    slot: usize,
}

/// Which of a move's entities has a pin on an affected net: the mover
/// (which goes `from → to`), its swap partner (`to → from`), or both (a
/// swap then leaves the net's box as it was).
#[derive(Debug, Clone, Copy)]
enum Touch {
    Mover,
    Partner,
    Both,
}

/// The nets a move can change, ascending, each with its [`Touch`]. One
/// buffer is refilled for every proposal.
#[derive(Debug, Default)]
struct Affected {
    nets: Vec<NetId>,
    touch: Vec<Touch>,
}

/// The union of two ascending net lists, ascending: each net once, with
/// the pin slot of each list that has it.
fn merged<'a>(
    a: &'a [NetPin],
    b: &'a [NetPin],
) -> impl Iterator<Item = (NetId, Option<usize>, Option<usize>)> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || match (a.get(i), b.get(j)) {
        (Some(x), Some(y)) if x.net == y.net => {
            i += 1;
            j += 1;
            Some((x.net, Some(x.slot), Some(y.slot)))
        }
        (Some(x), Some(y)) if x.net < y.net => {
            i += 1;
            Some((x.net, Some(x.slot), None))
        }
        (Some(x), None) => {
            i += 1;
            Some((x.net, Some(x.slot), None))
        }
        (_, Some(y)) => {
            j += 1;
            Some((y.net, None, Some(y.slot)))
        }
        (None, None) => None,
    })
}

/// The placer's view of the netlist: pins per net, the nets worth costing
/// (≥ 2 pins), and the active nets touching each entity.
struct NetModel {
    pins: Vec<Vec<EntityId>>,
    /// Net `n`'s pins own the slots `pin_base[n]..pin_base[n + 1]`, in
    /// `pins[n]` order; the last entry is the slot count.
    pin_base: Vec<usize>,
    active: Vec<NetId>,
    /// Per kind and entity (indexed like [`Locs`]): its active nets,
    /// ascending.
    of_entity: [Vec<Vec<NetPin>>; 3],
}

impl NetModel {
    fn new(netlist: &Netlist, packed: &PackedDesign) -> NetModel {
        let pins = build_net_pins(netlist, packed);
        let mut pin_base = Vec::with_capacity(pins.len() + 1);
        let mut slots = 0;
        for p in &pins {
            pin_base.push(slots);
            slots += p.len();
        }
        pin_base.push(slots);
        let active: Vec<NetId> = (0..netlist.num_nets())
            .map(|i| NetId(i as u32))
            .filter(|n| pins[n.index()].len() >= 2)
            .collect();
        let counts = [packed.clbs.len(), packed.brams.len(), packed.iobs.len()];
        let mut of_entity = counts.map(|n| vec![Vec::new(); n]);
        for &net in &active {
            for (i, &e) in pins[net.index()].iter().enumerate() {
                let (kind, idx) = kind_of(e);
                of_entity[kind][idx].push(NetPin {
                    net,
                    slot: pin_base[net.index()] + i,
                });
            }
        }
        NetModel {
            pins,
            pin_base,
            active,
            of_entity,
        }
    }

    /// `(Σ hpwl, Σ hpwl²)` over `nets`, optionally with the linear term
    /// weighted by the timing context's frozen per-net coefficients.
    fn cost_of(&self, nets: &[NetId], locs: &Locs, timing: Option<&TimingCtx>) -> (f64, f64) {
        nets.iter().fold((0.0, 0.0), |(lin, sq), n| {
            let h = hpwl_of_net(&self.pins[n.index()], &|e| at(locs, e));
            let lin_term = timing.map_or(h, |t| t.coef[n.index()] * h);
            (lin + lin_term, sq + h * h)
        })
    }

    /// `(Σ hpwl, Σ hpwl²)` over every active net.
    fn cost(&self, locs: &Locs) -> (f64, f64) {
        self.cost_of(&self.active, locs, None)
    }

    /// Full rebuild of the per-net bounding-box cache from coordinates.
    fn boxes(&self, locs: &Locs) -> Vec<NetBox> {
        let mut boxes = vec![NetBox::EMPTY; self.pins.len()];
        for &n in &self.active {
            boxes[n.index()] = NetBox::compute(&self.pins[n.index()], &|e| at(locs, e));
        }
        boxes
    }

    /// Fills `out` with the nets a move of `(kind, idx)`, swapped with
    /// sibling `other`, can change.
    fn affected(&self, kind: usize, idx: usize, other: Option<usize>, out: &mut Affected) {
        out.nets.clear();
        out.touch.clear();
        let theirs: &[NetPin] = other.map_or(&[], |o| &self.of_entity[kind][o]);
        for (n, mine, partner) in merged(&self.of_entity[kind][idx], theirs) {
            out.nets.push(n);
            out.touch.push(match (mine, partner) {
                (Some(_), None) => Touch::Mover,
                (None, Some(_)) => Touch::Partner,
                _ => Touch::Both,
            });
        }
    }

    /// Net `n`'s box after `mv`, given its box before and which of the
    /// move's entities it touches; `locs` already holds the move. Grows
    /// the old box unless the moved pin sat on its edge.
    fn box_after(&self, n: NetId, touch: Touch, old: NetBox, mv: &Move, locs: &Locs) -> NetBox {
        let (left, arrived) = match touch {
            Touch::Both => return old,
            Touch::Mover => (mv.from, mv.to),
            Touch::Partner => (mv.to, mv.from),
        };
        if old.on_edge(left) {
            NetBox::compute(&self.pins[n.index()], &|e| at(locs, e))
        } else {
            old.grown(arrived)
        }
    }

    /// Re-boxes net `n` from `locs` into `boxes` and, for each of its
    /// movable pins, the box of the net without that pin into `excl`.
    fn rebox(
        &self,
        n: NetId,
        locs: &Locs,
        movable: &Mask,
        boxes: &mut [NetBox],
        excl: &mut [NetBox],
    ) {
        let pins = &self.pins[n.index()];
        let (mut xs, mut ys) = (Extremes::NONE, Extremes::NONE);
        for &p in pins {
            let (x, y) = at(locs, p);
            xs.push(x);
            ys.push(y);
        }
        boxes[n.index()] = NetBox::new(xs.lo.0, xs.hi.0, ys.lo.0, ys.hi.0);
        for (i, &p) in pins.iter().enumerate() {
            let (kind, idx) = kind_of(p);
            if movable[kind][idx] {
                let (x, y) = locs[kind][idx];
                let ((min_x, max_x), (min_y, max_y)) = (xs.without(x), ys.without(y));
                excl[self.pin_base[n.index()] + i] = NetBox::new(min_x, max_x, min_y, max_y);
            }
        }
    }

    /// Whether the quench's cached boxes and movable pins' excluded boxes
    /// equal a rescan of `locs` (a debug check).
    fn boxes_match(&self, locs: &Locs, movable: &Mask, boxes: &[NetBox], excl: &[NetBox]) -> bool {
        self.active.iter().all(|&n| {
            let pins = &self.pins[n.index()];
            boxes[n.index()] == NetBox::compute(pins, &|e| at(locs, e))
                && pins.iter().enumerate().all(|(i, &p)| {
                    let (kind, idx) = kind_of(p);
                    !movable[kind][idx]
                        || excl[self.pin_base[n.index()] + i]
                            == NetBox::bound(pins.iter().filter(|&&q| q != p).map(|&q| at(locs, q)))
                })
        })
    }
}

/// Frozen-criticality timing context for the annealer, built only when
/// `timing_weight > 0` (and the netlist validates — otherwise the walk
/// silently degrades to pure wirelength, which `place` historically never
/// errored on). VPR-style: per-net criticalities are read from the
/// incremental [`TimingKernel`] and *frozen* into one effective-cost
/// coefficient per net, `coef = (1−w) + w·t_scale·crit^exp·net_per_hop`,
/// so a move's effective delta is `Σ coef·Δhpwl` — one multiply-add per
/// affected net on top of the wirelength delta the walk already computes.
/// Coefficients are re-frozen once per temperature level ([`Self::refresh`]),
/// and every `retime_interval`-th refresh is backed by a from-scratch
/// recompute that must be bit-identical to the incremental state (the
/// committed drift bound, debug-asserted).
///
/// Accepted moves do not touch the kernel. Nothing reads it between
/// refreshes, and a flushed kernel is a pure function of its wire delays
/// (every arrival and downstream delay equals its formula over the
/// current inputs, which on a DAG has one solution), so the refresh that
/// syncs every active net's delay leaves exactly the state that
/// per-move updates would have.
struct TimingCtx {
    kernel: TimingKernel,
    w: f64,
    crit_exp: f64,
    retime_interval: u32,
    net_base: f64,
    per_hop: f64,
    /// `criticality^crit_exp` per net (scratch kept for the normalizer).
    crit_w: Vec<f64>,
    /// Per-net effective-cost coefficient (see above); `Σ coef·hpwl` over
    /// active nets is the cost the walk optimizes.
    coef: Vec<f64>,
    /// Normalizer putting the timing term on the wirelength scale:
    /// `Σ hpwl / Σ crit_w·per_hop·hpwl` at the last refresh.
    t_scale: f64,
    refreshes: u32,
}

impl TimingCtx {
    fn build(netlist: &Netlist, opts: &PlaceOptions) -> Option<TimingCtx> {
        let kernel = TimingKernel::new(netlist, &opts.delay).ok()?;
        let n = netlist.num_nets();
        Some(TimingCtx {
            kernel,
            w: opts.timing_weight.clamp(0.0, 1.0),
            crit_exp: opts.crit_exp,
            retime_interval: opts.retime_interval,
            net_base: opts.delay.net_base,
            per_hop: opts.delay.net_per_hop,
            crit_w: vec![0.0; n],
            coef: vec![1.0; n],
            t_scale: 0.0,
            refreshes: 0,
        })
    }

    /// Syncs the kernel's wire delays to the current bounding boxes,
    /// flushes the incremental wavefronts (with the periodic full-re-time
    /// drift check), and re-freezes the per-net coefficients.
    fn refresh(&mut self, active_nets: &[NetId], net_box: &[NetBox]) {
        for &n in active_nets {
            let i = n.index();
            self.kernel
                .set_wire_delay(n, self.net_base + self.per_hop * net_box[i].hpwl);
        }
        self.kernel.flush();
        self.refreshes += 1;
        if self.retime_interval > 0 && self.refreshes.is_multiple_of(self.retime_interval) {
            let matched = self.kernel.full_retime();
            debug_assert!(
                matched,
                "incremental timing drifted from the full recompute"
            );
        }
        let mut wl_anchor = 0.0;
        let mut t_anchor = 0.0;
        for &n in active_nets {
            let i = n.index();
            let c = self.kernel.criticality(n).powf(self.crit_exp);
            self.crit_w[i] = c;
            wl_anchor += net_box[i].hpwl;
            t_anchor += c * self.per_hop * net_box[i].hpwl;
        }
        self.t_scale = if t_anchor > 0.0 {
            wl_anchor / t_anchor
        } else {
            0.0
        };
        for &n in active_nets {
            let i = n.index();
            self.coef[i] = (1.0 - self.w) + self.w * self.t_scale * self.per_hop * self.crit_w[i];
        }
    }

    /// The frozen effective cost, read from the bounding-box cache.
    fn eff_from_boxes(&self, active_nets: &[NetId], net_box: &[NetBox]) -> f64 {
        active_nets
            .iter()
            .map(|n| self.coef[n.index()] * net_box[n.index()].hpwl)
            .sum()
    }

    /// The frozen effective cost, recomputed from coordinates (used to
    /// re-score the best-seen snapshot after a coefficient refresh).
    fn eff_from_locs(&self, nets: &NetModel, locs: &Locs) -> f64 {
        nets.active
            .iter()
            .map(|n| self.coef[n.index()] * hpwl_of_net(&nets.pins[n.index()], &|e| at(locs, e)))
            .sum()
    }
}

/// What the full and the ECO anneal do differently. Both walks are the
/// same [`anneal`]; the public entry point picks the schedule
/// ([`Schedule::full`] for [`place`], [`Schedule::eco`] for
/// [`place_incremental`]) and no option can change it.
///
/// The ECO schedule is the older fixed-rate VPR schedule the delta anneal
/// was tuned with. It is kept rather than folded into the full one
/// because merging the two changes ECO placements (move counts on every
/// paper benchmark, coordinates on some), and with them cached ECO
/// records; that belongs with a change that bumps
/// [`ALGORITHM_VERSION`].
#[derive(Debug, Clone, Copy)]
struct Schedule {
    /// Mixed into [`PlaceOptions::seed`], so the two walks draw from
    /// different RNG streams.
    salt: u64,
    /// T0 probe size: `movable · per_entity`, clamped to `[min, max]`.
    t0_samples: (usize, usize, usize),
    /// T0 when the probe's deltas have no spread (e.g. one movable
    /// entity): twice the seed layout's mean net cost when set, 1.0
    /// otherwise.
    t0_fallback_from_seed: bool,
    /// Moves per level are `ceil(movable^{4/3} · level_effort)`, at least
    /// `min_level_moves`.
    level_effort: f64,
    min_level_moves: usize,
    /// Acceptance-keyed five-band cooling, a third of the level budget
    /// outside the 5–15% plateau band, and an exit temperature that tracks
    /// the current cost. Otherwise: 0.7/0.85 cooling, a fixed level budget
    /// and an exit temperature fixed when the walk starts.
    adaptive: bool,
    /// Quench-polished reheats after the first cooldown.
    reheat_cycles: u32,
    /// Zero-cost moves face a Metropolis test on the Σ hpwl² tie-breaker
    /// instead of always being accepted.
    sideways_bias: bool,
}

impl Schedule {
    /// The full-placement schedule. Effort beyond 2.0 is spent on
    /// additional reheat cycles, not on longer levels: per-level budgets
    /// past ~2·N^{4/3} adapt the temperature and window so slowly (both
    /// update once per level) that the walk drifts device-wide before it
    /// cools, while extra quench-polished restarts are independent draws
    /// from the basin-hop distribution — min over draws keeps improving
    /// where one long cooldown stalls.
    fn full(opts: &PlaceOptions) -> Schedule {
        let effort_per_cycle = opts.effort.min(2.0);
        Schedule {
            salt: 0x9e37_79b9_7f4a_7c15,
            t0_samples: (2, 64, 1024),
            t0_fallback_from_seed: true,
            level_effort: effort_per_cycle,
            min_level_moves: 1,
            adaptive: true,
            reheat_cycles: (opts.effort / effort_per_cycle.max(f64::MIN_POSITIVE)).round() as u32,
            sideways_bias: true,
        }
    }

    /// The ECO (delta) schedule: one short fixed-rate cooldown.
    fn eco(opts: &PlaceOptions) -> Schedule {
        Schedule {
            salt: 0x0ec0_5eed_ba5e_11f7,
            t0_samples: (4, 32, 256),
            t0_fallback_from_seed: false,
            level_effort: opts.effort.max(0.1),
            min_level_moves: 16,
            adaptive: false,
            reheat_cycles: 0,
            sideways_bias: false,
        }
    }

    /// `(mid, full)` moves per level for `movable` entities. Adaptive
    /// levels run the mid budget except in the plateau-diffusion band
    /// (acceptance 5–15%): rlim has shrunk to 1 there, zero-cost sideways
    /// steps drift across equal-cost shelves into valleys the
    /// deterministic quench cannot see, and that is where the final
    /// quality is won. The adaptive cooling visits ~3× more levels over
    /// the same temperature span than a fixed 0.85 rate, hence a third.
    fn level_moves(&self, movable: usize) -> (usize, usize) {
        let full = (((movable as f64).powf(4.0 / 3.0) * self.level_effort).ceil() as usize)
            .max(self.min_level_moves);
        if self.adaptive {
            ((full / 3).max(1), full)
        } else {
            (full, full)
        }
    }

    /// Temperature factor after a level with acceptance rate `success`.
    /// Adaptive (VPR): linger where moves are being usefully sorted
    /// (mid-range acceptance), sprint through the too-hot (α ≈ 1: a random
    /// walk) and frozen (α ≤ 5%: rare unit perturbations) ends.
    fn cooling(&self, success: f64) -> f64 {
        if !self.adaptive {
            return if success > 0.8 { 0.7 } else { 0.85 };
        }
        if success > 0.96 {
            0.5
        } else if success > 0.8 {
            0.9
        } else if success > 0.15 {
            0.95
        } else if success > 0.05 {
            0.8
        } else {
            0.5
        }
    }
}

/// One proposed move: entity `idx` of `kind` from `from` to `to`, with
/// sibling `other` (if any) swapped back onto `from`.
#[derive(Debug, Clone, Copy)]
struct Move {
    kind: usize,
    idx: usize,
    other: Option<usize>,
    from: (usize, usize),
    to: (usize, usize),
}

impl Move {
    fn apply(&self, locs: &mut Locs) {
        locs[self.kind][self.idx] = self.to;
        if let Some(o) = self.other {
            locs[self.kind][o] = self.from;
        }
    }

    fn revert(&self, locs: &mut Locs) {
        locs[self.kind][self.idx] = self.from;
        if let Some(o) = self.other {
            locs[self.kind][o] = self.to;
        }
    }
}

/// What holds one grid coordinate, for one entity kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    /// Not a site of this kind.
    NoSite,
    /// A free site, at this index of the kind's free pool.
    Free(usize),
    /// The site of this entity.
    Entity(usize),
}

/// One entity kind's sites on a dense grid: who holds each. Lets
/// [`Pools::propose`] list a small window's candidates without scanning
/// the whole free pool and every sibling, and an accepted move find the
/// vacated site's pool index without a search.
#[derive(Debug, Clone)]
struct Occupancy {
    width: usize,
    height: usize,
    cells: Vec<Holder>,
}

impl Occupancy {
    fn new(sites: &[(usize, usize)], locs: &[(usize, usize)], free: &[(usize, usize)]) -> Self {
        let width = sites.iter().map(|s| s.0 + 1).max().unwrap_or(0);
        let height = sites.iter().map(|s| s.1 + 1).max().unwrap_or(0);
        let mut occ = Occupancy {
            width,
            height,
            cells: vec![Holder::NoSite; width * height],
        };
        for (f, &s) in free.iter().enumerate() {
            occ.set(s, Holder::Free(f));
        }
        for (i, &s) in locs.iter().enumerate() {
            occ.set(s, Holder::Entity(i));
        }
        occ
    }

    fn get(&self, (x, y): (usize, usize)) -> Holder {
        self.cells[x * self.height + y]
    }

    fn set(&mut self, (x, y): (usize, usize), h: Holder) {
        self.cells[x * self.height + y] = h;
    }
}

/// The anneal's free-site pools (per kind, in the order moves leave them)
/// with their occupancy grids, and the candidate buffers `propose`
/// refills on every call.
struct Pools {
    free: Locs,
    occupancy: [Occupancy; 3],
    free_cands: Vec<usize>,
    swap_cands: Vec<usize>,
}

impl Pools {
    fn new(locs: &Locs, sites: &Locs) -> Pools {
        let free = free_sites(locs, sites);
        let occupancy = std::array::from_fn(|k| Occupancy::new(&sites[k], &locs[k], &free[k]));
        Pools {
            free,
            occupancy,
            free_cands: Vec::new(),
            swap_cands: Vec::new(),
        }
    }

    /// Proposes a random move: a movable entity (uniform over `movers`)
    /// goes to a free site of its kind or swaps with a movable sibling, in
    /// either case within Chebyshev radius `r` of its site. `None` when the
    /// window holds neither. With every entity movable, `movers` lists
    /// CLBs, then BRAMs, then IOBs, so the pick is population-weighted
    /// across kinds.
    ///
    /// Free sites are drawn in pool order and partners in entity-index
    /// order. A window smaller than the pool plus the kind's entities is
    /// read off the occupancy grid and sorted into that order; a larger
    /// one is scanned from the lists. Both give the same candidates, so
    /// the RNG draws and the move do not depend on the path.
    fn propose(
        &mut self,
        rng: &mut SmallRng,
        movers: &[(usize, usize)],
        locs: &Locs,
        movable: &Mask,
        r: f64,
    ) -> Option<Move> {
        let (kind, idx) = movers[rng.random_range(0..movers.len())];
        let from = locs[kind][idx];
        // Distances are integers, so `d <= r` is `d <= floor(r)`.
        let reach = r as usize;
        let in_window = |s: (usize, usize)| s.0.abs_diff(from.0).max(s.1.abs_diff(from.1)) <= reach;
        let pool = &self.free[kind];
        let occ = &self.occupancy[kind];
        let xs = from.0.saturating_sub(reach)..=from.0.saturating_add(reach).min(occ.width - 1);
        let ys = from.1.saturating_sub(reach)..=from.1.saturating_add(reach).min(occ.height - 1);
        self.free_cands.clear();
        self.swap_cands.clear();
        if xs.clone().count() * ys.clone().count() <= pool.len() + locs[kind].len() {
            for x in xs {
                for y in ys.clone() {
                    match occ.get((x, y)) {
                        Holder::Free(f) => self.free_cands.push(f),
                        Holder::Entity(o) if o != idx && movable[kind][o] => {
                            self.swap_cands.push(o);
                        }
                        _ => {}
                    }
                }
            }
            self.free_cands.sort_unstable();
            self.swap_cands.sort_unstable();
        } else {
            self.free_cands
                .extend((0..pool.len()).filter(|&f| in_window(pool[f])));
            self.swap_cands.extend(
                (0..locs[kind].len())
                    .filter(|&o| o != idx && movable[kind][o] && in_window(locs[kind][o])),
            );
        }
        let (free_cands, swap_cands) = (&self.free_cands, &self.swap_cands);
        let use_free = !free_cands.is_empty() && (swap_cands.is_empty() || rng.random_bool(0.5));
        let (other, to) = if use_free {
            let f = free_cands[rng.random_range(0..free_cands.len())];
            (None, pool[f])
        } else if !swap_cands.is_empty() {
            let o = swap_cands[rng.random_range(0..swap_cands.len())];
            (Some(o), locs[kind][o])
        } else {
            return None;
        };
        Some(Move {
            kind,
            idx,
            other,
            from,
            to,
        })
    }

    /// Records an accepted move: a free move takes its target out of the
    /// pool (the pool's last site fills the gap) and appends the vacated
    /// site.
    fn commit(&mut self, mv: &Move) {
        let occ = &mut self.occupancy[mv.kind];
        match mv.other {
            None => {
                if let Holder::Free(pos) = occ.get(mv.to) {
                    let pool = &mut self.free[mv.kind];
                    pool.swap_remove(pos);
                    if let Some(&filled) = pool.get(pos) {
                        occ.set(filled, Holder::Free(pos));
                    }
                    pool.push(mv.from);
                    occ.set(mv.from, Holder::Free(pool.len() - 1));
                }
            }
            Some(o) => occ.set(mv.from, Holder::Entity(o)),
        }
        occ.set(mv.to, Holder::Entity(mv.idx));
    }
}

/// Deterministic greedy descent over the full single-move neighborhood
/// (every free site and every same-type swap, best improvement per
/// entity), repeated until a full pass finds no improving move. The
/// annealer uses it to turn the seed layout into a baseline local optimum
/// before annealing, to polish each reheat's incumbent, and to polish the
/// winner — so the returned placement can never be worse than plain
/// descent, whatever the effort. (The first real run of the suite caught
/// a high-effort anneal freezing at HPWL 17 on a layout where low effort
/// reached 8; this phase is the in-source fix.)
///
/// Moves are ranked lexicographically by (Σ hpwl, Σ hpwl²): the linear
/// term is the cost [`place`] reports, and the quadratic term breaks the
/// abundant integer-HPWL ties toward layouts without individually long
/// nets — a cheap timing proxy, since the critical path is hostage to
/// its longest hops. Total HPWL never increases, so the effort-
/// monotonicity argument above is unaffected.
/// Only entities whose `movable` entry is `true` are relocated, and swap
/// partners are restricted to movable siblings — pinned entities keep
/// their exact coordinates.
/// When `timing` is given, the linear term is the frozen effective cost
/// `Σ coef·hpwl` instead of raw HPWL, so the descent pulls critical nets
/// in harder than don't-care ones; `None` is the wirelength-only descent.
///
/// Scoring is incremental and exact (after VPR's bounding-box update,
/// Betz & Rose 1997). The "before" side reads one cached box per net.
/// Each movable pin also keeps the box of its net without that pin, so a
/// free-site candidate costs one [`NetBox::grown`] per net. A swap is
/// scored in one merge of the two entities' ascending net lists; a net
/// both entities touch keeps its box. Only the nets an accepted move
/// touches are re-boxed. Every per-net HPWL is the integer a rescan gives
/// and is summed in the same net order, so every delta, every `beats`
/// verdict and the resulting layout equal the rescan's.
fn quench(
    nets: &NetModel,
    sites: &Locs,
    locs: &mut Locs,
    movable: &Mask,
    timing: Option<&TimingCtx>,
) {
    let mut free = free_sites(locs, sites);
    // `beats` implements the lexicographic (Δlin, Δsq) order with a small
    // epsilon so f64 noise cannot masquerade as progress (deltas are
    // integer-valued in exact arithmetic).
    let beats = |cand: (f64, f64), incumbent: (f64, f64)| -> bool {
        cand.0 < incumbent.0 - 1e-9 || (cand.0 < incumbent.0 + 1e-9 && cand.1 < incumbent.1 - 1e-9)
    };
    // The linear term's per-net weight; `1.0 · h` is exactly `h`.
    let weight = |n: NetId| timing.map_or(1.0, |t| t.coef[n.index()]);
    let add = |(lin, sq): (f64, f64), w: f64, h: f64| (lin + w * h, sq + h * h);
    let mut boxes = vec![NetBox::EMPTY; nets.pins.len()];
    let mut excl = vec![NetBox::EMPTY; nets.pin_base.last().copied().unwrap_or(0)];
    // With no negative weight the linear sum only grows net by net, so a
    // free-site candidate whose partial delta already fails `beats` is
    // dropped unfinished: float addition and subtraction are monotone, so
    // the verdict is the one the full sum would give.
    let monotone = timing.is_none_or(|t| nets.active.iter().all(|n| t.coef[n.index()] >= 0.0));
    for &n in &nets.active {
        nets.rebox(n, locs, movable, &mut boxes, &mut excl);
    }
    // The entity being scored: (weight, box without its pin) per net.
    let mut mine: Vec<(f64, NetBox)> = Vec::new();
    for _ in 0..16 {
        let mut improved = false;
        for kind in 0..3usize {
            for idx in 0..locs[kind].len() {
                let my_nets = &nets.of_entity[kind][idx];
                if !movable[kind][idx] || my_nets.is_empty() {
                    continue;
                }
                let cur_site = locs[kind][idx];
                let before = my_nets.iter().fold((0.0, 0.0), |acc, p| {
                    add(acc, weight(p.net), boxes[p.net.index()].hpwl)
                });
                mine.clear();
                mine.extend(my_nets.iter().map(|p| (weight(p.net), excl[p.slot])));
                let mut best_delta = (0.0f64, 0.0f64);
                // (free-pool index, or swap partner; target site)
                let mut best_move: Option<(Result<usize, usize>, (usize, usize))> = None;
                'site: for (f, &site) in free[kind].iter().enumerate() {
                    let mut after = (0.0, 0.0);
                    for (w, b) in &mine {
                        after = add(after, *w, b.grown(site).hpwl);
                        if monotone && after.0 - before.0 >= best_delta.0 + 1e-9 {
                            continue 'site;
                        }
                    }
                    let delta = (after.0 - before.0, after.1 - before.1);
                    if beats(delta, best_delta) {
                        best_delta = delta;
                        best_move = Some((Ok(f), site));
                    }
                }
                for o in 0..locs[kind].len() {
                    if o == idx || !movable[kind][o] {
                        continue;
                    }
                    let to = locs[kind][o];
                    let (mut b0, mut a0) = ((0.0, 0.0), (0.0, 0.0));
                    for (n, my_slot, their_slot) in merged(my_nets, &nets.of_entity[kind][o]) {
                        let h = boxes[n.index()].hpwl;
                        let h_after = match (my_slot, their_slot) {
                            (Some(s), None) => excl[s].grown(to).hpwl,
                            (None, Some(s)) => excl[s].grown(cur_site).hpwl,
                            _ => h,
                        };
                        let w = weight(n);
                        b0 = add(b0, w, h);
                        a0 = add(a0, w, h_after);
                    }
                    let delta = (a0.0 - b0.0, a0.1 - b0.1);
                    if beats(delta, best_delta) {
                        best_delta = delta;
                        best_move = Some((Err(o), to));
                    }
                }
                match best_move {
                    Some((Ok(f), site)) => {
                        locs[kind][idx] = site;
                        free[kind].swap_remove(f);
                        free[kind].push(cur_site);
                    }
                    Some((Err(o), site)) => {
                        locs[kind][o] = cur_site;
                        locs[kind][idx] = site;
                        for p in &nets.of_entity[kind][o] {
                            nets.rebox(p.net, locs, movable, &mut boxes, &mut excl);
                        }
                    }
                    None => continue,
                }
                for p in my_nets {
                    nets.rebox(p.net, locs, movable, &mut boxes, &mut excl);
                }
                debug_assert!(
                    nets.boxes_match(locs, movable, &boxes, &excl),
                    "quench box cache diverged from a rescan"
                );
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Runs one placement arm (`arm(opts)`) or, with the timing term enabled
/// (`timing_weight > 0`), a *guarded pair*: the wirelength-only arm
/// (bit-identical to a `timing_weight = 0` run) and the
/// criticality-weighted arm both run, and the candidate with the smaller
/// STA estimate ([`crate::sta::estimate_critical_ns`] over HPWL-derived
/// wire delays) wins; an exact tie falls to the better `(hpwl, hpwl_sq)`
/// pair, then to the blind arm. The chosen estimate is therefore never
/// worse than wirelength-only placement — deterministically, per design,
/// not just in expectation. `moves` and `budget` report the combined
/// spend of both arms (so the effective move budget is up to
/// `2 · max_moves`).
fn pick_guarded(
    netlist: &Netlist,
    packed: &PackedDesign,
    opts: &PlaceOptions,
    arm: impl Fn(&PlaceOptions) -> Placement,
) -> Placement {
    if opts.timing_weight <= 0.0 || opts.timing_weight.is_nan() {
        return arm(opts);
    }
    let blind = arm(&PlaceOptions {
        timing_weight: 0.0,
        ..*opts
    });
    let timed = arm(opts);
    let estimate = |p: &Placement| {
        crate::sta::estimate_critical_ns(netlist, packed, p, &opts.delay).unwrap_or(f64::INFINITY)
    };
    let (blind_ns, timed_ns) = (estimate(&blind), estimate(&timed));
    let moves = blind.moves + timed.moves;
    let exhausted = blind.budget.is_exhausted() || timed.budget.is_exhausted();
    let timed_wins = timed_ns < blind_ns
        || (timed_ns == blind_ns && (timed.hpwl, timed.hpwl_sq) < (blind.hpwl, blind.hpwl_sq));
    let mut chosen = if timed_wins { timed } else { blind };
    chosen.moves = moves;
    chosen.budget = if exhausted {
        BudgetOutcome::Exhausted { spent: moves }
    } else {
        BudgetOutcome::Completed
    };
    chosen
}

/// Places a packed design on a device: every entity is movable, seeded on
/// the first sites of its kind and annealed on the full schedule.
///
/// With the timing term enabled (`timing_weight > 0`) this is the guarded
/// pair of anneals [`pick_guarded`] describes. The guard is what lets
/// `scripts/verify.sh` require the placer's fmax estimate to be no worse
/// than wirelength-only placement on every paper benchmark, not merely in
/// geomean; [`Placement::moves`] then reports the combined spend of both
/// arms.
///
/// # Errors
///
/// Fails with [`PlaceError::DoesNotFit`] if any resource is exhausted.
pub fn place(
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    opts: PlaceOptions,
) -> Result<Placement, PlaceError> {
    let (sites, overflow) = sites_for(packed, &device);
    if let Some((what, need, have)) = overflow {
        return Err(PlaceError::DoesNotFit { what, need, have });
    }
    let counts = [packed.clbs.len(), packed.brams.len(), packed.iobs.len()];
    let seed: Locs = std::array::from_fn(|k| sites[k][..counts[k]].to_vec());
    let movable: Mask = counts.map(|n| vec![true; n]);
    let nets = NetModel::new(netlist, packed);
    Ok(pick_guarded(netlist, packed, &opts, |o| {
        anneal(
            netlist,
            &nets,
            device,
            &sites,
            seed.clone(),
            &movable,
            o,
            Schedule::full(o),
        )
    }))
}

/// A finished placement of `locs`, with its exact costs.
fn finish(
    device: Device,
    locs: Locs,
    nets: &NetModel,
    moves: u64,
    budget: BudgetOutcome,
) -> Placement {
    let (hpwl, hpwl_sq) = nets.cost(&locs);
    let [clb_loc, bram_loc, iob_loc] = locs;
    Placement {
        device,
        clb_loc,
        bram_loc,
        iob_loc,
        hpwl,
        hpwl_sq,
        moves,
        budget,
    }
}

/// The annealer shared by [`place`] and [`place_incremental`]: one arm
/// (wirelength-only at `timing_weight = 0`, criticality-weighted
/// otherwise) over the `movable` entities of the seed layout `locs`; the
/// others never leave their sites.
///
/// The walk quenches the seed into a local optimum, measures T0 there,
/// and anneals with VPR range limiting and best-seen tracking; `schedule`
/// decides cooling, level budgets, exit, reheats and the sideways bias.
/// The best layout seen is polished by a final quench and returned.
#[allow(clippy::too_many_arguments)]
fn anneal(
    netlist: &Netlist,
    nets: &NetModel,
    device: Device,
    sites: &Locs,
    mut locs: Locs,
    movable: &Mask,
    opts: &PlaceOptions,
    schedule: Schedule,
) -> Placement {
    // Movable entities, flattened for uniform random picks.
    let movers: Vec<(usize, usize)> = (0..3)
        .flat_map(|k| {
            (0..movable[k].len())
                .filter(move |&i| movable[k][i])
                .map(move |i| (k, i))
        })
        .collect();
    if movers.is_empty() || nets.active.is_empty() {
        return finish(device, locs, nets, 0, BudgetOutcome::Completed);
    }
    let seed_cost = nets.cost(&locs).0;

    // Timing-driven mode: one incremental STA kernel for the whole anneal
    // (built here, re-timed and re-frozen once per level).
    // `timing_weight = 0` skips all of it and the walk below is
    // byte-identical to the wirelength-only placer.
    let mut timing = if opts.timing_weight > 0.0 {
        TimingCtx::build(netlist, opts)
    } else {
        None
    };

    // Deterministic descent baseline: quench the seed layout into a local
    // optimum. The anneal explores FROM this quenched layout — a fixed-T0
    // schedule had to start from the raw seed (its hand-picked T0 was
    // calibrated against the seed's average net cost; starting it
    // quenched left the walk too cold to escape the baseline's basin),
    // burning more than half its moves re-descending to costs the quench
    // had already reached. With T0 *measured* at the quenched layout
    // (below), the walk starts exactly warm enough to hop between nearby
    // basins without losing what the descent already won — and best-seen
    // tracking starts at the baseline, so no effort level can return
    // anything worse than plain greedy descent.
    quench(nets, sites, &mut locs, movable, None);
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ schedule.salt);
    // Free-site pools per type (the quench may have moved entities onto
    // any site, so derive the pools from actual occupancy).
    let mut pools = Pools::new(&locs, sites);
    let mut affected = Affected::default();

    // VPR-style range limiting: moves are confined to a window of radius
    // `rlim` around the entity, and the window shrinks as the acceptance
    // rate drops (target ~44%, Betz & Rose). Without it, low-temperature
    // proposals are device-wide jumps that are almost always rejected, so
    // a high-effort walk freezes wherever the hot phase left it instead of
    // refining locally. The walk starts from a local optimum, so it opens
    // with a *basin hop* window — a few sites wide — rather than the
    // device-wide window a melt would use (rlim can re-grow if the
    // acceptance rate says the reheat overshot).
    let span = sites
        .iter()
        .flatten()
        .map(|&(x, y)| x.max(y))
        .max()
        .unwrap_or(1) as f64;
    let w0 = (span / 4.0).clamp(2.0, span);

    // Adaptive initial temperature (VPR, after Betz & Rose): probe the
    // move distribution by evaluating — not keeping — a batch of random
    // moves from the quenched layout *within the starting window*, and
    // set T0 to a third of the stddev of the sampled deltas: a typical
    // local perturbation is accepted with modest odds — a reheat, not a
    // melt. The textbook 20σ (99% acceptance) re-randomizes the quenched
    // layout into a random walk whose whole descent best-seen tracking
    // then ignores, and even 1σ was measured to climb hundreds of cost
    // units before cooling caught up.
    let t0 = {
        let (per_entity, min, max) = schedule.t0_samples;
        let mut deltas: Vec<f64> = Vec::new();
        for _ in 0..(movers.len() * per_entity).clamp(min, max) {
            let Some(mv) = pools.propose(&mut rng, &movers, &locs, movable, w0) else {
                continue;
            };
            nets.affected(mv.kind, mv.idx, mv.other, &mut affected);
            let before = nets.cost_of(&affected.nets, &locs, None).0;
            mv.apply(&mut locs);
            let after = nets.cost_of(&affected.nets, &locs, None).0;
            mv.revert(&mut locs);
            deltas.push(after - before);
        }
        let n = deltas.len() as f64;
        let sd = if deltas.is_empty() {
            0.0
        } else {
            let mean = deltas.iter().sum::<f64>() / n;
            (deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n).sqrt()
        };
        if sd > 0.0 {
            sd / 3.0
        } else if schedule.t0_fallback_from_seed {
            (seed_cost / nets.active.len().max(1) as f64).max(1.0) * 2.0
        } else {
            1.0
        }
    };

    // The walk returns the BEST configuration it visits, not the final
    // one: at nonzero temperature the walk may drift uphill just before
    // freezing, which made high-effort runs occasionally finish worse
    // than low-effort ones (caught by `annealing_improves_over_initial`).
    let mut cur_cost = nets.cost(&locs).0;
    let mut best_cost = cur_cost;
    let mut best = locs.clone();
    // Per-net bounding-box cache: the walk's layout-before cost is read
    // from here; accepted moves write the recomputed boxes of their
    // affected nets back, so the cache tracks the layout exactly.
    let mut net_box = nets.boxes(&locs);
    let mut box_scratch: Vec<NetBox> = Vec::new();
    // Effective (timing-blended) costs the walk actually optimizes; at
    // `timing_weight = 0` they mirror the HPWL costs exactly.
    let mut cur_eff = cur_cost;
    let mut best_eff = best_cost;
    if let Some(t) = timing.as_mut() {
        t.refresh(&nets.active, &net_box);
        cur_eff = t.eff_from_boxes(&nets.active, &net_box);
        best_eff = cur_eff;
    }
    let (mid_moves, full_moves) = schedule.level_moves(movers.len());
    let mut moves_per_t = mid_moves;
    let mut temperature = t0;
    // VPR exit test: stop once T falls below a small fraction of the
    // average net cost — past that point even unit-sized uphill steps are
    // essentially never accepted, so further levels are pure descent,
    // which the closing quench performs exactly. The adaptive schedule
    // tracks the *current* cost, so a walk that finds a much better
    // layout also earns an earlier exit.
    let exit_at = |cost: f64| (0.005 * cost / nets.active.len() as f64).max(1e-6);
    let start_exit = exit_at(cur_cost);
    let mut rlim = w0;
    let mut moves_spent = 0u64;
    let mut budget = BudgetOutcome::Completed;
    // Iterated reheats (basin hopping): each cycle reheats the best-seen
    // layout and cools back to the exit temperature. A single reheat is a
    // coin flip — it either tunnels to a better basin or drifts somewhere
    // unhelpful and gets discarded by best-seen tracking — so splitting
    // the move budget across independent cycles from the incumbent buys a
    // second (and third) draw at the cost of none.
    let mut cycle = 0u32;
    'outer: loop {
        while temperature
            > if schedule.adaptive {
                exit_at(cur_cost)
            } else {
                start_exit
            }
        {
            let mut accepted = 0usize;
            for _ in 0..moves_per_t {
                if moves_spent >= opts.max_moves {
                    budget = BudgetOutcome::Exhausted { spent: moves_spent };
                    break 'outer;
                }
                moves_spent += 1;
                let Some(mv) = pools.propose(&mut rng, &movers, &locs, movable, rlim) else {
                    continue;
                };
                // Delta cost over affected nets only.
                nets.affected(mv.kind, mv.idx, mv.other, &mut affected);
                // Layout-before cost from the bounding-box cache: one
                // lookup per affected net instead of a rescan of every
                // pin. Every HPWL is an integer-valued f64 and the fold
                // order matches a rescan, so the sums are bit-identical;
                // debug builds recompute the boxes from coordinates and
                // insist on exact equality.
                let before: (f64, f64) = affected.nets.iter().fold((0.0, 0.0), |(lin, sq), n| {
                    let h = net_box[n.index()].hpwl;
                    (lin + h, sq + h * h)
                });
                debug_assert!(
                    affected.nets.iter().all(|n| net_box[n.index()]
                        == NetBox::compute(&nets.pins[n.index()], &|e| at(&locs, e))),
                    "stale bounding-box cache on nets {:?}",
                    affected.nets
                );
                mv.apply(&mut locs);
                // Layout-after boxes: the cached box grown by the moved
                // pin's new site, or a rescan when the pin left the box's
                // edge (only then can the box shrink). They land in a
                // scratch so an accepted move installs them as they are.
                box_scratch.clear();
                let mut early_reject = false;
                let mut after = (0.0, 0.0);
                // Early-exit rejection (timing mode): Σ coef·after_hpwl
                // only grows as nets are rescanned (coef ≥ 0, hpwl ≥ 0),
                // so once it clears Σ coef·before_hpwl + 20·T the
                // effective delta is ≥ 20·T and Metropolis acceptance is
                // ~e⁻²⁰ — abandon the rescan and the RNG draw. (Timing
                // mode only: skipping draws would shift the
                // wirelength-only RNG stream.)
                let early_exit = timing.as_ref().map(|t| {
                    let before_eff: f64 = affected
                        .nets
                        .iter()
                        .map(|n| t.coef[n.index()] * net_box[n.index()].hpwl)
                        .sum();
                    (t, before_eff + 20.0 * temperature)
                });
                let mut eff = 0.0;
                for (&n, &touch) in affected.nets.iter().zip(&affected.touch) {
                    let b = nets.box_after(n, touch, net_box[n.index()], &mv, &locs);
                    debug_assert!(
                        b == NetBox::compute(&nets.pins[n.index()], &|e| at(&locs, e)),
                        "incremental after-box of net {n:?} diverged from a rescan"
                    );
                    box_scratch.push(b);
                    after = (after.0 + b.hpwl, after.1 + b.hpwl * b.hpwl);
                    if let Some((t, bar)) = early_exit {
                        eff += t.coef[n.index()] * b.hpwl;
                        if eff > bar {
                            early_reject = true;
                            break;
                        }
                    }
                }
                if early_reject {
                    mv.revert(&mut locs);
                    continue;
                }
                let delta = after.0 - before.0;
                let delta_sq = after.1 - before.1;
                // The Metropolis test runs on the effective (timing-blended)
                // delta; without a timing context it IS the wirelength delta,
                // so the `timing_weight = 0` decision stream is untouched.
                let delta_eff = match timing.as_ref() {
                    Some(t) => affected
                        .nets
                        .iter()
                        .zip(&box_scratch)
                        .map(|(n, b)| t.coef[n.index()] * (b.hpwl - net_box[n.index()].hpwl))
                        .sum(),
                    None => delta,
                };
                // Zero-cost moves are plateau diffusion. With the sideways
                // bias they are judged by the quadratic tie-breaker the
                // quench optimizes, so shelf drift trades equal-HPWL
                // configurations toward ones without individually long
                // nets (better Σhpwl² for free, and more descent openings
                // for the closing quench); strictly sq-worsening steps face
                // the same Metropolis test, scaled down so the quadratic
                // term stays a tie-breaker rather than a second objective.
                let accept = if delta_eff < -1e-9 {
                    true
                } else if delta_eff < 1e-9 {
                    !schedule.sideways_bias
                        || delta_sq < 1e-9
                        || rng.random_bool((-delta_sq / (8.0 * temperature)).exp().min(1.0))
                } else {
                    rng.random_bool((-delta_eff / temperature).exp().min(1.0))
                };
                if !accept {
                    mv.revert(&mut locs);
                    continue;
                }
                accepted += 1;
                cur_cost += delta;
                for (&n, &b) in affected.nets.iter().zip(&box_scratch) {
                    net_box[n.index()] = b;
                }
                if timing.is_some() {
                    cur_eff += delta_eff;
                    if cur_eff < best_eff {
                        best_eff = cur_eff;
                        best_cost = cur_cost;
                        best = locs.clone();
                    }
                } else if cur_cost < best_cost {
                    best_cost = cur_cost;
                    best = locs.clone();
                }
                pools.commit(&mv);
            }
            let success = accepted as f64 / moves_per_t.max(1) as f64;
            temperature *= schedule.cooling(success);
            // Shrink (or re-grow) the window toward the 44% acceptance sweet
            // spot: rlim_new = rlim · (0.56 + success_rate), clamped.
            rlim = (rlim * (0.56 + success)).clamp(1.0, span);
            moves_per_t = if success > 0.05 && success <= 0.15 {
                full_moves
            } else {
                mid_moves
            };
            // Re-anchor the incremental cost per level so f64 drift cannot
            // accumulate across tens of thousands of accepted deltas. The
            // cached boxes carry exact integer-valued HPWLs summed in the
            // same net order as a full recompute, so the anchor is
            // bit-identical to it — debug builds check exactly that.
            cur_cost = nets.active.iter().map(|n| net_box[n.index()].hpwl).sum();
            debug_assert!(
                cur_cost == nets.cost(&locs).0,
                "bounding-box cache re-anchor diverged from recomputed HPWL"
            );
            // Re-freeze the criticality coefficients once per level and
            // re-anchor both effective costs under them (the best-seen
            // snapshot is re-scored so the comparison stays like-for-like).
            if let Some(t) = timing.as_mut() {
                t.refresh(&nets.active, &net_box);
                cur_eff = t.eff_from_boxes(&nets.active, &net_box);
                best_eff = t.eff_from_locs(nets, &best);
            }
        }

        cycle += 1;
        if cycle > schedule.reheat_cycles {
            break;
        }
        // Reheat (basin hopping with local search): quench the best-seen
        // layout into its local optimum — the walk's winner is usually
        // still a few greedy steps above its basin floor — then restart
        // the walk from that polished incumbent with the opening window.
        // Each cycle therefore launches from a layout at least as good as
        // the previous cycle's polished result, and best-seen tracking
        // keeps whichever basin floor was deepest.
        locs = best.clone();
        quench(nets, sites, &mut locs, movable, timing.as_ref());
        pools = Pools::new(&locs, sites);
        // The quench moved entities without maintaining the cache.
        net_box = nets.boxes(&locs);
        cur_cost = nets.cost(&locs).0;
        best_cost = cur_cost;
        best = locs.clone();
        if let Some(t) = timing.as_mut() {
            t.refresh(&nets.active, &net_box);
            cur_eff = t.eff_from_boxes(&nets.active, &net_box);
            best_eff = cur_eff;
        }
        // The reheat is gentle — a fraction of the first cycle's t0.
        // Re-melting all the way destroys the incumbent (the walk climbs
        // hundreds of cost units and rarely finds its way back down to a
        // deeper basin); a low reheat does extended plateau exploration
        // around the incumbent, which is where deeper basins actually
        // get found at this problem scale.
        temperature = t0 / 8.0;
        rlim = w0;
        moves_per_t = mid_moves;
    }

    // Exact costs decide between the walk's end point and its best-seen
    // snapshot (the incremental tracker is only a heuristic trigger). In
    // timing mode the comparison runs on the effective cost under the
    // final frozen coefficients — the objective the walk was pursuing.
    let restore_best = match timing.as_ref() {
        Some(t) => t.eff_from_locs(nets, &best) < t.eff_from_locs(nets, &locs),
        None => nets.cost(&best).0 < nets.cost(&locs).0,
    };
    if restore_best {
        locs = best;
    }
    // Polish the winner with the same deterministic descent (criticality-
    // weighted in timing mode, under the final frozen coefficients).
    quench(nets, sites, &mut locs, movable, timing.as_ref());
    finish(device, locs, nets, moves_spent, budget)
}

/// Per-entity pin map for ECO placement: `Some(site)` pins the entity at
/// that exact coordinate, `None` leaves it movable. Vectors are indexed
/// like the corresponding `PackedDesign` entity lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedEntities {
    /// CLB pins (indexed like `PackedDesign::clbs`).
    pub clb: Vec<Option<(usize, usize)>>,
    /// BRAM pins.
    pub bram: Vec<Option<(usize, usize)>>,
    /// IOB pins.
    pub iob: Vec<Option<(usize, usize)>>,
}

impl PinnedEntities {
    /// Pins every entity of `packed` that exists in the base placement at
    /// the base's coordinates, leaving entities beyond the base prefix
    /// movable. This is the ECO contract for the clock-control rewrite:
    /// the gated design's packed entities are the plain design's entities
    /// followed by the appended enable-cone CLBs, so the base prefix pins
    /// verbatim and only the cone is placed.
    #[must_use]
    pub fn pin_base(base: &Placement, packed: &PackedDesign) -> PinnedEntities {
        let prefix = |locs: &[(usize, usize)], n: usize| -> Vec<Option<(usize, usize)>> {
            (0..n)
                .map(|i| if i < locs.len() { Some(locs[i]) } else { None })
                .collect()
        };
        PinnedEntities {
            clb: prefix(&base.clb_loc, packed.clbs.len()),
            bram: prefix(&base.bram_loc, packed.brams.len()),
            iob: prefix(&base.iob_loc, packed.iobs.len()),
        }
    }

    /// Number of pinned entities across all kinds.
    #[must_use]
    pub fn pinned_count(&self) -> usize {
        [&self.clb, &self.bram, &self.iob]
            .into_iter()
            .map(|v| v.iter().filter(|p| p.is_some()).count())
            .sum()
    }

    /// Number of movable (unpinned) entities across all kinds.
    #[must_use]
    pub fn movable_count(&self) -> usize {
        self.clb.len() + self.bram.len() + self.iob.len() - self.pinned_count()
    }
}

/// Errors from incremental (ECO) placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoPlaceError {
    /// The design does not fit the device.
    DoesNotFit {
        /// What overflowed ("CLBs", "BRAMs" or "IOBs").
        what: &'static str,
        /// Required count.
        need: usize,
        /// Available sites.
        have: usize,
    },
    /// The pin map's length disagrees with the packed design.
    PinCount {
        /// Which entity kind disagreed.
        what: &'static str,
        /// Pin-map entries for that kind.
        pins: usize,
        /// Packed entities of that kind.
        entities: usize,
    },
    /// A pinned coordinate is not a legal site of that kind on the device.
    IllegalPin {
        /// Which entity kind.
        what: &'static str,
        /// Entity index within the kind.
        index: usize,
        /// The offending coordinate.
        site: (usize, usize),
    },
    /// Two entities of the same kind are pinned (or placed) on one site.
    DuplicatePin {
        /// Which entity kind.
        what: &'static str,
        /// Entity index of the second occupant.
        index: usize,
        /// The contested site.
        site: (usize, usize),
    },
    /// Post-placement self-check: a pinned entity is not at its pin.
    PinMoved {
        /// Which entity kind.
        what: &'static str,
        /// Entity index within the kind.
        index: usize,
        /// Where the pin says the entity must be.
        expected: (usize, usize),
        /// Where the placement actually put it.
        got: (usize, usize),
    },
}

impl fmt::Display for EcoPlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoPlaceError::DoesNotFit { what, need, have } => {
                write!(f, "eco: design needs {need} {what}, device has {have}")
            }
            EcoPlaceError::PinCount {
                what,
                pins,
                entities,
            } => write!(
                f,
                "eco: pin map has {pins} {what} entries for {entities} entities"
            ),
            EcoPlaceError::IllegalPin { what, index, site } => {
                write!(f, "eco: {what} {index} pinned at illegal site {site:?}")
            }
            EcoPlaceError::DuplicatePin { what, index, site } => {
                write!(f, "eco: {what} {index} duplicates occupied site {site:?}")
            }
            EcoPlaceError::PinMoved {
                what,
                index,
                expected,
                got,
            } => write!(
                f,
                "eco: {what} {index} pinned at {expected:?} but placed at {got:?}"
            ),
        }
    }
}

impl std::error::Error for EcoPlaceError {}

/// Result of an incremental (ECO) placement: the full placement plus the
/// ECO accounting the flow report surfaces.
#[derive(Debug, Clone)]
pub struct EcoPlacement {
    /// The complete placement (pinned entities at their pins, movable
    /// entities wherever the delta anneal left them).
    pub placement: Placement,
    /// How many entities were pinned.
    pub pinned_entities: usize,
    /// How many entities the delta anneal placed.
    pub delta_entities: usize,
    /// Σ HPWL over the nets touching at least one movable entity — the
    /// wirelength actually decided by the ECO pass.
    pub delta_hpwl: f64,
}

/// Checks a placement against a pin map: lengths agree, every pinned
/// entity sits exactly at its pin, every location is a legal site of its
/// kind, and no two entities of a kind share a site.
///
/// # Errors
///
/// The first violated invariant, as a typed [`EcoPlaceError`].
pub fn verify_eco_placement(
    placement: &Placement,
    pins: &PinnedEntities,
) -> Result<(), EcoPlaceError> {
    let d = &placement.device;
    let kinds = [
        (&pins.clb, &placement.clb_loc, d.clb_sites()),
        (&pins.bram, &placement.bram_loc, d.bram_sites()),
        (&pins.iob, &placement.iob_loc, d.iob_sites()),
    ];
    for (what, (pin, loc, sites)) in KINDS.into_iter().zip(kinds) {
        if pin.len() != loc.len() {
            return Err(EcoPlaceError::PinCount {
                what,
                pins: pin.len(),
                entities: loc.len(),
            });
        }
        let legal: std::collections::HashSet<(usize, usize)> = sites.iter().copied().collect();
        let mut used: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for (index, &site) in loc.iter().enumerate() {
            if !legal.contains(&site) {
                return Err(EcoPlaceError::IllegalPin { what, index, site });
            }
            if !used.insert(site) {
                return Err(EcoPlaceError::DuplicatePin { what, index, site });
            }
            if let Some(expected) = pin[index] {
                if site != expected {
                    return Err(EcoPlaceError::PinMoved {
                        what,
                        index,
                        expected,
                        got: site,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Validates one kind's pins and seeds its layout: pinned entities at
/// their pins, movable entities on the first free sites (the annealer's
/// opening quench turns the seed into a baseline local optimum).
fn seed_pinned(
    pin: &[Option<(usize, usize)>],
    sites: &[(usize, usize)],
    what: &'static str,
) -> Result<Vec<(usize, usize)>, EcoPlaceError> {
    let legal: std::collections::HashSet<(usize, usize)> = sites.iter().copied().collect();
    let mut used: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    for (index, p) in pin.iter().enumerate() {
        if let Some(site) = *p {
            if !legal.contains(&site) {
                return Err(EcoPlaceError::IllegalPin { what, index, site });
            }
            if !used.insert(site) {
                return Err(EcoPlaceError::DuplicatePin { what, index, site });
            }
        }
    }
    let mut free = sites.iter().copied().filter(|s| !used.contains(s));
    pin.iter()
        .map(|p| match *p {
            Some(site) => Ok(site),
            // Capacity was checked by the caller, so a free site exists.
            None => free.next().ok_or(EcoPlaceError::DoesNotFit {
                what,
                need: pin.len(),
                have: sites.len(),
            }),
        })
        .collect()
}

/// Incremental (ECO) placement: pinned entities keep their exact
/// coordinates; only the movable delta is placed, by the same annealer as
/// [`place`] restricted to the movable entities and run on the ECO
/// schedule (a short fixed-rate cooldown, no reheats). The returned
/// placement is self-checked with [`verify_eco_placement`] before it
/// leaves this function.
///
/// With the timing term enabled (`timing_weight > 0`) the delta anneal is
/// a *guarded pair*, exactly like [`place`]: the blind arm (bit-identical
/// to a `timing_weight = 0` run) and the criticality-weighted arm both
/// run against the same pin map, and the arm with the better STA estimate
/// wins (ties fall to the better wirelength pair, then to the blind arm).
/// The gated design's fmax estimate is therefore never worse than the
/// blind-ECO baseline, per benchmark, by construction —
/// `tests/timing_quality.rs` pins that property over the paper suite.
///
/// # Errors
///
/// Typed [`EcoPlaceError`] on capacity overflow, a malformed pin map, or a
/// failed post-placement self-check.
pub fn place_incremental(
    netlist: &Netlist,
    packed: &PackedDesign,
    device: Device,
    opts: PlaceOptions,
    pins_map: &PinnedEntities,
) -> Result<EcoPlacement, EcoPlaceError> {
    let (sites, overflow) = sites_for(packed, &device);
    if let Some((what, need, have)) = overflow {
        return Err(EcoPlaceError::DoesNotFit { what, need, have });
    }
    let pin_kinds = [&pins_map.clb, &pins_map.bram, &pins_map.iob];
    let counts = [packed.clbs.len(), packed.brams.len(), packed.iobs.len()];
    for k in 0..3 {
        if pin_kinds[k].len() != counts[k] {
            return Err(EcoPlaceError::PinCount {
                what: KINDS[k],
                pins: pin_kinds[k].len(),
                entities: counts[k],
            });
        }
    }
    let mut seed = Locs::default();
    for k in 0..3 {
        seed[k] = seed_pinned(pin_kinds[k], &sites[k], KINDS[k])?;
    }
    let movable: Mask = pin_kinds.map(|pins| pins.iter().map(Option::is_none).collect());
    let nets = NetModel::new(netlist, packed);
    let placement = pick_guarded(netlist, packed, &opts, |o| {
        anneal(
            netlist,
            &nets,
            device,
            &sites,
            seed.clone(),
            &movable,
            o,
            Schedule::eco(o),
        )
    });
    // The wirelength actually decided by this pass: nets touching at
    // least one movable entity.
    let delta_hpwl: f64 = nets
        .active
        .iter()
        .filter(|n| {
            nets.pins[n.index()].iter().any(|&e| {
                let (kind, idx) = kind_of(e);
                movable[kind][idx]
            })
        })
        .map(|n| hpwl_of_net(&nets.pins[n.index()], &|e| placement.location(e)))
        .sum();
    verify_eco_placement(&placement, pins_map)?;
    Ok(EcoPlacement {
        placement,
        pinned_entities: pins_map.pinned_count(),
        delta_entities: pins_map.movable_count(),
        delta_hpwl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BramShape, Device};
    use crate::netlist::Cell;
    use crate::pack::pack;
    use xrand::proptest_lite::run_cases;

    /// Chain of LUT+FF stages; plenty of connectivity for the annealer.
    fn chain(n_stages: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let input = n.add_net("in");
        n.add_input("in", input);
        let mut prev = input;
        for i in 0..n_stages {
            let l = n.add_net(format!("l{i}"));
            let q = n.add_net(format!("q{i}"));
            n.add_cell(Cell::Lut {
                inputs: vec![prev],
                output: l,
                truth: 0b01,
            });
            n.add_cell(Cell::Ff {
                d: l,
                q,
                ce: None,
                init: false,
            });
            prev = q;
        }
        n.add_output("out", prev);
        n
    }

    #[test]
    fn placement_is_legal() {
        let n = chain(40);
        let p = pack(&n);
        let device = Device::xc2v250();
        let pl = place(&n, &p, device, PlaceOptions::default()).unwrap();
        // All CLBs on distinct legal CLB sites.
        let sites = device.clb_sites();
        let mut used = std::collections::HashSet::new();
        for loc in &pl.clb_loc {
            assert!(sites.contains(loc), "illegal CLB site {loc:?}");
            assert!(used.insert(*loc), "site reuse at {loc:?}");
        }
        let iob_sites = device.iob_sites();
        let mut used = std::collections::HashSet::new();
        for loc in &pl.iob_loc {
            assert!(iob_sites.contains(loc));
            assert!(used.insert(*loc), "IOB site reuse");
        }
    }

    #[test]
    fn annealing_improves_over_initial() {
        let n = chain(60);
        let p = pack(&n);
        let device = Device::xc2v250();
        // Initial cost = cost of sites in order; effort 0 approximates it by
        // freezing immediately (temperature decays but moves still run);
        // compare low vs high effort instead.
        let lo = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 0.05,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        let hi = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 12.0,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert!(
            hi.hpwl <= lo.hpwl * 1.05,
            "more effort should not be much worse: lo={} hi={}",
            lo.hpwl,
            hi.hpwl
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let n = chain(20);
        let p = pack(&n);
        let device = Device::xc2v250();
        let a = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let b = place(&n, &p, device, PlaceOptions::default()).unwrap();
        assert_eq!(a.clb_loc, b.clb_loc);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn does_not_fit_reported() {
        let n = chain(10);
        let p = pack(&n);
        // XC2V40 has 4 BRAM sites; fabricate an overflow by device choice:
        // 10 stages fit easily, so instead check IOB overflow on a tiny fake
        // device is impossible with FAMILY; check CLB overflow with a big
        // chain on the smallest device.
        let big = chain(2000);
        let pb = pack(&big);
        let err = place(
            &big,
            &pb,
            Device::by_name("XC2V40").unwrap(),
            PlaceOptions::default(),
        );
        assert!(matches!(err, Err(PlaceError::DoesNotFit { .. })));
        // Sanity: the small one fits.
        assert!(place(
            &n,
            &p,
            Device::by_name("XC2V40").unwrap(),
            PlaceOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn empty_design_places() {
        let n = Netlist::new("empty");
        let p = pack(&n);
        let pl = place(&n, &p, Device::xc2v250(), PlaceOptions::default()).unwrap();
        assert_eq!(pl.hpwl, 0.0);
        assert_eq!(pl.budget, BudgetOutcome::Completed);
    }

    #[test]
    fn move_budget_returns_best_seen_flagged() {
        let n = chain(60);
        let p = pack(&n);
        let device = Device::xc2v250();
        let full = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(full.budget, BudgetOutcome::Completed);
        let capped = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                max_moves: 500,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert!(capped.budget.is_exhausted(), "tiny budget must be flagged");
        // Still a legal, quench-polished placement: never worse than the
        // deterministic descent baseline alone would be (sanity: finite).
        assert!(capped.hpwl.is_finite());
        let sites = device.clb_sites();
        for loc in &capped.clb_loc {
            assert!(sites.contains(loc));
        }
        // Determinism under a budget.
        let again = place(
            &n,
            &p,
            device,
            PlaceOptions {
                seed: 3,
                effort: 8.0,
                max_moves: 500,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.clb_loc, again.clb_loc);
        assert_eq!(capped.budget, again.budget);
    }

    #[test]
    fn eco_all_pinned_reproduces_the_base_exactly() {
        let n = chain(30);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let pins = PinnedEntities::pin_base(&base, &p);
        assert_eq!(pins.movable_count(), 0);
        let eco = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.placement.clb_loc, base.clb_loc);
        assert_eq!(eco.placement.bram_loc, base.bram_loc);
        assert_eq!(eco.placement.iob_loc, base.iob_loc);
        assert_eq!(eco.delta_entities, 0);
        assert_eq!(eco.delta_hpwl, 0.0);
        assert_eq!(eco.pinned_entities, p.num_entities());
    }

    #[test]
    fn eco_moves_only_the_unpinned_delta() {
        let n = chain(30);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let mut pins = PinnedEntities::pin_base(&base, &p);
        // Release the last two CLBs: the ECO pass may move them, nothing
        // else.
        let k = pins.clb.len();
        assert!(k >= 2, "chain(30) packs into at least two CLBs");
        pins.clb[k - 1] = None;
        pins.clb[k - 2] = None;
        let eco = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.delta_entities, 2);
        assert_eq!(eco.pinned_entities, p.num_entities() - 2);
        for i in 0..k - 2 {
            assert_eq!(
                eco.placement.clb_loc[i], base.clb_loc[i],
                "pinned CLB {i} moved"
            );
        }
        assert_eq!(eco.placement.bram_loc, base.bram_loc);
        assert_eq!(eco.placement.iob_loc, base.iob_loc);
        assert!(eco.delta_hpwl.is_finite());
        assert!(eco.delta_hpwl <= eco.placement.hpwl + 1e-9);
        // Legality of the delta sites, including no collision with pins.
        verify_eco_placement(&eco.placement, &pins).unwrap();
        // Determinism.
        let again = place_incremental(&n, &p, device, PlaceOptions::default(), &pins).unwrap();
        assert_eq!(eco.placement.clb_loc, again.placement.clb_loc);
        assert_eq!(eco.delta_hpwl, again.delta_hpwl);
    }

    #[test]
    fn eco_rejects_malformed_pin_maps() {
        let n = chain(10);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let good = PinnedEntities::pin_base(&base, &p);

        let mut short = good.clone();
        short.clb.pop();
        let err = place_incremental(&n, &p, device, PlaceOptions::default(), &short);
        assert!(
            matches!(err, Err(EcoPlaceError::PinCount { .. })),
            "{err:?}"
        );

        let mut illegal = good.clone();
        illegal.clb[0] = Some((usize::MAX, usize::MAX));
        let err = place_incremental(&n, &p, device, PlaceOptions::default(), &illegal);
        assert!(
            matches!(err, Err(EcoPlaceError::IllegalPin { .. })),
            "{err:?}"
        );

        let mut dup = good.clone();
        if dup.clb.len() >= 2 {
            dup.clb[1] = dup.clb[0];
            let err = place_incremental(&n, &p, device, PlaceOptions::default(), &dup);
            assert!(
                matches!(err, Err(EcoPlaceError::DuplicatePin { .. })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn eco_self_check_catches_a_moved_pin() {
        let n = chain(10);
        let p = pack(&n);
        let device = Device::xc2v250();
        let base = place(&n, &p, device, PlaceOptions::default()).unwrap();
        let pins = PinnedEntities::pin_base(&base, &p);
        let mut bad = base.clone();
        // Teleport the first CLB to a free legal site.
        let used: std::collections::HashSet<(usize, usize)> = bad.clb_loc.iter().copied().collect();
        let free = device
            .clb_sites()
            .into_iter()
            .find(|s| !used.contains(s))
            .expect("free CLB site");
        bad.clb_loc[0] = free;
        let err = verify_eco_placement(&bad, &pins);
        assert!(
            matches!(err, Err(EcoPlaceError::PinMoved { .. })),
            "{err:?}"
        );
        // And the untouched base passes.
        verify_eco_placement(&base, &pins).unwrap();
    }

    /// The rescan quench the incremental [`quench`] replaced: every
    /// candidate applies itself to `locs` and rescans every pin of every
    /// net it touches. Kept as the reference the incremental quench must
    /// match move for move.
    fn quench_reference(
        nets: &NetModel,
        sites: &Locs,
        locs: &mut Locs,
        movable: &Mask,
        timing: Option<&TimingCtx>,
    ) {
        let mut free = free_sites(locs, sites);
        let beats = |cand: (f64, f64), incumbent: (f64, f64)| -> bool {
            cand.0 < incumbent.0 - 1e-9
                || (cand.0 < incumbent.0 + 1e-9 && cand.1 < incumbent.1 - 1e-9)
        };
        let mut both = Affected::default();
        for _ in 0..16 {
            let mut improved = false;
            for kind in 0..3usize {
                for idx in 0..locs[kind].len() {
                    let my_nets: Vec<NetId> =
                        nets.of_entity[kind][idx].iter().map(|p| p.net).collect();
                    if !movable[kind][idx] || my_nets.is_empty() {
                        continue;
                    }
                    let cur_site = locs[kind][idx];
                    let before = nets.cost_of(&my_nets, locs, timing);
                    let mut best_delta = (0.0f64, 0.0f64);
                    let mut best_move: Option<(Result<usize, usize>, (usize, usize))> = None;
                    for (f, &site) in free[kind].iter().enumerate() {
                        locs[kind][idx] = site;
                        let after = nets.cost_of(&my_nets, locs, timing);
                        locs[kind][idx] = cur_site;
                        let delta = (after.0 - before.0, after.1 - before.1);
                        if beats(delta, best_delta) {
                            best_delta = delta;
                            best_move = Some((Ok(f), site));
                        }
                    }
                    for o in 0..locs[kind].len() {
                        if o == idx || !movable[kind][o] {
                            continue;
                        }
                        let swap = Move {
                            kind,
                            idx,
                            other: Some(o),
                            from: cur_site,
                            to: locs[kind][o],
                        };
                        nets.affected(kind, idx, Some(o), &mut both);
                        let b0 = nets.cost_of(&both.nets, locs, timing);
                        swap.apply(locs);
                        let a0 = nets.cost_of(&both.nets, locs, timing);
                        swap.revert(locs);
                        let delta = (a0.0 - b0.0, a0.1 - b0.1);
                        if beats(delta, best_delta) {
                            best_delta = delta;
                            best_move = Some((Err(o), swap.to));
                        }
                    }
                    match best_move {
                        Some((Ok(f), site)) => {
                            locs[kind][idx] = site;
                            free[kind].swap_remove(f);
                            free[kind].push(cur_site);
                        }
                        Some((Err(o), site)) => {
                            locs[kind][o] = cur_site;
                            locs[kind][idx] = site;
                        }
                        None => continue,
                    }
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// A random netlist with no combinational loop: LUTs read primary
    /// inputs, register outputs and earlier LUTs, biased toward a few
    /// hub nets so some nets fan out widely; a few BRAMs give the BRAM
    /// kind entities too.
    fn random_netlist(rng: &mut SmallRng) -> Netlist {
        let mut n = Netlist::new("random");
        let mut nets = Vec::new();
        for i in 0..rng.random_range(1..6usize) {
            let net = n.add_net(format!("in{i}"));
            n.add_input(format!("in{i}"), net);
            nets.push(net);
        }
        let qs: Vec<NetId> = (0..rng.random_range(0..16usize))
            .map(|i| n.add_net(format!("q{i}")))
            .collect();
        nets.extend(&qs);
        let pick = |rng: &mut SmallRng, nets: &[NetId]| {
            if rng.random_bool(0.3) {
                nets[rng.random_range(0..nets.len().min(3))]
            } else {
                nets[rng.random_range(0..nets.len())]
            }
        };
        for i in 0..rng.random_range(4..80usize) {
            let mut inputs: Vec<NetId> = (0..rng.random_range(1..5usize))
                .map(|_| pick(rng, &nets))
                .collect();
            inputs.sort_unstable();
            inputs.dedup();
            let output = n.add_net(format!("l{i}"));
            let truth = rng.random::<u64>() & ((1u64 << (1 << inputs.len())) - 1);
            n.add_cell(Cell::Lut {
                inputs,
                output,
                truth,
            });
            nets.push(output);
        }
        for i in 0..rng.random_range(0..4usize) {
            let shape = BramShape::ALL[rng.random_range(0..BramShape::ALL.len())];
            let addr: Vec<NetId> = (0..shape.addr_bits).map(|_| pick(rng, &nets)).collect();
            let dout: Vec<NetId> = (0..rng.random_range(1..3usize))
                .map(|b| n.add_net(format!("b{i}_{b}")))
                .collect();
            n.add_cell(Cell::Bram {
                shape,
                addr,
                dout: dout.clone(),
                en: None,
                init: vec![0; shape.depth()],
                output_init: 0,
                write: None,
            });
            nets.extend(dout);
        }
        for &q in &qs {
            let d = pick(rng, &nets);
            n.add_cell(Cell::Ff {
                d,
                q,
                ce: None,
                init: false,
            });
        }
        for i in 0..rng.random_range(1..6usize) {
            let net = pick(rng, &nets);
            n.add_output(format!("out{i}"), net);
        }
        n
    }

    #[test]
    fn incremental_quench_matches_the_rescan_reference() {
        run_cases(48, |rng| {
            let netlist = random_netlist(rng);
            let packed = pack(&netlist);
            let Some(device) = ["XC2V40", "XC2V80", "XC2V250"]
                .into_iter()
                .filter_map(Device::by_name)
                .find(|d| sites_for(&packed, d).1.is_none())
            else {
                return;
            };
            let (sites, _) = sites_for(&packed, &device);
            let counts = [packed.clbs.len(), packed.brams.len(), packed.iobs.len()];
            // A random legal layout: a shuffled prefix of each kind's sites.
            let locs: Locs = std::array::from_fn(|k| {
                let mut s = sites[k].clone();
                for i in (1..s.len()).rev() {
                    s.swap(i, rng.random_range(0..=i));
                }
                s.truncate(counts[k]);
                s
            });
            // Everything movable (full placement) or a random few (ECO).
            let share = if rng.random_bool(0.5) {
                1.0
            } else {
                0.05 + 0.45 * rng.random::<f64>()
            };
            let movable: Mask = counts.map(|c| (0..c).map(|_| rng.random_bool(share)).collect());
            let nets = NetModel::new(&netlist, &packed);
            let timing = if rng.random_bool(0.5) {
                TimingCtx::build(&netlist, &PlaceOptions::default()).map(|mut t| {
                    t.refresh(&nets.active, &nets.boxes(&locs));
                    t
                })
            } else {
                None
            };
            let mut fast = locs.clone();
            let mut reference = locs;
            quench(&nets, &sites, &mut fast, &movable, timing.as_ref());
            quench_reference(&nets, &sites, &mut reference, &movable, timing.as_ref());
            assert_eq!(fast, reference, "timing {}", timing.is_some());
        });
    }
}
