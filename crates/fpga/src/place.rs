//! Deterministic simulated-annealing placement on a slice grid.
//!
//! The annealer refines a snake-order initial placement by proposing
//! swaps of two grid cells and accepting them under the usual Metropolis
//! criterion. Three properties matter to the rest of the workspace:
//!
//! * **Exact budgets** — [`PlaceOptions::max_total_moves`] is an exact
//!   cap on evaluated proposals (including the initial-temperature
//!   probe); whenever the budget rather than the cooling floor ends the
//!   anneal, exactly that many real proposals have been evaluated.
//! * **Determinism** — results depend only on the netlist, the seed and
//!   the thread count, never on scheduling. The parallel mode shards each
//!   temperature step's move batch across disjoint horizontal bands of
//!   the grid, each worker seeded from [`PlaceOptions::seed`], the step
//!   index and its shard index, with a merge barrier per step. Band
//!   boundaries *rotate* (deterministically) from one temperature step
//!   to the next, so a slice is never locked into one band for the
//!   whole anneal — moves proposed in step `i+1` can carry it across
//!   the boundaries of step `i`.
//! * **Incremental cost** — per-net bounding boxes are cached, and a
//!   proposal only looks again at nets whose box can actually change. A
//!   net holding both swapped slices keeps its pin set, so its box
//!   stands; so does a box whose moving pin stays strictly inside it.
//!   Nets of 16 or more pins also cache how many pins sit on each of
//!   the four box edges (the incremental bounding box of Betz & Rose's
//!   VPR), so one moving pin updates their box in O(1); a net is
//!   rescanned only when an edge loses its last pin. Smaller nets are
//!   rescanned directly, which is cheaper than the bookkeeping.
//!   Boxes are exact `f32` extremes either way, so every delta, and so
//!   every accept/reject decision, is the same as a full recomputation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::lut::{LutNetlist, Signal};
use crate::pack::Packing;

/// Cooling floor: annealing stops once the temperature drops below this.
const T_MIN: f64 = 0.01;
/// Geometric cooling factor applied after every temperature step.
const COOLING: f64 = 0.85;
/// Proposals sampled (and charged) to pick the initial temperature.
const PROBE_PROPOSALS: usize = 64;
/// Nets with at least this many pins (slices plus pads) keep per-edge
/// pin counts next to their cached box; smaller nets are rescanned.
const COUNTED_NET_PINS: usize = 16;

/// A placed design: grid dimensions, one grid cell per slice, and fixed
/// virtual pad positions for the primary inputs/outputs.
#[derive(Debug, Clone)]
pub struct Placement {
    grid_w: usize,
    grid_h: usize,
    /// `pos[s]` = (x, y) of slice `s`.
    pos: Vec<(f32, f32)>,
    /// Input pad positions (left edge).
    input_pos: Vec<(f32, f32)>,
    /// Output pad positions (right edge).
    output_pos: Vec<(f32, f32)>,
}

impl Placement {
    /// Grid width in slice columns.
    pub fn grid_w(&self) -> usize {
        self.grid_w
    }

    /// Grid height in slice rows.
    pub fn grid_h(&self) -> usize {
        self.grid_h
    }

    /// Position of slice `s`.
    pub fn slice_pos(&self, s: u32) -> (f32, f32) {
        self.pos[s as usize]
    }

    /// Position of input pad `i`.
    pub fn input_pos(&self, i: u32) -> (f32, f32) {
        self.input_pos[i as usize]
    }

    /// Position of output pad `o`.
    pub fn output_pos(&self, o: usize) -> (f32, f32) {
        self.output_pos[o]
    }

    /// Total half-perimeter wirelength of the placement under `nets`.
    pub fn total_hpwl(&self, nets: &[Net]) -> f64 {
        nets.iter().map(|n| self.net_hpwl(n)).sum()
    }

    fn net_hpwl(&self, net: &Net) -> f64 {
        NetBox::compute(net, &self.pos).hpwl()
    }
}

/// A placement net: the slices it touches plus fixed pad points.
#[derive(Debug, Clone)]
pub struct Net {
    /// Slices containing the driver and sink LUTs (deduplicated).
    pub slices: Vec<u32>,
    /// Fixed pad positions on the net (primary I/O).
    pub pads: Vec<(f32, f32)>,
}

impl Net {
    /// Whether the annealer keeps edge counts for this net.
    fn counted(&self) -> bool {
        self.slices.len() + self.pads.len() >= COUNTED_NET_PINS
    }
}

/// Builds the placement netlist (one net per signal driver that has
/// sinks) in slice coordinates.
fn build_nets(lutnet: &LutNetlist, packing: &Packing) -> Vec<Net> {
    // Driver key: input index or LUT id.
    use std::collections::HashMap;
    #[derive(PartialEq, Eq, Hash, Clone, Copy)]
    enum Driver {
        In(u32),
        Lut(u32),
    }
    let mut sinks: HashMap<Driver, Vec<SinkRef>> = HashMap::new();
    #[derive(Clone, Copy)]
    enum SinkRef {
        Slice(u32),
        OutPad(u32),
    }
    for (l, lut) in lutnet.luts().iter().enumerate() {
        for s in &lut.inputs {
            let d = match s {
                Signal::Input(i) => Driver::In(*i),
                Signal::Lut(j) => Driver::Lut(*j),
                Signal::Const(_) => continue,
            };
            sinks
                .entry(d)
                .or_default()
                .push(SinkRef::Slice(packing.slice_of(l as u32)));
        }
    }
    for (o, (_, s)) in lutnet.outputs().iter().enumerate() {
        let d = match s {
            Signal::Input(i) => Driver::In(*i),
            Signal::Lut(j) => Driver::Lut(*j),
            Signal::Const(_) => continue,
        };
        sinks.entry(d).or_default().push(SinkRef::OutPad(o as u32));
    }
    let n_in = lutnet.input_names().len();
    let n_out = lutnet.outputs().len();
    let grid = grid_size(packing.num_slices());
    let mut nets = Vec::with_capacity(sinks.len());
    let mut keys: Vec<Driver> = sinks.keys().copied().collect();
    keys.sort_by_key(|d| match d {
        Driver::In(i) => (0u8, *i),
        Driver::Lut(j) => (1u8, *j),
    });
    for d in keys {
        let sink_list = &sinks[&d];
        let mut slices: Vec<u32> = Vec::new();
        let mut pads: Vec<(f32, f32)> = Vec::new();
        match d {
            Driver::In(i) => pads.push(input_pad_pos(i as usize, n_in, grid)),
            Driver::Lut(j) => slices.push(packing.slice_of(j)),
        }
        for s in sink_list {
            match s {
                SinkRef::Slice(sl) => slices.push(*sl),
                SinkRef::OutPad(o) => pads.push(output_pad_pos(*o as usize, n_out, grid)),
            }
        }
        slices.sort_unstable();
        slices.dedup();
        nets.push(Net { slices, pads });
    }
    nets
}

fn grid_size(num_slices: usize) -> (usize, usize) {
    let w = (num_slices.max(1) as f64).sqrt().ceil() as usize;
    let h = num_slices.max(1).div_ceil(w);
    (w, h)
}

fn input_pad_pos(i: usize, n: usize, (_, h): (usize, usize)) -> (f32, f32) {
    let y = if n <= 1 {
        0.0
    } else {
        (i as f32 / (n - 1) as f32) * h.max(1) as f32
    };
    (-1.0, y)
}

fn output_pad_pos(o: usize, n: usize, (w, h): (usize, usize)) -> (f32, f32) {
    let y = if n <= 1 {
        0.0
    } else {
        (o as f32 / (n - 1) as f32) * h.max(1) as f32
    };
    (w as f32, y)
}

/// Options for the annealer.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// RNG seed (placement is fully deterministic for a given seed and
    /// thread count).
    pub seed: u64,
    /// Moves per temperature step ≈ `moves_factor × num_slices`.
    pub moves_factor: usize,
    /// Exact cap on evaluated swap proposals, including the
    /// initial-temperature probe. Whenever this budget (rather than the
    /// cooling floor) ends the anneal, exactly this many real proposals
    /// have been evaluated.
    pub max_total_moves: usize,
    /// Annealing worker threads. `1` (and `0`) run the sequential
    /// annealer; `n > 1` shards each temperature step across up to `n`
    /// disjoint horizontal grid bands (with boundaries rotating per
    /// step so slices can migrate between bands), deterministically for
    /// a fixed seed and thread count.
    pub threads: usize,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            seed: 2018,
            moves_factor: 8,
            max_total_moves: 1_200_000,
            threads: 1,
        }
    }
}

/// One temperature step of the annealing trajectory.
#[derive(Debug, Clone)]
pub struct TempStep {
    /// Temperature during the step.
    pub temperature: f64,
    /// Total HPWL after the step's accepted moves were applied.
    pub hpwl: f64,
    /// Real proposals evaluated in the step.
    pub proposed: usize,
    /// Proposals accepted (and applied).
    pub accepted: usize,
}

/// Counters and the cooling trajectory of one [`place_with_stats`] run.
#[derive(Debug, Clone)]
pub struct PlaceStats {
    /// Real proposals evaluated, including the initial-temperature
    /// probe. Never exceeds [`PlaceOptions::max_total_moves`], and equals
    /// it exactly whenever the budget (not the cooling floor) ended the
    /// anneal.
    pub proposals: usize,
    /// Proposals accepted and applied.
    pub accepted: usize,
    /// Total HPWL of the initial snake placement.
    pub initial_hpwl: f64,
    /// Total HPWL of the returned placement.
    pub final_hpwl: f64,
    /// One entry per temperature step (empty if the budget ran out
    /// during the probe).
    pub trajectory: Vec<TempStep>,
}

/// Places the packed design: snake-order initial placement refined by
/// simulated annealing on total HPWL.
///
/// Deterministic for a fixed seed and thread count; returns the final
/// [`Placement`].
pub fn place(lutnet: &LutNetlist, packing: &Packing, opts: &PlaceOptions) -> Placement {
    place_with_stats(lutnet, packing, opts).0
}

/// Like [`place`], additionally returning proposal/acceptance counters
/// and the per-temperature-step HPWL trajectory.
pub fn place_with_stats(
    lutnet: &LutNetlist,
    packing: &Packing,
    opts: &PlaceOptions,
) -> (Placement, PlaceStats) {
    let num_slices = packing.num_slices();
    let (w, h) = grid_size(num_slices);
    // Initial snake placement in slice id order (ids are topological-ish
    // because packing visits LUTs in topological order).
    let mut cells: Vec<Option<u32>> = vec![None; w * h];
    let mut pos: Vec<(f32, f32)> = vec![(0.0, 0.0); num_slices];
    for (s, p) in pos.iter_mut().enumerate() {
        let row = s / w;
        let col = if row.is_multiple_of(2) {
            s % w
        } else {
            w - 1 - (s % w)
        };
        cells[row * w + col] = Some(s as u32);
        *p = (col as f32, row as f32);
    }
    let n_in = lutnet.input_names().len();
    let n_out = lutnet.outputs().len();
    let mut placement = Placement {
        grid_w: w,
        grid_h: h,
        pos,
        input_pos: (0..n_in).map(|i| input_pad_pos(i, n_in, (w, h))).collect(),
        output_pos: (0..n_out)
            .map(|o| output_pad_pos(o, n_out, (w, h)))
            .collect(),
    };
    let nets = build_nets(lutnet, packing);
    let mut stats = PlaceStats {
        proposals: 0,
        accepted: 0,
        initial_hpwl: 0.0,
        final_hpwl: 0.0,
        trajectory: Vec::new(),
    };
    if num_slices < 2 || nets.is_empty() {
        let hp = placement.total_hpwl(&nets);
        stats.initial_hpwl = hp;
        stats.final_hpwl = hp;
        return (placement, stats);
    }
    // Slice → incident net indices.
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); num_slices];
    for (ni, net) in nets.iter().enumerate() {
        for &s in &net.slices {
            incident[s as usize].push(ni as u32);
        }
    }

    let mut ann = Annealer::new(
        &nets,
        &incident,
        w,
        std::mem::take(&mut placement.pos),
        cells,
    );
    stats.initial_hpwl = ann.total_hpwl();

    let budget = opts.max_total_moves;
    let mut spent = 0usize;
    let n_cells = w * h;
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Initial temperature from sampled (and charged) probe proposals.
    let probe = PROBE_PROPOSALS.min(budget);
    let mut t = if probe == 0 {
        0.0
    } else {
        let mut acc = 0.0;
        for _ in 0..probe {
            let (ca, cb) = draw_pair(&mut rng, n_cells);
            acc += ann.propose(ca, cb).abs();
        }
        spent += probe;
        (acc / probe as f64).max(0.5) * 2.0
    };

    let moves_per_temp = (opts.moves_factor * num_slices).max(64);
    let shards = effective_shards(opts.threads, w, h);
    if shards <= 1 {
        // Sequential annealer (the `threads = 1` reference path).
        while t > T_MIN && spent < budget {
            let alloc = moves_per_temp.min(budget - spent);
            let mut accepted = 0usize;
            for _ in 0..alloc {
                let (ca, cb) = draw_pair(&mut rng, n_cells);
                let delta = ann.propose(ca, cb);
                if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
                    ann.accept(ca, cb);
                    accepted += 1;
                }
            }
            spent += alloc;
            stats.accepted += accepted;
            stats.trajectory.push(TempStep {
                temperature: t,
                hpwl: ann.total_hpwl(),
                proposed: alloc,
                accepted,
            });
            t *= COOLING;
        }
    } else {
        // Parallel annealer: shard each step over disjoint row bands
        // whose boundaries rotate (deterministically) per step, so
        // slices can migrate between bands across steps. Each shard's
        // work area (and its result buffers) is allocated once and
        // re-synced with the merged master state at every step barrier.
        let mut shards = Shards::new(&ann, h, shards);
        let mut step: u64 = 0;
        while t > T_MIN && spent < budget {
            let alloc = moves_per_temp.min(budget - spent);
            let accepted = shards.step(&mut ann, opts.seed, step, t, alloc);
            spent += alloc;
            stats.accepted += accepted;
            stats.trajectory.push(TempStep {
                temperature: t,
                hpwl: ann.total_hpwl(),
                proposed: alloc,
                accepted,
            });
            t *= COOLING;
            step += 1;
        }
    }
    stats.proposals = spent;
    stats.final_hpwl = ann.total_hpwl();
    placement.pos = ann.pos;
    (placement, stats)
}

/// The parallel annealer's per-shard state: row bands, one persistent
/// work area per band and the buffers each band hands back.
struct Shards<'a> {
    h: usize,
    bands: Vec<(usize, usize)>,
    workers: Vec<Annealer<'a>>,
    out: Vec<ShardResult>,
}

impl<'a> Shards<'a> {
    /// Work areas for `shards` bands of an `h`-row grid, forked once from
    /// `master` and re-synced at every step.
    fn new(master: &Annealer<'a>, h: usize, shards: usize) -> Self {
        Shards {
            h,
            bands: band_ranges(h, shards),
            workers: (0..shards).map(|_| master.fork()).collect(),
            out: (0..shards).map(|_| ShardResult::default()).collect(),
        }
    }

    /// One temperature step: `alloc` proposals at temperature `t` split
    /// over the bands (rotated for `step`), run in parallel and merged
    /// into `master`. Returns the accepted proposals.
    fn step(
        &mut self,
        master: &mut Annealer<'a>,
        seed: u64,
        step: u64,
        t: f64,
        alloc: usize,
    ) -> usize {
        let (h, w) = (self.h, master.w);
        let shards = self.bands.len();
        let offset = band_offset(seed, step, h);
        for worker in self.workers.iter_mut() {
            worker.sync_from(master);
        }
        std::thread::scope(|scope| {
            for (k, ((&(r0, r1), worker), out)) in self
                .bands
                .iter()
                .zip(self.workers.iter_mut())
                .zip(self.out.iter_mut())
                .enumerate()
            {
                let n_moves = alloc / shards + usize::from(k < alloc % shards);
                let rng = StdRng::seed_from_u64(shard_seed(seed, step, k as u64));
                let band = Band {
                    start_row: (r0 + offset) % h,
                    rows: r1 - r0,
                    h,
                };
                scope.spawn(move || anneal_shard(worker, out, band, t, rng, n_moves));
            }
        });
        // Merge: band cells and positions first (boxes span bands, so
        // they can only be recomputed once every pin has landed), then
        // refresh exactly the nets some shard's accepted moves dirtied;
        // every other cached box and edge count is still exact.
        let mut accepted = 0usize;
        for (&(r0, _), res) in self.bands.iter().zip(self.out.iter()) {
            let start_row = (r0 + offset) % h;
            for (local_row, chunk) in res.cells.chunks_exact(w).enumerate() {
                let row = (start_row + local_row) % h;
                master.cells[row * w..row * w + w].copy_from_slice(chunk);
            }
            for &(s, p) in &res.moved {
                master.pos[s as usize] = p;
            }
            accepted += res.accepted;
        }
        for worker in &self.workers {
            for &ni in &worker.dirty {
                master.rescan(ni as usize);
            }
        }
        accepted
    }
}

/// Draws a pair of distinct cell indices in `[0, n)`; `n` must be ≥ 2.
fn draw_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let ca = rng.gen_range(0..n);
    let mut cb = rng.gen_range(0..n - 1);
    if cb >= ca {
        cb += 1;
    }
    (ca, cb)
}

/// Grid position of cell `c` on a grid of width `w`.
fn cell_pos(c: usize, w: usize) -> (f32, f32) {
    ((c % w) as f32, (c / w) as f32)
}

/// How many disjoint row bands `threads` workers can anneal: every band
/// needs at least two cells so a swap pair can be drawn inside it.
fn effective_shards(threads: usize, w: usize, h: usize) -> usize {
    let cap = if w >= 2 { h } else { h / 2 };
    threads.max(1).min(cap.max(1))
}

/// Splits `h` rows into `shards` contiguous, non-empty `(start, end)`
/// bands, sizes differing by at most one row.
fn band_ranges(h: usize, shards: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(shards);
    let mut row = 0;
    for k in 0..shards {
        let rows = h / shards + usize::from(k < h % shards);
        out.push((row, row + rows));
        row += rows;
    }
    out
}

/// The deterministic row offset all band boundaries rotate by in one
/// temperature step. Derived from the seed and step index alone, so a
/// fixed (seed, thread count) still fully determines the anneal; varying
/// per step, so band boundaries land somewhere new each step and slices
/// near a boundary can migrate into the neighbouring band.
fn band_offset(seed: u64, step: u64, h: usize) -> usize {
    (shard_seed(seed, step, 0xB0B0) % h as u64) as usize
}

/// Decorrelated per-shard RNG seed (splitmix64-style finalizer over the
/// user seed, the temperature-step index and the shard index).
fn shard_seed(seed: u64, step: u64, shard: u64) -> u64 {
    let mut z =
        seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shard.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cached axis-aligned bounding box of one net's pins.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetBox {
    min_x: f32,
    max_x: f32,
    min_y: f32,
    max_y: f32,
}

impl NetBox {
    const EMPTY: NetBox = NetBox {
        min_x: f32::INFINITY,
        max_x: f32::NEG_INFINITY,
        min_y: f32::INFINITY,
        max_y: f32::NEG_INFINITY,
    };

    fn add(&mut self, (x, y): (f32, f32)) {
        self.min_x = self.min_x.min(x);
        self.max_x = self.max_x.max(x);
        self.min_y = self.min_y.min(y);
        self.max_y = self.max_y.max(y);
    }

    /// Box over a net's pins with slice positions taken from `pos`.
    fn compute(net: &Net, pos: &[(f32, f32)]) -> NetBox {
        let mut b = NetBox::EMPTY;
        for &s in &net.slices {
            b.add(pos[s as usize]);
        }
        for &p in &net.pads {
            b.add(p);
        }
        b
    }

    /// Like [`NetBox::compute`], with slice `moved.0` at `moved.1`
    /// (the tentatively-moved slice of a swap proposal).
    fn compute_moved(net: &Net, pos: &[(f32, f32)], moved: (u32, (f32, f32))) -> NetBox {
        let mut b = NetBox::EMPTY;
        for &s in &net.slices {
            b.add(if s == moved.0 {
                moved.1
            } else {
                pos[s as usize]
            });
        }
        for &p in &net.pads {
            b.add(p);
        }
        b
    }

    /// The box and its edge counts in one pass over the pins, with slice
    /// `moved.0` at `moved.1` if given.
    fn scan(
        net: &Net,
        pos: &[(f32, f32)],
        moved: Option<(u32, (f32, f32))>,
    ) -> (NetBox, EdgeCounts) {
        let mut b = NetBox::EMPTY;
        let mut c = EdgeCounts::default();
        let mut add = |(x, y): (f32, f32)| {
            take_edge(&mut b.min_x, &mut c.min_x, x, lt);
            take_edge(&mut b.max_x, &mut c.max_x, x, gt);
            take_edge(&mut b.min_y, &mut c.min_y, y, lt);
            take_edge(&mut b.max_y, &mut c.max_y, y, gt);
        };
        for &s in &net.slices {
            match moved {
                Some((m, p)) if m == s => add(p),
                _ => add(pos[s as usize]),
            }
        }
        for &p in &net.pads {
            add(p);
        }
        (b, c)
    }

    /// The box and edge counts after one pin moves from `from` to `to`,
    /// in O(1); `None` when an edge loses its last pin, since only a
    /// rescan can find the new edge.
    fn shift_pin(
        &self,
        c: EdgeCounts,
        (fx, fy): (f32, f32),
        (tx, ty): (f32, f32),
    ) -> Option<(NetBox, EdgeCounts)> {
        let (min_x, n_min_x) = shift_edge(self.min_x, c.min_x, fx, tx, lt)?;
        let (max_x, n_max_x) = shift_edge(self.max_x, c.max_x, fx, tx, gt)?;
        let (min_y, n_min_y) = shift_edge(self.min_y, c.min_y, fy, ty, lt)?;
        let (max_y, n_max_y) = shift_edge(self.max_y, c.max_y, fy, ty, gt)?;
        Some((
            NetBox {
                min_x,
                max_x,
                min_y,
                max_y,
            },
            EdgeCounts {
                min_x: n_min_x,
                max_x: n_max_x,
                min_y: n_min_y,
                max_y: n_max_y,
            },
        ))
    }

    /// Half-perimeter wirelength of this box (0 for empty nets).
    fn hpwl(&self) -> f64 {
        if self.min_x > self.max_x {
            0.0
        } else {
            ((self.max_x - self.min_x) + (self.max_y - self.min_y)) as f64
        }
    }

    /// Whether a pin at `p` touches this box's boundary (moving it away
    /// may shrink the box).
    fn on_boundary(&self, (x, y): (f32, f32)) -> bool {
        x <= self.min_x || x >= self.max_x || y <= self.min_y || y >= self.max_y
    }

    /// Whether a pin arriving at `p` would extend this box.
    fn outside(&self, (x, y): (f32, f32)) -> bool {
        x < self.min_x || x > self.max_x || y < self.min_y || y > self.max_y
    }
}

/// How many pins sit on each edge of a net's cached [`NetBox`]. Kept
/// for [`Net::counted`] nets; all zero for the others.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeCounts {
    min_x: u32,
    max_x: u32,
    min_y: u32,
    max_y: u32,
}

fn lt(a: f32, b: f32) -> bool {
    a < b
}

fn gt(a: f32, b: f32) -> bool {
    a > b
}

/// Adds a pin at coordinate `v` to one box edge and its pin count;
/// `beyond(a, b)` says `a` lies past `b` on that edge's side.
fn take_edge(edge: &mut f32, count: &mut u32, v: f32, beyond: fn(f32, f32) -> bool) {
    if beyond(v, *edge) {
        *edge = v;
        *count = 1;
    } else if v == *edge {
        *count += 1;
    }
}

/// One box edge and its pin count after a pin moves from coordinate
/// `from` to `to`; `None` when the edge is left without a pin.
fn shift_edge(
    edge: f32,
    count: u32,
    from: f32,
    to: f32,
    beyond: fn(f32, f32) -> bool,
) -> Option<(f32, u32)> {
    let left = count - u32::from(from == edge);
    if beyond(to, edge) {
        Some((to, 1))
    } else if to == edge {
        Some((edge, left + 1))
    } else if left > 0 {
        Some((edge, left))
    } else {
        None
    }
}

/// One net touched by the current proposal.
#[derive(Debug, Clone, Copy)]
struct Touched {
    /// Net index.
    ni: u32,
    /// Which of the two tentatively-moved slices are pins of this net:
    /// bit 0 = the slice leaving cell `ca`, bit 1 = the one leaving
    /// `cb`. Collected from the incidence lists, so no per-net
    /// membership search is needed on the hot path.
    movers: u8,
    /// The recomputed box when the proposal may change it (`None` = box
    /// and edge counts provably unchanged).
    nb: Option<NetBox>,
    /// The edge counts going with `nb`.
    edges: EdgeCounts,
}

/// The annealing work area one worker owns while proposing swaps: the
/// shared netlist structure plus mutable positions, cell contents and
/// cached per-net bounding boxes and edge counts. All per-proposal scratch
/// (`touched`, the `stamp`/`slot` epoch maps) lives here, allocated
/// once per work area and reused for every proposal — the inner
/// annealing loop never allocates.
struct Annealer<'a> {
    nets: &'a [Net],
    incident: &'a [Vec<u32>],
    w: usize,
    pos: Vec<(f32, f32)>,
    cells: Vec<Option<u32>>,
    boxes: Vec<NetBox>,
    /// Per-net edge counts of `boxes` (zero for uncounted nets).
    edges: Vec<EdgeCounts>,
    /// Scratch: net → epoch of the proposal that last touched it.
    stamp: Vec<u64>,
    /// Scratch: net → its index in `touched` (valid only while
    /// `stamp[net] == epoch`).
    slot: Vec<u32>,
    epoch: u64,
    /// Nets touched by the current proposal.
    touched: Vec<Touched>,
    /// Nets whose cached box an accepted move has rewritten since this
    /// work area was created or last re-synced (deduplicated via
    /// `dirty_flag`); the parallel merge reads this so it only
    /// refreshes those boxes.
    dirty: Vec<u32>,
    dirty_flag: Vec<bool>,
}

impl<'a> Annealer<'a> {
    fn new(
        nets: &'a [Net],
        incident: &'a [Vec<u32>],
        w: usize,
        pos: Vec<(f32, f32)>,
        cells: Vec<Option<u32>>,
    ) -> Self {
        let mut ann = Annealer {
            nets,
            incident,
            w,
            pos,
            cells,
            boxes: vec![NetBox::EMPTY; nets.len()],
            edges: vec![EdgeCounts::default(); nets.len()],
            stamp: vec![0; nets.len()],
            slot: vec![0; nets.len()],
            epoch: 0,
            touched: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; nets.len()],
        };
        for ni in 0..nets.len() {
            ann.rescan(ni);
        }
        ann
    }

    /// Recomputes net `ni`'s cached box (and edge counts) from `pos`.
    fn rescan(&mut self, ni: usize) {
        let net = &self.nets[ni];
        if net.counted() {
            (self.boxes[ni], self.edges[ni]) = NetBox::scan(net, &self.pos, None);
        } else {
            self.boxes[ni] = NetBox::compute(net, &self.pos);
        }
    }

    /// A clone of this work area for a parallel shard (shares the
    /// netlist structure, copies the mutable state). Created once per
    /// shard and re-synced with [`Annealer::sync_from`] between
    /// temperature steps, so the per-step cost is a buffer copy, not an
    /// allocation.
    fn fork(&self) -> Annealer<'a> {
        Annealer {
            nets: self.nets,
            incident: self.incident,
            w: self.w,
            pos: self.pos.clone(),
            cells: self.cells.clone(),
            boxes: self.boxes.clone(),
            edges: self.edges.clone(),
            stamp: vec![0; self.nets.len()],
            slot: vec![0; self.nets.len()],
            epoch: 0,
            touched: Vec::new(),
            dirty: Vec::new(),
            dirty_flag: vec![false; self.nets.len()],
        }
    }

    /// Re-syncs this shard work area with the merged master state at a
    /// temperature-step barrier, reusing every buffer: positions, cell
    /// contents, boxes and edge counts are copied in place, the dirty set is
    /// drained. The epoch scratch carries over (stamps from earlier
    /// steps are simply stale).
    fn sync_from(&mut self, master: &Annealer<'a>) {
        self.pos.copy_from_slice(&master.pos);
        self.cells.copy_from_slice(&master.cells);
        self.boxes.copy_from_slice(&master.boxes);
        self.edges.copy_from_slice(&master.edges);
        for ni in self.dirty.drain(..) {
            self.dirty_flag[ni as usize] = false;
        }
    }

    /// Total HPWL from the cached boxes.
    fn total_hpwl(&self) -> f64 {
        self.boxes.iter().map(NetBox::hpwl).sum()
    }

    /// Evaluates the HPWL delta of swapping the contents of cells `ca`
    /// and `cb` (either may be empty). Mutates nothing but internal
    /// scratch; call [`Annealer::accept`] with the same pair to apply.
    fn propose(&mut self, ca: usize, cb: usize) -> f64 {
        self.touched.clear();
        self.epoch += 1;
        let sa = self.cells[ca];
        let sb = self.cells[cb];
        let pa = cell_pos(ca, self.w);
        let pb = cell_pos(cb, self.w);
        // Collect the distinct nets incident to either moving slice,
        // remembering *which* mover each net is incident to — the
        // incidence lists are built from `net.slices`, so this replaces
        // a per-net membership search on the hot path.
        for (mi, s) in [sa, sb].into_iter().enumerate() {
            let Some(s) = s else { continue };
            for &ni in &self.incident[s as usize] {
                let nu = ni as usize;
                if self.stamp[nu] != self.epoch {
                    self.stamp[nu] = self.epoch;
                    self.slot[nu] = self.touched.len() as u32;
                    self.touched.push(Touched {
                        ni,
                        movers: 1 << mi,
                        nb: None,
                        edges: EdgeCounts::default(),
                    });
                } else {
                    self.touched[self.slot[nu] as usize].movers |= 1 << mi;
                }
            }
        }
        // For each touched net decide whether its box can change, and if
        // so find the new one. A net holding both movers only trades
        // their two positions, so its pin set and box stand. A single
        // mover strictly inside the box whose destination is inside too
        // (strictly, for counted nets, whose edge counts must also stay)
        // cannot change it either.
        let mut delta = 0.0;
        for i in 0..self.touched.len() {
            let Touched { ni, movers, .. } = self.touched[i];
            let (s, from, to) = match movers {
                0b01 => (sa, pa, pb),
                0b10 => (sb, pb, pa),
                _ => continue,
            };
            let s = s.expect("mover bit set for an empty cell");
            let ni = ni as usize;
            let net = &self.nets[ni];
            let cached = self.boxes[ni];
            let (nb, edges) = if net.counted() {
                if !(cached.on_boundary(from) || cached.on_boundary(to)) {
                    continue;
                }
                cached
                    .shift_pin(self.edges[ni], from, to)
                    .unwrap_or_else(|| NetBox::scan(net, &self.pos, Some((s, to))))
            } else {
                if !(cached.on_boundary(from) || cached.outside(to)) {
                    continue;
                }
                let nb = NetBox::compute_moved(net, &self.pos, (s, to));
                (nb, EdgeCounts::default())
            };
            delta += nb.hpwl() - cached.hpwl();
            self.touched[i].nb = Some(nb);
            self.touched[i].edges = edges;
        }
        delta
    }

    /// Applies the swap most recently evaluated by [`Annealer::propose`]
    /// for the same `(ca, cb)` pair, updating positions, cell contents
    /// and the cached boxes and edge counts of the affected nets.
    fn accept(&mut self, ca: usize, cb: usize) {
        let sa = self.cells[ca];
        let sb = self.cells[cb];
        if let Some(s) = sa {
            self.pos[s as usize] = cell_pos(cb, self.w);
        }
        if let Some(s) = sb {
            self.pos[s as usize] = cell_pos(ca, self.w);
        }
        self.cells.swap(ca, cb);
        for i in 0..self.touched.len() {
            let Touched { ni, nb, edges, .. } = self.touched[i];
            if let Some(nb) = nb {
                self.boxes[ni as usize] = nb;
                self.edges[ni as usize] = edges;
                if !self.dirty_flag[ni as usize] {
                    self.dirty_flag[ni as usize] = true;
                    self.dirty.push(ni);
                }
            }
        }
    }
}

/// What one parallel shard hands back at the temperature-step barrier.
/// Owned by the caller and reused across steps (the buffers are cleared
/// and refilled, never reallocated in steady state). The shard's dirty
/// net set stays on its [`Annealer`], where the next
/// [`Annealer::sync_from`] drains it.
#[derive(Default)]
struct ShardResult {
    /// The shard's band of the cell grid after its moves.
    cells: Vec<Option<u32>>,
    /// Final positions of the slices living in this band.
    moved: Vec<(u32, (f32, f32))>,
    /// Accepted proposals.
    accepted: usize,
}

/// One shard's band of full grid rows for a single temperature step:
/// `rows` rows starting at `start_row`, wrapping modulo `h` (bands
/// rotate across steps, so a band may span the bottom and top of the
/// grid).
#[derive(Clone, Copy)]
struct Band {
    start_row: usize,
    rows: usize,
    h: usize,
}

/// Runs one shard's slice of a temperature step: `n_moves` proposals
/// confined to `band`.
fn anneal_shard(
    ann: &mut Annealer<'_>,
    out: &mut ShardResult,
    band: Band,
    t: f64,
    mut rng: StdRng,
    n_moves: usize,
) {
    let Band { start_row, rows, h } = band;
    let w = ann.w;
    let len = rows * w;
    let cell_at = |local: usize| ((start_row + local / w) % h) * w + local % w;
    let mut accepted = 0usize;
    for _ in 0..n_moves {
        let (a, b) = draw_pair(&mut rng, len);
        let (ca, cb) = (cell_at(a), cell_at(b));
        let delta = ann.propose(ca, cb);
        if delta < 0.0 || rng.gen::<f64>() < (-delta / t).exp() {
            ann.accept(ca, cb);
            accepted += 1;
        }
    }
    // Cells handed back in band-local row order; the merge rotates them
    // back into grid position.
    out.cells.clear();
    out.cells
        .extend((0..len).map(|local| ann.cells[cell_at(local)]));
    out.moved.clear();
    out.moved.extend(
        out.cells
            .iter()
            .filter_map(|c| c.map(|s| (s, ann.pos[s as usize]))),
    );
    out.accepted = accepted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::pack::pack_slices;

    fn sample_lutnet(luts: usize) -> LutNetlist {
        let mut net = LutNetlist::new("p".into(), 6, vec!["a".into(), "b".into()]);
        let mut prev = Signal::Input(0);
        for i in 0..luts {
            let id = net.push_lut(Lut {
                inputs: vec![prev, Signal::Input((i % 2) as u32)],
                truth: crate::lut::Truth::of(0b0110),
            });
            prev = Signal::Lut(id);
        }
        net.push_output("y".into(), prev);
        net
    }

    /// A denser netlist: several fan-in trees over shared inputs, so
    /// nets have a spread of fanouts.
    fn dense_lutnet(luts: usize) -> LutNetlist {
        let mut net = LutNetlist::new("d".into(), 6, vec!["a".into(), "b".into(), "c".into()]);
        let mut ids: Vec<Signal> = vec![Signal::Input(0), Signal::Input(1), Signal::Input(2)];
        for i in 0..luts {
            let x = ids[i % ids.len()];
            let y = ids[(i * 7 + 3) % ids.len()];
            let id = net.push_lut(Lut {
                inputs: vec![x, y],
                truth: crate::lut::Truth::of(0b0110),
            });
            ids.push(Signal::Lut(id));
        }
        net.push_output("y".into(), *ids.last().unwrap());
        net
    }

    /// Wide nets: every LUT reads one of three shared inputs and its
    /// predecessor, and every fifth drives an output, so the input nets
    /// span most slices and keep edge counts.
    fn wide_lutnet(luts: usize) -> LutNetlist {
        let mut net = LutNetlist::new("w".into(), 6, vec!["a".into(), "b".into(), "c".into()]);
        let mut prev = None;
        for i in 0..luts {
            let mut inputs = vec![Signal::Input((i % 3) as u32)];
            inputs.extend(prev);
            let id = net.push_lut(Lut {
                inputs,
                truth: crate::lut::Truth::of(0b0110),
            });
            prev = Some(Signal::Lut(id));
            if i % 5 == 4 {
                net.push_output(format!("y{i}"), Signal::Lut(id));
            }
        }
        net
    }

    /// Asserts every cached box and edge count equals one rebuilt from
    /// scratch over the work area's positions.
    fn assert_cache_exact(ann: &Annealer<'_>, what: &str) {
        for (ni, net) in ann.nets.iter().enumerate() {
            assert_eq!(
                ann.boxes[ni],
                NetBox::compute(net, &ann.pos),
                "{what}: net {ni} box"
            );
            let edges = if net.counted() {
                let (b, c) = NetBox::scan(net, &ann.pos, None);
                assert_eq!(b, ann.boxes[ni], "{what}: net {ni} scanned box");
                c
            } else {
                EdgeCounts::default()
            };
            assert_eq!(ann.edges[ni], edges, "{what}: net {ni} edge counts");
        }
    }

    fn snake_pos(s: usize, w: usize) -> (f32, f32) {
        let row = s / w;
        let col = if row.is_multiple_of(2) {
            s % w
        } else {
            w - 1 - (s % w)
        };
        (col as f32, row as f32)
    }

    #[test]
    fn placement_is_deterministic() {
        let net = sample_lutnet(40);
        let packing = pack_slices(&net, 4);
        let p1 = place(&net, &packing, &PlaceOptions::default());
        let p2 = place(&net, &packing, &PlaceOptions::default());
        for s in 0..packing.num_slices() {
            assert_eq!(p1.slice_pos(s as u32), p2.slice_pos(s as u32));
        }
    }

    #[test]
    fn annealing_does_not_worsen_wirelength() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        // Snake-only placement (zero-move annealer):
        let frozen = place(
            &net,
            &packing,
            &PlaceOptions {
                seed: 1,
                moves_factor: 0,
                max_total_moves: 0,
                threads: 1,
            },
        );
        let refined = place(&net, &packing, &PlaceOptions::default());
        assert!(refined.total_hpwl(&nets) <= frozen.total_hpwl(&nets) * 1.001);
    }

    #[test]
    fn every_slice_gets_a_unique_cell() {
        let net = sample_lutnet(33);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        let mut seen = std::collections::HashSet::new();
        for s in 0..packing.num_slices() {
            let pos = p.slice_pos(s as u32);
            assert!(
                seen.insert((pos.0 as i64, pos.1 as i64)),
                "slice {s} shares cell {pos:?}"
            );
            assert!(pos.0 >= 0.0 && (pos.0 as usize) < p.grid_w());
            assert!(pos.1 >= 0.0 && (pos.1 as usize) < p.grid_h());
        }
    }

    #[test]
    fn pads_sit_on_the_edges() {
        let net = sample_lutnet(10);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        assert_eq!(p.input_pos(0).0, -1.0);
        assert_eq!(p.output_pos(0).0, p.grid_w() as f32);
    }

    #[test]
    fn single_slice_design_places_trivially() {
        let net = sample_lutnet(2);
        let packing = pack_slices(&net, 4);
        let p = place(&net, &packing, &PlaceOptions::default());
        assert_eq!(p.grid_w(), 1);
        assert_eq!(p.slice_pos(0), (0.0, 0.0));
    }

    // ---- budget accounting (the `max_total_moves` contract) ----

    #[test]
    fn budget_is_exact_when_it_binds() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        for threads in [1, 4] {
            let (_, stats) = place_with_stats(
                &net,
                &packing,
                &PlaceOptions {
                    seed: 7,
                    moves_factor: 1_000,
                    max_total_moves: 500,
                    threads,
                },
            );
            assert_eq!(
                stats.proposals, 500,
                "threads={threads}: budget must be spent exactly"
            );
            let stepped: usize = stats.trajectory.iter().map(|s| s.proposed).sum();
            assert_eq!(stepped + PROBE_PROPOSALS, 500);
        }
    }

    #[test]
    fn budget_smaller_than_probe_truncates_the_probe() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (_, stats) = place_with_stats(
            &net,
            &packing,
            &PlaceOptions {
                seed: 7,
                moves_factor: 8,
                max_total_moves: 10,
                threads: 1,
            },
        );
        assert_eq!(stats.proposals, 10);
        assert!(stats.trajectory.is_empty());
    }

    #[test]
    fn zero_budget_returns_the_snake_placement() {
        let net = sample_lutnet(60);
        let packing = pack_slices(&net, 4);
        let (p, stats) = place_with_stats(
            &net,
            &packing,
            &PlaceOptions {
                seed: 7,
                moves_factor: 8,
                max_total_moves: 0,
                threads: 1,
            },
        );
        assert_eq!(stats.proposals, 0);
        assert_eq!(stats.accepted, 0);
        for s in 0..packing.num_slices() {
            assert_eq!(p.slice_pos(s as u32), snake_pos(s, p.grid_w()));
        }
    }

    #[test]
    fn stats_are_consistent_with_the_returned_placement() {
        let net = dense_lutnet(80);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        for threads in [1, 4] {
            let opts = PlaceOptions {
                threads,
                ..PlaceOptions::default()
            };
            let (p, stats) = place_with_stats(&net, &packing, &opts);
            // The cached boxes (incrementally updated sequentially,
            // dirty-refreshed at parallel merges) must agree with a
            // from-scratch HPWL over the returned placement.
            assert!(
                (stats.final_hpwl - p.total_hpwl(&nets)).abs() < 1e-6,
                "threads={threads}: cached {} vs fresh {}",
                stats.final_hpwl,
                p.total_hpwl(&nets)
            );
            assert!(stats.final_hpwl <= stats.initial_hpwl * 1.001);
            assert!(stats.accepted <= stats.proposals);
            if let Some(last) = stats.trajectory.last() {
                assert!((last.hpwl - stats.final_hpwl).abs() < 1e-6);
            }
        }
    }

    // ---- proposal evaluation is side-effect free ----

    fn build_annealer(lutnet: &LutNetlist) -> (Vec<Net>, Vec<Vec<u32>>, usize, usize) {
        let packing = pack_slices(lutnet, 4);
        let num_slices = packing.num_slices();
        let (w, h) = grid_size(num_slices);
        let nets = build_nets(lutnet, &packing);
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); num_slices];
        for (ni, net) in nets.iter().enumerate() {
            for &s in &net.slices {
                incident[s as usize].push(ni as u32);
            }
        }
        (nets, incident, w, h)
    }

    fn snake_state(num_slices: usize, w: usize, h: usize) -> (Vec<(f32, f32)>, Vec<Option<u32>>) {
        let mut cells: Vec<Option<u32>> = vec![None; w * h];
        let mut pos = vec![(0.0, 0.0); num_slices];
        for (s, p) in pos.iter_mut().enumerate() {
            let sp = snake_pos(s, w);
            cells[(sp.1 as usize) * w + sp.0 as usize] = Some(s as u32);
            *p = sp;
        }
        (pos, cells)
    }

    #[test]
    fn rejected_proposal_leaves_placement_bit_identical() {
        let lutnet = dense_lutnet(50);
        let packing = pack_slices(&lutnet, 4);
        let (nets, incident, w, h) = build_annealer(&lutnet);
        let (pos, cells) = snake_state(packing.num_slices(), w, h);
        let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
        let before_pos: Vec<(u32, u32)> = ann
            .pos
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        let before_cells = ann.cells.clone();
        let before_boxes = ann.boxes.clone();
        let before_edges = ann.edges.clone();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let (ca, cb) = draw_pair(&mut rng, w * h);
            let _delta = ann.propose(ca, cb);
            // Never accept: evaluation alone must not move anything.
        }
        let after_pos: Vec<(u32, u32)> = ann
            .pos
            .iter()
            .map(|p| (p.0.to_bits(), p.1.to_bits()))
            .collect();
        assert_eq!(before_pos, after_pos);
        assert_eq!(before_cells, ann.cells);
        assert_eq!(before_boxes, ann.boxes);
        assert_eq!(before_edges, ann.edges);
    }

    #[test]
    fn proposal_deltas_match_recomputed_hpwl() {
        for (name, lutnet) in [("dense", dense_lutnet(70)), ("wide", wide_lutnet(120))] {
            let packing = pack_slices(&lutnet, 4);
            let (nets, incident, w, h) = build_annealer(&lutnet);
            if name == "wide" {
                assert!(nets.iter().any(Net::counted), "no net keeps edge counts");
            }
            let (pos, cells) = snake_state(packing.num_slices(), w, h);
            let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
            assert_cache_exact(&ann, name);
            let mut rng = StdRng::seed_from_u64(5);
            let mut total = ann.total_hpwl();
            for i in 0..500 {
                let (ca, cb) = draw_pair(&mut rng, w * h);
                let delta = ann.propose(ca, cb);
                if i % 3 != 0 {
                    ann.accept(ca, cb);
                    total += delta;
                    // The cached running total must match a from-scratch
                    // recomputation over the moved positions.
                    let fresh: f64 = nets
                        .iter()
                        .map(|n| NetBox::compute(n, &ann.pos).hpwl())
                        .sum();
                    assert!(
                        (total - fresh).abs() < 1e-6,
                        "{name}: incremental total {total} diverged from fresh {fresh} at move {i}"
                    );
                    assert!((ann.total_hpwl() - fresh).abs() < 1e-6);
                    assert_cache_exact(&ann, &format!("{name}, move {i}"));
                }
            }
        }
    }

    #[test]
    fn shift_pin_agrees_with_a_rescan() {
        let mut rng = StdRng::seed_from_u64(11);
        let point = |rng: &mut StdRng| {
            (
                rng.gen_range(0..4usize) as f32,
                rng.gen_range(0..4usize) as f32,
            )
        };
        let (mut shifted, mut rescans) = (0, 0);
        for _ in 0..4000 {
            let k = rng.gen_range(1..7usize);
            let pos: Vec<(f32, f32)> = (0..k).map(|_| point(&mut rng)).collect();
            let net = Net {
                slices: (0..k as u32).collect(),
                pads: vec![(-1.0, 1.5)],
            };
            let (b, c) = NetBox::scan(&net, &pos, None);
            let s = rng.gen_range(0..k) as u32;
            let to = point(&mut rng);
            let rescanned = NetBox::scan(&net, &pos, Some((s, to)));
            match b.shift_pin(c, pos[s as usize], to) {
                Some(got) => {
                    assert_eq!(got, rescanned);
                    shifted += 1;
                }
                None => {
                    // An edge lost its last pin, so the box shrinks there.
                    let nb = rescanned.0;
                    assert!(
                        nb.min_x > b.min_x
                            || nb.max_x < b.max_x
                            || nb.min_y > b.min_y
                            || nb.max_y < b.max_y,
                        "shift_pin gave up on {b:?} although no edge moves in"
                    );
                    rescans += 1;
                }
            }
        }
        assert!(
            shifted > 0 && rescans > 0,
            "{shifted} shifted, {rescans} rescans"
        );
    }

    // ---- parallel mode ----

    #[test]
    fn parallel_placement_is_deterministic() {
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let opts = PlaceOptions {
            threads: 4,
            ..PlaceOptions::default()
        };
        let p1 = place(&net, &packing, &opts);
        let p2 = place(&net, &packing, &opts);
        for s in 0..packing.num_slices() {
            assert_eq!(p1.slice_pos(s as u32), p2.slice_pos(s as u32));
        }
    }

    #[test]
    fn parallel_placement_beats_snake_wirelength() {
        let net = dense_lutnet(120);
        let packing = pack_slices(&net, 4);
        let nets = build_nets(&net, &packing);
        let snake = place(
            &net,
            &packing,
            &PlaceOptions {
                seed: 1,
                moves_factor: 0,
                max_total_moves: 0,
                threads: 1,
            },
        );
        let parallel = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 4,
                ..PlaceOptions::default()
            },
        );
        assert!(parallel.total_hpwl(&nets) <= snake.total_hpwl(&nets));
    }

    #[test]
    fn parallel_keeps_every_slice_in_a_unique_cell() {
        let net = dense_lutnet(75);
        let packing = pack_slices(&net, 4);
        let p = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 3,
                ..PlaceOptions::default()
            },
        );
        let mut seen = std::collections::HashSet::new();
        for s in 0..packing.num_slices() {
            let pos = p.slice_pos(s as u32);
            assert!(seen.insert((pos.0 as i64, pos.1 as i64)));
        }
    }

    #[test]
    fn parallel_steps_keep_boxes_and_edge_counts_exact() {
        let lutnet = wide_lutnet(200);
        let packing = pack_slices(&lutnet, 4);
        let (nets, incident, w, h) = build_annealer(&lutnet);
        assert!(nets.iter().any(Net::counted), "no net keeps edge counts");
        let (pos, cells) = snake_state(packing.num_slices(), w, h);
        let mut ann = Annealer::new(&nets, &incident, w, pos, cells);
        let mut shards = Shards::new(&ann, h, effective_shards(3, w, h));
        assert!(shards.bands.len() > 1, "test needs a real multi-band grid");
        let mut t = 20.0;
        for step in 0..8 {
            shards.step(&mut ann, 42, step, t, 400);
            let what = format!("step {step}");
            assert_cache_exact(&ann, &format!("{what}, merged"));
            for (k, worker) in shards.workers.iter().enumerate() {
                assert_cache_exact(worker, &format!("{what}, shard {k}"));
            }
            t *= COOLING;
        }
    }

    #[test]
    fn rotating_bands_let_slices_migrate_between_bands() {
        // Without rotation, a slice could never leave the band it
        // started in (ROADMAP open item from PR 2). With per-step
        // boundary rotation, some slice must end up outside its
        // starting band of step-0 geometry.
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let num_slices = packing.num_slices();
        let (w, h) = grid_size(num_slices);
        let shards = effective_shards(2, w, h);
        assert!(shards > 1, "test needs a real multi-band grid");
        let bands = band_ranges(h, shards);
        let band_of = |row: usize| bands.iter().position(|&(r0, r1)| (r0..r1).contains(&row));
        let p = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 2,
                ..PlaceOptions::default()
            },
        );
        let migrated = (0..num_slices).any(|s| {
            let initial_row = s / w; // snake placement row
            let final_row = p.slice_pos(s as u32).1 as usize;
            band_of(initial_row) != band_of(final_row)
        });
        assert!(migrated, "no slice ever left its initial band");
    }

    #[test]
    fn rotated_band_placement_is_deterministic_per_seed() {
        // Same seed + thread count => identical placement; a different
        // seed rotates differently and (with overwhelming likelihood)
        // lands elsewhere.
        let net = dense_lutnet(90);
        let packing = pack_slices(&net, 4);
        let opts = |seed| PlaceOptions {
            seed,
            threads: 3,
            ..PlaceOptions::default()
        };
        let a1 = place(&net, &packing, &opts(7));
        let a2 = place(&net, &packing, &opts(7));
        let b = place(&net, &packing, &opts(8));
        let mut same_as_b = true;
        for s in 0..packing.num_slices() {
            assert_eq!(a1.slice_pos(s as u32), a2.slice_pos(s as u32));
            same_as_b &= a1.slice_pos(s as u32) == b.slice_pos(s as u32);
        }
        assert!(!same_as_b, "seed change had no effect on the placement");
    }

    #[test]
    fn band_offset_is_deterministic_and_varies_with_step() {
        for h in [2usize, 5, 31] {
            let offsets: Vec<usize> = (0..16).map(|s| band_offset(42, s, h)).collect();
            assert_eq!(
                offsets,
                (0..16).map(|s| band_offset(42, s, h)).collect::<Vec<_>>()
            );
            assert!(offsets.iter().all(|&o| o < h));
            if h > 2 {
                assert!(
                    offsets.windows(2).any(|w| w[0] != w[1]),
                    "offsets never changed across steps for h = {h}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_zero_and_one_agree() {
        let net = sample_lutnet(40);
        let packing = pack_slices(&net, 4);
        let p0 = place(
            &net,
            &packing,
            &PlaceOptions {
                threads: 0,
                ..PlaceOptions::default()
            },
        );
        let p1 = place(&net, &packing, &PlaceOptions::default());
        for s in 0..packing.num_slices() {
            assert_eq!(p0.slice_pos(s as u32), p1.slice_pos(s as u32));
        }
    }

    #[test]
    fn band_ranges_partition_all_rows() {
        for h in [1usize, 2, 5, 54, 57] {
            for shards in [1usize, 2, 3, 4, 7] {
                let shards = shards.min(h);
                let bands = band_ranges(h, shards);
                assert_eq!(bands.len(), shards);
                assert_eq!(bands[0].0, 0);
                assert_eq!(bands.last().unwrap().1, h);
                for w in bands.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                    assert!(w[0].1 > w[0].0);
                }
            }
        }
    }

    #[test]
    fn effective_shards_guarantee_two_cells_per_band() {
        assert_eq!(effective_shards(4, 1, 1), 1);
        assert_eq!(effective_shards(4, 1, 8), 4);
        assert_eq!(effective_shards(8, 1, 8), 4);
        assert_eq!(effective_shards(4, 10, 2), 2);
        assert_eq!(effective_shards(1, 10, 10), 1);
        assert_eq!(effective_shards(0, 10, 10), 1);
    }
}
