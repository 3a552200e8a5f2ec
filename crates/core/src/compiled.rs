//! Compiled point-location dispatch: a hyperplane decision DAG.
//!
//! The linear-scan dispatcher answers "which optimality region contains
//! this parameter point?" by testing every constraint of every region
//! piece — O(regions × constraints) exact-rational evaluations per
//! query. For a server answering millions of dispatch queries that shape
//! is wrong: most constraints are shared between pieces (Algorithm 2
//! carves the parameter space with the *same* cut-difference
//! hyperplanes, region subtraction reuses the subtrahend's constraints
//! negated), so one sign test usually decides many pieces at once.
//!
//! [`compile`] builds, once per analysis, a binary-space-partitioning
//! DAG over the distinct hyperplanes of the solution:
//!
//! * every region constraint is normalized ([`Constraint::normalize`]:
//!   integer coefficients, collective gcd 1) and sign-oriented (first
//!   non-zero coefficient positive), so `x - 5 >= 0` and `5 - x > 0`
//!   become the *same* plane queried for different signs;
//! * each internal node tests the sign of one plane and branches
//!   three ways (negative / zero / positive — the strict-vs-non-strict
//!   distinction of [`Cmp`] needs the zero branch kept apart);
//! * each leaf is a decided choice, the out-of-region fallback, or (if
//!   the node budget is hit) a short residual scan.
//!
//! Construction works on the exact rationals. Queries evaluate plane
//! signs in fixed-width `i128` arithmetic whenever the point and the
//! plane's (integer, normalized) coefficients fit, with a checked-
//! overflow fallback to exact rational evaluation — so the fast path
//! can never change an answer, only speed it up. A differential
//! property test (`tests/dispatch_tests.rs`) enforces bit-identical
//! agreement with [`Dispatcher::select_linear`] over seeded parameter
//! grids, including points outside every region where both paths take
//! the cheapest-cut fallback.

use crate::dispatch::{dispatch_counters, DispatchError, Dispatcher};
use crate::netbuild::PartitionNetwork;
use crate::parametric::ParametricPartition;
use offload_flow::ParamCap;
use offload_poly::{Cmp, Constraint, LinExpr, Rational};
use offload_symbolic::MonomialId;
use std::collections::HashMap;

/// Sign-set bitmask over a plane's value: bit 0 = negative, bit 1 =
/// zero, bit 2 = positive. A constraint is satisfied iff the plane's
/// actual sign bit is in the mask.
const NEG: u8 = 1;
const ZERO: u8 = 2;
const POS: u8 = 4;

/// Upper bound on DAG nodes; beyond it remaining subproblems become
/// residual-scan leaves (still exact, just not O(depth)). The solutions
/// the solver produces have a handful of choices over a handful of
/// planes, so this is a blowup guard, not a working limit.
const NODE_BUDGET: usize = 4096;

/// One canonical hyperplane: a normalized, sign-oriented integer
/// [`LinExpr`] over the linearized dimensions, plus its coefficients
/// promoted to `i128` when they fit (the query fast path).
#[derive(Debug, Clone)]
struct Plane {
    expr: LinExpr,
    /// `(variable coefficients, constant)` as `i128`, if all fit.
    fixed: Option<(Vec<i128>, i128)>,
}

/// One region piece compiled to plane sign tests: the conjunction of
/// `(plane, allowed-signs mask)` pairs.
#[derive(Debug, Clone)]
struct Piece {
    choice: u32,
    tests: Vec<(u32, u8)>,
}

#[derive(Debug, Clone)]
enum Leaf {
    /// Every candidate test is decided; this choice matches.
    Choice(u32),
    /// No candidate piece can match: take the cheapest-cut fallback.
    Fallback,
    /// Node budget exhausted: test the residual pieces linearly.
    Scan(Vec<Piece>),
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        plane: u32,
        /// Children indexed by sign: `[negative, zero, positive]`.
        children: [u32; 3],
    },
    Leaf(Leaf),
}

/// Build/shape statistics of a compiled dispatcher (for reports and
/// benchmark output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompiledStats {
    /// Distinct canonical hyperplanes in the solution.
    pub planes: usize,
    /// Total DAG nodes (splits + leaves).
    pub nodes: usize,
    /// Maximum root-to-leaf depth (sign tests on the worst query path).
    pub max_depth: usize,
    /// Region pieces compiled (over all choices).
    pub pieces: usize,
    /// Residual-scan leaves (0 unless the node budget was hit).
    pub scan_leaves: usize,
}

/// A self-contained compiled dispatcher: everything needed to answer
/// `select(params)` — dictionary, annotations, dimension list, decision
/// DAG and per-choice fallback cut expressions — owned by value.
///
/// Build one with [`Dispatcher::compile`]; queries are answered in
/// O(depth) sign comparisons and return bit-identical choices to
/// [`Dispatcher::select_linear`].
#[derive(Debug, Clone)]
pub struct CompiledDispatcher {
    base: Dispatcher,
    dims: Vec<MonomialId>,
    planes: Vec<Plane>,
    nodes: Vec<Node>,
    /// Per choice: the affine capacities of its cut's forward arcs
    /// (`None` when the cut severs an infinite arc and can never be the
    /// fallback). Each arc clamps to zero individually, mirroring
    /// [`ParamCap::eval`].
    fallback_cuts: Vec<Option<Vec<LinExpr>>>,
    stats: CompiledStats,
}

impl CompiledDispatcher {
    /// The underlying dispatcher (dictionary + annotations).
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.base
    }

    /// Build/shape statistics.
    pub fn stats(&self) -> CompiledStats {
        self.stats
    }

    /// Number of partitioning choices compiled in.
    pub fn choice_count(&self) -> usize {
        self.fallback_cuts.len()
    }

    /// Selects the partitioning choice for concrete parameter values:
    /// the same answer as [`Dispatcher::select_linear`], in O(depth)
    /// sign tests.
    ///
    /// # Errors
    ///
    /// Propagates [`DispatchError`] for missing annotations or wrong
    /// arity.
    pub fn select(&self, params: &[i64]) -> Result<usize, DispatchError> {
        if params.len() != self.base.dict().param_count() {
            return Err(DispatchError::ArityMismatch {
                expected: self.base.dict().param_count(),
                got: params.len(),
            });
        }
        let params: Vec<Rational> = params.iter().map(|&v| Rational::from(v)).collect();
        let point = self.base.dim_point_of(&self.dims, &params)?;
        // Fixed-width coordinates for the i128 fast path: only when
        // every coordinate is an integer that fits (dummy annotations
        // can produce fractional coordinates, e.g. branch frequencies).
        let ipoint: Option<Vec<i128>> = point
            .iter()
            .map(|r| {
                if r.is_integer() {
                    r.numer().to_i128()
                } else {
                    None
                }
            })
            .collect();

        let mut node = 0usize;
        let leaf = loop {
            match &self.nodes[node] {
                Node::Split { plane, children } => {
                    let s = self.plane_sign(*plane, &point, ipoint.as_deref());
                    node = children[(s + 1) as usize] as usize;
                }
                Node::Leaf(leaf) => break leaf,
            }
        };
        let matched = match leaf {
            Leaf::Choice(c) => Some(*c as usize),
            Leaf::Fallback => None,
            Leaf::Scan(pieces) => pieces
                .iter()
                .find(|p| {
                    p.tests.iter().all(|&(plane, mask)| {
                        let s = self.plane_sign(plane, &point, ipoint.as_deref());
                        mask & (1 << (s + 1)) != 0
                    })
                })
                .map(|p| p.choice as usize),
        };
        if let Some(i) = matched {
            offload_obs::event!(
                "runtime",
                "dispatch",
                choice = i,
                matched_region = true,
                compiled = true,
            );
            dispatch_counters().compiled_matches.inc();
            return Ok(i);
        }
        // Outside every region: cheapest known cut, earliest index on
        // ties — identical to the linear scan's fallback.
        let mut best: Option<(usize, Rational)> = None;
        for (i, arcs) in self.fallback_cuts.iter().enumerate() {
            if let Some(arcs) = arcs {
                let mut v = Rational::zero();
                for e in arcs {
                    let x = e.eval(&point);
                    if !x.is_negative() {
                        v += &x;
                    }
                }
                best = Some(match best {
                    None => (i, v),
                    Some((_, bv)) if v < bv => (i, v),
                    Some(b) => b,
                });
            }
        }
        let selected = best.map(|(i, _)| i).unwrap_or(0);
        offload_obs::event!(
            "runtime",
            "dispatch",
            choice = selected,
            matched_region = false,
            compiled = true,
        );
        dispatch_counters().compiled_fallbacks.inc();
        Ok(selected)
    }

    /// The sign (−1 / 0 / +1) of one plane at the query point: `i128`
    /// checked arithmetic when both the point and the plane fit, exact
    /// rationals otherwise (and on overflow).
    fn plane_sign(&self, plane: u32, point: &[Rational], ipoint: Option<&[i128]>) -> i32 {
        let p = &self.planes[plane as usize];
        if let (Some(ip), Some((coeffs, constant))) = (ipoint, &p.fixed) {
            if let Some(acc) = dot_i128(coeffs, *constant, ip) {
                return acc.signum() as i32;
            }
            dispatch_counters().exact_sign_evals.inc();
        }
        p.expr.eval(point).signum()
    }
}

/// `constant + Σ coeffs[i] * point[i]` in checked `i128`; `None` on any
/// overflow.
fn dot_i128(coeffs: &[i128], constant: i128, point: &[i128]) -> Option<i128> {
    let mut acc = constant;
    for (c, v) in coeffs.iter().zip(point) {
        if *c == 0 {
            continue;
        }
        acc = acc.checked_add(c.checked_mul(*v)?)?;
    }
    Some(acc)
}

/// Interns the canonical form of a constraint, returning its plane index
/// and the sign mask under which the constraint holds. Returns `Err(b)`
/// when the constraint is trivially true/false (`b`).
fn intern_constraint(
    c: &Constraint,
    planes: &mut Vec<Plane>,
    index: &mut HashMap<LinExpr, u32>,
) -> Result<(u32, u8), bool> {
    let n = c.normalize();
    if let Some(t) = n.trivial_truth() {
        return Err(t);
    }
    // Orient: first non-zero coefficient positive, so a hyperplane and
    // its negation intern to the same entry.
    let flip = n
        .expr
        .terms()
        .next()
        .map(|(_, c)| c.is_negative())
        .unwrap_or(false);
    let expr = if flip {
        n.expr.scale(&Rational::from(-1))
    } else {
        n.expr
    };
    let mask = match (n.cmp, flip) {
        (Cmp::Ge, false) => ZERO | POS,
        (Cmp::Gt, false) => POS,
        (Cmp::Ge, true) => NEG | ZERO,
        (Cmp::Gt, true) => NEG,
    };
    let next = planes.len() as u32;
    let id = *index.entry(expr.clone()).or_insert_with(|| {
        let fixed = fix_coeffs(&expr);
        planes.push(Plane { expr, fixed });
        next
    });
    Ok((id, mask))
}

/// The `i128` image of a normalized (integer-coefficient) expression,
/// if every coefficient fits.
fn fix_coeffs(expr: &LinExpr) -> Option<(Vec<i128>, i128)> {
    let mut coeffs = Vec::with_capacity(expr.nvars());
    for i in 0..expr.nvars() {
        let c = expr.coeff(i);
        if !c.is_integer() {
            return None;
        }
        coeffs.push(c.numer().to_i128()?);
    }
    let c = expr.constant_term();
    if !c.is_integer() {
        return None;
    }
    Some((coeffs, c.numer().to_i128()?))
}

/// Recursive DAG builder state.
struct Builder {
    nodes: Vec<Node>,
    max_depth: usize,
    scan_leaves: usize,
}

impl Builder {
    fn leaf(&mut self, leaf: Leaf) -> u32 {
        if matches!(leaf, Leaf::Scan(_)) {
            self.scan_leaves += 1;
        }
        self.nodes.push(Node::Leaf(leaf));
        (self.nodes.len() - 1) as u32
    }

    /// Builds the subtree for the still-live candidate pieces (in
    /// first-match order) under the signs recorded in `decided`
    /// (0 = undecided, else the actual sign bit).
    fn build(&mut self, pieces: &[Piece], decided: &mut [u8], depth: usize) -> u32 {
        self.max_depth = self.max_depth.max(depth);
        // Reduce each piece against the decided signs.
        let mut live: Vec<Piece> = Vec::with_capacity(pieces.len());
        'pieces: for p in pieces {
            let mut rest = Vec::with_capacity(p.tests.len());
            for &(plane, mask) in &p.tests {
                let d = decided[plane as usize];
                if d == 0 {
                    rest.push((plane, mask));
                } else if d & mask == 0 {
                    continue 'pieces; // contradicted: drop the piece
                }
            }
            if rest.is_empty() {
                // Fully satisfied. If it is the first live piece, the
                // match is decided (first-match-wins); later pieces
                // cannot be reached, so stop collecting.
                if live.is_empty() {
                    return self.leaf(Leaf::Choice(p.choice));
                }
                live.push(Piece {
                    choice: p.choice,
                    tests: rest,
                });
                break;
            }
            live.push(Piece {
                choice: p.choice,
                tests: rest,
            });
        }
        let Some(first) = live.first() else {
            return self.leaf(Leaf::Fallback);
        };
        if self.nodes.len() >= NODE_BUDGET {
            return self.leaf(Leaf::Scan(live));
        }
        // Split on the first live piece's undecided plane that the most
        // pieces reference (lowest plane id on ties): deciding it always
        // shrinks the first piece, so recursion terminates, and sharing
        // maximizes how many other pieces each test advances.
        let plane = first
            .tests
            .iter()
            .map(|&(plane, _)| {
                let uses = live
                    .iter()
                    .filter(|p| p.tests.iter().any(|&(q, _)| q == plane))
                    .count();
                (std::cmp::Reverse(uses), plane)
            })
            .min()
            .map(|(_, plane)| plane)
            .expect("first live piece has undecided tests");

        let node = self.nodes.len() as u32;
        self.nodes.push(Node::Split {
            plane,
            children: [0; 3],
        });
        let mut children = [0u32; 3];
        for (slot, sign) in [NEG, ZERO, POS].into_iter().enumerate() {
            decided[plane as usize] = sign;
            children[slot] = self.build(&live, decided, depth + 1);
        }
        decided[plane as usize] = 0;
        self.nodes[node as usize] = Node::Split { plane, children };
        node
    }
}

/// Compiles a partitioning solution against its network into a
/// [`CompiledDispatcher`]. Exposed through [`Dispatcher::compile`].
pub(crate) fn compile(
    base: Dispatcher,
    pnet: &PartitionNetwork,
    partition: &ParametricPartition,
) -> CompiledDispatcher {
    let mut planes = Vec::new();
    let mut index = HashMap::new();
    let mut pieces = Vec::new();
    for (choice_idx, choice) in partition.choices.iter().enumerate() {
        for poly in choice.region.pieces() {
            let mut tests: Vec<(u32, u8)> = Vec::with_capacity(poly.constraints().len());
            let mut impossible = false;
            for c in poly.constraints() {
                match intern_constraint(c, &mut planes, &mut index) {
                    Ok((plane, mask)) => {
                        // Merge duplicate planes within the conjunction.
                        if let Some(t) = tests.iter_mut().find(|(p, _)| *p == plane) {
                            t.1 &= mask;
                            if t.1 == 0 {
                                impossible = true;
                                break;
                            }
                        } else {
                            tests.push((plane, mask));
                        }
                    }
                    Err(true) => {}
                    Err(false) => {
                        impossible = true;
                        break;
                    }
                }
            }
            if !impossible {
                pieces.push(Piece {
                    choice: choice_idx as u32,
                    tests,
                });
            }
        }
    }

    let piece_count = pieces.len();
    let mut builder = Builder {
        nodes: Vec::new(),
        max_depth: 0,
        scan_leaves: 0,
    };
    let mut decided = vec![0u8; planes.len()];
    builder.build(&pieces, &mut decided, 0);

    // Per-choice fallback data: the affine capacities of the cut's
    // forward arcs (infinite arcs disqualify the whole choice), so the
    // fallback sums exactly what `cut_value_at` would.
    let fallback_cuts = partition
        .choices
        .iter()
        .map(|choice| {
            let mut arcs = Vec::new();
            for a in pnet.net.arcs() {
                if choice.cut[a.from] && !choice.cut[a.to] {
                    match &a.cap {
                        ParamCap::Affine(e) => arcs.push(e.clone()),
                        ParamCap::Infinite => return None,
                    }
                }
            }
            Some(arcs)
        })
        .collect();

    let stats = CompiledStats {
        planes: planes.len(),
        nodes: builder.nodes.len(),
        max_depth: builder.max_depth,
        pieces: piece_count,
        scan_leaves: builder.scan_leaves,
    };
    CompiledDispatcher {
        base,
        dims: pnet.dims.clone(),
        planes,
        nodes: builder.nodes,
        fallback_cuts,
        stats,
    }
}
