"""End-to-end computation of the feasible parameter region.

Pipeline: list the comparisons of clock bounds that a cell must keep
constant, decompose the parameter space so that each has a constant sign
per cell, then decide the property at one exact sample per cell with
the concrete semantics and read the region off the verdict-true cells.
With one clock, comparing two bounds is the sign of the difference of
their thresholds, so every comparison is one clock-free expression and
``_region`` decomposes over a list of them.  The parameter count alone
picks the decomposition: root isolation of the differences (``cad1``)
for one parameter, linear or polynomial; the differences as hyperplanes
(``linear``) for zero, two or three parameters, whose expressions must
then be linear.  ``synthesize`` and ``run_region`` share ``_region``:
both decompositions and the per-cell decision loop; each passes the
comparisons its decision reads.  ``synthesize`` compiles the model and
property once (``semantics.compile_check``), decomposes over every pair
of the model's and property's thresholds and reset values
(``_comparisons``), and instantiates that one program at each cell's
valuation, one ``decide`` call per cell.  ``run_region`` compiles each
branch of the run once (``feasibility.compile_run``), decomposes over
only the comparisons those compiled checks read
(``feasibility.run_comparisons``), and decides each branch in scaled ints
at each cell's valuation.

Scope: exactly one parametric clock, and no other constrained clocks
(models with extra concretely constrained clocks are accepted by the
checkers but not by synthesis, which matches the preprocessing this
pipeline assumes).  Under integer parameter domains with nat time, cells
are decided at an integer sample when one exists, since integer-point
verdicts are the ones the decomposition keeps constant there; for that,
both decompositions compare a strict bound ``x < t`` through its closed
nat-time form ``x <= t - 1``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .constraints import AtomicConstraint
from .decomposition import (
    Cell1D,
    cell1d_integer_point,
    decompose_1d,
    decompose_linear,
    integer_point,
    project_clock,
)
from .expressions import Expression
from .model import (
    PARAM_INT,
    PARAM_NAT,
    PARAM_REAL,
    Pta,
    SyntacticRun,
    SystemProperty,
    TIME_NAT,
    UnsupportedError,
    prop_atoms,
)
from .polynomials import AlgebraicNumber, AnchoredRoot
from .semantics import compile_check, decide
from .feasibility import _threshold, compile_run, feasible_with_reset, run_comparisons
from .transforms import encode_run_property, invariants_to_guards

DEFAULT_INT_BOX = 64


@dataclass
class CellVerdict:
    cell: object                     # Cell1D | LinearCell
    verdict: bool
    decided_at: str                  # "sample" | "integer-point"
    integer_witness: Optional[tuple] = None


@dataclass
class FeasibleRegion:
    params: Tuple[str, ...]
    method: str                      # "cad1" | "linear"
    cells: List[CellVerdict]
    psi: Optional[SystemProperty]
    time_domain: str
    param_domain: str

    def is_empty(self) -> bool:
        return not any(cv.verdict for cv in self.cells)

    @cached_property
    def signs_index(self) -> dict:
        """Verdict by sign vector, for the cells of a linear region."""
        return {cv.cell.signs: cv.verdict for cv in self.cells}

    @cached_property
    def root_keys(self) -> List[int]:
        """For a cad1 region, one int per root in order: ``2n`` for a root
        that is the integer ``n``, ``2 floor(root) + 1`` for any other.  The
        floor of an irrational root is taken on a copy, so the cells keep
        the intervals the decomposition isolated."""
        keys = []
        for cv in self.cells[1::2]:
            root = cv.cell.lo
            if isinstance(root, Fraction) and root.denominator == 1:
                keys.append(2 * root.numerator)
            else:
                keys.append(2 * math.floor(_detached(root)) + 1)
        return keys


def _atom_pool(pta: Pta, psi: Optional[SystemProperty]) -> List[AtomicConstraint]:
    return list(pta.atoms()) + (list(prop_atoms(psi.phi)) if psi is not None else [])


def _synthesis_clock(atom_pool: Sequence[AtomicConstraint]) -> Optional[str]:
    parametric, constrained = set(), set()
    for a in atom_pool:
        constrained.update(a.clocks())
        if a.is_parametric():
            parametric.update(a.clocks())
    if len(parametric) > 1:
        raise UnsupportedError(
            "model has %d parametric clocks; the synthesis pipeline handles one "
            "(see the two-clock analysis for the two-clock, one-parameter case)"
            % len(parametric))
    extra = constrained - parametric
    if parametric and extra:
        raise UnsupportedError(
            "synthesis needs the parametric clock to be the only constrained clock "
            "(concretely constrained clocks: %s)" % ", ".join(sorted(extra)))
    if len(constrained) > 1:
        raise UnsupportedError("synthesis supports a single constrained clock")
    return next(iter(constrained)) if constrained else None


def _reset_constants(pta: Pta) -> List[int]:
    out = []
    for e in pta.edges:
        out.extend(int(b) for b in e.updates.values())
    return out


# -- the comparisons a cell keeps constant ------------------------------------

def _comparisons(atom_pool: Sequence[AtomicConstraint], resets: Sequence[int],
                 nat_time: bool) -> List[Expression]:
    """Every comparison of the pool, as the expressions whose sign every
    cell keeps constant: each finite clock-free bound, compared with 0, and
    ``a - b`` for each pair of entries, since with one clock ``x ~ a``
    against ``x ~ b`` is the sign of ``a - b``.  The entries are the
    distinct thresholds of the finite clock bounds
    (``feasibility._threshold``), then the constants 0 and the reset
    values; every threshold is compared with every later entry."""
    finite = [atom for atom in atom_pool if not atom.rhs.is_infinite()]
    thresholds = list(dict.fromkeys(_threshold(atom, nat_time)
                                    for atom in finite if not atom.is_clock_free()))
    entries = thresholds + [Expression.constant(c) for c in sorted({0, *map(int, resets)})]
    return ([atom.rhs for atom in finite if atom.is_clock_free()]
            + [a.minus(b) for k, a in enumerate(thresholds) for b in entries[k + 1:]])


# -- one decision per cell ------------------------------------------------------

def _detached(value):
    """A copy of an algebraic value, which comparisons may refine without
    touching the cells that share it; other scalars as they are."""
    return AlgebraicNumber(value.poly, value.lo, value.hi) \
        if isinstance(value, AlgebraicNumber) else value


def _integer_point_1d(cell: Cell1D, box) -> Optional[tuple]:
    n = cell1d_integer_point(replace(cell, lo=_detached(cell.lo), hi=_detached(cell.hi)),
                             minimum=box[0])
    return None if n is None or n > box[1] else (n,)


def _decide_cells(cells, params, decide_at, domain, pdomain, integer_of) -> List[CellVerdict]:
    """Decide every cell at one valuation.

    Under int/nat parameters each cell's least integer point in the box
    (``integer_of(cell, (lo, hi))``) is recorded; in nat time the cell is
    decided there when it has one, and at its exact sample otherwise.  A 1D
    point cell at an irrational root is decided at an :class:`AnchoredRoot`
    that carries its left neighbour's sample and its ``vanishing`` set.
    Both look at copies of algebraic values: comparisons refine a root's
    interval in place, and the cell's endpoints share the root object, so
    the reported intervals stay the ones the decomposition isolated.
    """
    box = (0 if pdomain == PARAM_NAT else -DEFAULT_INT_BOX, DEFAULT_INT_BOX)
    integral = pdomain in (PARAM_INT, PARAM_NAT)
    out = []
    left = None
    for cell in cells:
        integer = integer_of(cell, box) if integral else None
        if domain == TIME_NAT and integer is not None:
            values, decided = integer, "integer-point"
        elif isinstance(cell.sample, tuple):
            values, decided = cell.sample, "sample"
        elif isinstance(cell.sample, AlgebraicNumber):
            values, decided = [AnchoredRoot(cell.sample, left.sample, cell.vanishing)], "sample"
        else:
            values, decided = [cell.sample], "sample"
        gamma = dict(zip(params, values))
        out.append(CellVerdict(cell, decide_at(gamma), decided, integer))
        left = cell
    return out


def _region(params, exprs, decide_at, psi, domain, pdomain) -> FeasibleRegion:
    """Decompose the parameter space over the signs of ``exprs``, the
    comparisons the caller's decision reads, and decide every cell: by 1D
    root isolation for one parameter, over the hyperplane arrangement
    otherwise (``decompose_linear`` rejects polynomial expressions).

    Nat time with real parameters is rejected: nat-time verdicts depend on
    the floor of each threshold, which the cells do not keep constant.
    """
    params = tuple(params)
    if params and domain == TIME_NAT and pdomain == PARAM_REAL:
        raise UnsupportedError(
            "synthesis in nat time needs int or nat parameters: nat-time verdicts "
            "are not constant on the cells of real parameters")
    if len(params) == 1:
        # the inputs are clock-free, so project_clock computes no resultant:
        # it makes them primitive, drops constants, deduplicates and sorts.
        # perfbench/spans.py times this call as the cad1 layer
        cells = decompose_1d(project_clock([(e.univariate(params[0]),) for e in exprs]))
        verdicts = _decide_cells(cells, params, decide_at, domain, pdomain,
                                 _integer_point_1d)
        return FeasibleRegion(params, "cad1", verdicts, psi, domain, pdomain)
    cells = decompose_linear(exprs, params)
    verdicts = _decide_cells(cells, params, decide_at, domain, pdomain, integer_point)
    return FeasibleRegion(params, "linear", verdicts, psi, domain, pdomain)


# -- the pipeline ---------------------------------------------------------------

def synthesize(pta: Pta, psi: SystemProperty, time_domain: Optional[str] = None,
               param_domain: Optional[str] = None) -> FeasibleRegion:
    """Compute the feasible parameter region for the property.

    One parameter, linear or polynomial, goes through the 1D
    decomposition; linear expressions over zero, two or three parameters
    go through the hyperplane arrangement.  Every cell is decided
    concretely at its sample (dual reach for forall-always properties).
    """
    domain = time_domain or pta.time_domain
    pdomain = param_domain or pta.param_domain
    atom_pool = _atom_pool(pta, psi)
    _synthesis_clock(atom_pool)

    program = compile_check(pta, psi, domain)

    def decide_at(gamma):
        return decide(program, gamma, witness=False).satisfied

    exprs = _comparisons(atom_pool, _reset_constants(pta), domain == TIME_NAT)
    return _region(pta.params, exprs, decide_at, psi, domain, pdomain)


def region_query(region: FeasibleRegion, gamma) -> bool:
    """Locate the cell containing the valuation and return its verdict.

    1D regions bisect the ordered roots: ``decompose_1d`` cells alternate
    interval and point, so ``cells[2k+1]`` is the k-th root.  The bisection
    runs over the ints of ``root_keys``, which order an integer query
    against every root; a non-integer query compares exactly only with the
    roots that share its floor.  Linear regions index cells by the sign
    vector of the canonical hyperplanes at the query point; the cells share
    the arrangement's int plane vectors, and the point is scaled by the lcm
    of its denominators, so every sign is that of an int dot product.
    Values are ints or ``Fraction``s; anything else goes through
    ``Fraction`` first.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v)
              for v in map(gamma.__getitem__, region.params)]
    cells = region.cells
    if region.method == "cad1":
        value = values[0]
        keys = region.root_keys
        if value.denominator == 1:
            key = 2 * value.numerator
            k = bisect_left(keys, key)
            if k < len(keys) and keys[k] == key:
                return cells[2 * k + 1].verdict
            return cells[2 * k].verdict
        key = 2 * (value.numerator // value.denominator) + 1
        lo = bisect_left(keys, key)
        hi = bisect_right(keys, key, lo)
        while lo < hi:
            mid = (lo + hi) // 2
            root = cells[2 * mid + 1].cell.lo
            if value < root:
                hi = mid
            elif value == root:
                return cells[2 * mid + 1].verdict
            else:
                lo = mid + 1
        return cells[2 * lo].verdict
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    scaled.append(scale)
    signs = []
    for vec in cells[0].cell.planes:
        v = sum(map(int.__mul__, vec, scaled))
        signs.append((v > 0) - (v < 0))
    try:
        return region.signs_index[tuple(signs)]
    except KeyError:
        raise AssertionError("decomposition does not cover the query point")


def enumerate_runs(pta: Pta, max_len: int) -> List[SyntacticRun]:
    """All syntactic runs of length <= max_len, breadth-first, edges in
    declaration order."""
    runs = [SyntacticRun(pta, ())]
    frontier = [((), pta.initial)]
    for _ in range(max_len):
        nxt = []
        for prefix, at in frontier:
            for idx, e in enumerate(pta.edges):
                if e.source != at:
                    continue
                path = prefix + (idx,)
                runs.append(SyntacticRun(pta, path))
                nxt.append((path, e.target))
        frontier = nxt
        if not frontier:
            break
    return runs


def run_region(pta: Pta, tau: SyntacticRun, phi, time_domain: Optional[str] = None,
               param_domain: Optional[str] = None) -> FeasibleRegion:
    """Parameter region over which one syntactic run can reach its end
    in a state satisfying the property.

    The property is encoded into the final step (one branch per DNF
    disjunct), invariants are folded into guards, and each branch is
    compiled once (:func:`compile_run`).  Each cell sample is then tested
    with the segmented pairwise feasibility check, verdict only, on the
    branch's bounds in scaled ints (exact values at an irrational sample);
    the region is the union over branches.
    """
    domain = time_domain or pta.time_domain
    pdomain = param_domain or pta.param_domain
    branches = [invariants_to_guards(er) for er in encode_run_property(tau, phi)]
    programs = [compile_run(br, domain) for br in branches]

    def decide_at(gamma):
        return any(feasible_with_reset(program, gamma, witness=False).feasible
                   for program in programs)

    exprs = set().union(*map(run_comparisons, programs))
    region = _region(pta.params, exprs, decide_at, None, domain, pdomain)
    if region.method == "linear" and any(program.degree > 1 for program in programs):
        # decompose_linear refused only nonlinear compared bounds; refuse
        # the others too, after _region's refusal of the domains
        raise UnsupportedError("polynomial expressions are supported with exactly one parameter")
    return region
