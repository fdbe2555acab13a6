"""End-to-end computation of the feasible parameter region.

Pipeline: collect the thresholds of the model and property
(``threshold_pool``), decompose the parameter space so that the
comparisons among them have a constant sign per cell, then decide the
property at one exact sample per cell with the concrete semantics and
read the region off the verdict-true cells.  With one clock, comparing
two bounds is the sign of the difference of their thresholds, so both
decompositions split on one list of threshold differences
(``_comparisons``).  The parameter count alone picks the decomposition:
root isolation of the differences (``cad1``) for one parameter, linear
or polynomial; the differences as hyperplanes (``linear``) for zero, two
or three parameters, whose expressions must then be linear.
``synthesize`` and ``run_region`` share the pool, both decompositions and
the per-cell decision loop; they differ in which comparisons they
decompose over and in what they decide at a valuation.  ``synthesize``
decomposes over every pair of the pool, compiles the model and property
once (``semantics.compile_check``) and instantiates that one program at
each cell's valuation, one ``decide`` call per cell.  ``run_region``
compiles each branch of the run once (``feasibility.compile_run``),
decomposes over only the comparisons those compiled checks read
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
    expr_to_vector,
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
from .feasibility import compile_run, feasible_with_reset, run_comparisons
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

def _threshold(atom: AtomicConstraint, nat_time: bool) -> Expression:
    """The threshold of a clock bound: ``t`` for ``x ~ t`` and ``-e`` for
    ``-x ~ e``.  In nat time a strict bound ``x < t`` is the closed bound
    ``x <= t - 1`` (and ``x > t`` is ``x >= t + 1``), so its threshold is
    shifted by one."""
    if atom.pos is not None:
        return atom.rhs.plus_const(-1) if nat_time and atom.strict else atom.rhs
    thr = atom.rhs.negated()
    return thr.plus_const(1) if nat_time and atom.strict else thr


def threshold_pool(atom_pool: Sequence[AtomicConstraint], resets: Sequence[int],
                   nat_time: bool) -> Tuple[List[Expression], List[Expression], List[int]]:
    """The comparisons whose sign must be constant in every cell.

    Returns ``(free, thresholds, consts)``: the clock-free expressions,
    compared with 0; the distinct clock thresholds (``_threshold``); and
    the constants, 0 and the reset values.  The thresholds and the
    constants are the pool's entries; a comparison is a pair of entries
    (``_comparisons``).
    """
    free: List[Expression] = []
    thresholds: List[Expression] = []
    seen = set()
    for atom in atom_pool:
        if atom.rhs.is_infinite():
            continue
        if atom.pos is not None and atom.neg is not None:
            raise UnsupportedError("difference atoms are outside the one-clock pipeline")
        if atom.is_clock_free():
            free.append(atom.rhs)
            continue
        thr = _threshold(atom, nat_time)
        if thr not in seen:
            seen.add(thr)
            thresholds.append(thr)
    return free, thresholds, sorted({0, *(int(b) for b in resets)})


def _comparisons(pool, comparisons, nat_time: bool) -> List[Expression]:
    """The expressions whose sign every cell keeps constant: each clock-free
    expression, and ``a - b`` for each compared pair of thresholds, since
    with one clock ``x ~ a`` against ``x ~ b`` is the sign of ``a - b``.

    By default every threshold is compared with every later pool entry, so
    with each other threshold and each constant.  ``comparisons`` are
    ``feasibility.run_comparisons`` pairs instead: an atom against an atom
    or an int constant, each atom read through ``_threshold``.
    """
    free, thresholds, consts = pool
    if comparisons is None:
        entries = thresholds + [Expression.constant(c) for c in consts]
        pairs = [(a, b) for k, a in enumerate(thresholds) for b in entries[k + 1:]]
    else:
        pairs = [(_threshold(upper, nat_time),
                  Expression.constant(other) if isinstance(other, int)
                  else _threshold(other, nat_time))
                 for upper, other in comparisons]
    return list(free) + [a.minus(b) for a, b in pairs]


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


def _region(params, atom_pool, resets, decide_at, psi, domain, pdomain,
            comparisons=None) -> FeasibleRegion:
    """Decompose the parameter space over the signs of ``_comparisons``
    and decide every cell: by 1D root isolation for one parameter, over
    the hyperplane arrangement otherwise (``decompose_linear`` rejects
    polynomial expressions).

    The decomposition compares every pair of the pool, or only the
    ``comparisons`` given (``feasibility.run_comparisons`` pairs); the
    whole pool is validated either way.  Nat time with real parameters is
    rejected: nat-time verdicts depend on the floor of each threshold,
    which the cells do not keep constant.
    """
    params = tuple(params)
    if params and domain == TIME_NAT and pdomain == PARAM_REAL:
        raise UnsupportedError(
            "synthesis in nat time needs int or nat parameters: nat-time verdicts "
            "are not constant on the cells of real parameters")
    pool = threshold_pool(atom_pool, resets, domain == TIME_NAT)
    exprs = _comparisons(pool, comparisons, domain == TIME_NAT)
    if len(params) == 1:
        # the inputs are clock-free, so project_clock computes no resultant:
        # it makes them primitive, drops constants, deduplicates and sorts.
        # perfbench/spans.py times this call as the cad1 layer
        cells = decompose_1d(project_clock([(e.univariate(params[0]),) for e in exprs]))
        verdicts = _decide_cells(cells, params, decide_at, domain, pdomain,
                                 _integer_point_1d)
        return FeasibleRegion(params, "cad1", verdicts, psi, domain, pdomain)
    if len(params) <= 3:
        # decompose_linear refuses more parameters before anything else;
        # a threshold left out of every pair must still be linear
        for t in pool[1]:
            expr_to_vector(t, params)
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

    return _region(pta.params, atom_pool, _reset_constants(pta), decide_at, psi,
                   domain, pdomain)


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
    params = pta.params

    atom_pool: List[AtomicConstraint] = []
    resets = _reset_constants(pta)
    for br in branches:
        atom_pool.extend(br.initial_condition.conjuncts)
        for st in br.steps:
            atom_pool.extend(st.guard.conjuncts)
            resets.extend(int(b) for b in st.updates.values())

    programs = [compile_run(br, domain) for br in branches]

    def decide_at(gamma):
        return any(feasible_with_reset(program, gamma, witness=False).feasible
                   for program in programs)

    comparisons = set().union(*map(run_comparisons, programs))
    return _region(params, atom_pool, resets, decide_at, None, domain, pdomain, comparisons)
