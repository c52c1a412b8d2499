"""The BDD manager: one canonical node store and the Boolean algebra.

Representation
--------------
* The node table is three flat 64-bit integer columns
  (``array('q')``): ``_var_col`` (variable level), ``_lo_col`` and
  ``_hi_col`` (child *references*).  Index ``0`` is the single
  terminal, the constant ONE.
* A function is a **tagged reference** ``ref = (index << 1) | phase``:
  the low bit says "complement this node's function".  The constants
  are ``ONE = 0`` (terminal, plain) and ``ZERO = 1`` (terminal,
  complemented), so the constants are exactly the refs ``<= 1``.
* Canonical form is **high-edge-regular**: a stored node's high child
  never carries the complement bit.  ``_mk_sem`` enforces this by
  flipping both cofactors and complementing the returned reference, so
  every Boolean function has exactly one representation and ``f == g``
  is integer equality on refs.
* NOT is one XOR (``ref ^ 1``): no NOT cache, no DAG copy, and a
  function shares every node with its complement — the MCT window
  decisions build their mismatch BDDs from exactly that XOR/XNOR/NOT
  traffic.
* The unique table and the ITE operation cache are keyed by **packed
  integers** (shift-or of level/refs) instead of tuples: one dict probe
  costs no tuple allocation and hashes a single int.
* Standard complement-edge ITE canonicalization (Brace–Rudell–Bryant):
  terminal rules first, then — when normalization is enabled —
  operand substitution, commutation to the lowest-index test, a
  regular (uncomplemented) test, and a regular THEN operand, with the
  output complement carried in a flip bit.  Equivalent and
  complemented forms of one subproblem share a single cache entry.

The derived algorithms — restrict, compose, quantification,
``and_exists``, constrain, SAT queries, transfer, ordering search —
walk the DAG through ``_ref_level`` and ``_ref_cofactors``, which
return *semantic* cofactors with any complement phase already pushed
down, so they never see a tagged node, only tagged edges.

Engineering:

* every traversal runs on an **explicit stack** — no Python recursion,
  no ``sys.setrecursionlimit`` mutation;
* the ITE operation cache is **bounded** (``max_cache_size``) with
  *recency-aware* eviction: a cache hit moves the entry to the young
  end, and overflow drops the least-recently-used half — long-lived
  hot triples survive churn;
* dead nodes are reclaimed by mark-and-sweep
  (:meth:`BddManager.collect_garbage`), with ``gc_threshold`` enabling
  automatic collection at public-operation boundaries;
* **dynamic sifting hooks**: :meth:`BddManager.sift_now` reorders the
  live functions *in place* (handles are re-pointed, levels change,
  semantics do not), and ``sift_threshold=N`` arms an automatic
  mid-sweep trigger.  Sifting work is charged to the manager's
  :class:`~repro.errors.Budget` and polls its deadline, so a sift
  inside a time-limited sweep stops cooperatively;
* the manager charges an optional :class:`repro.errors.Budget` one
  unit per *created* node, so runaway analyses fail deterministically
  with :class:`repro.errors.ResourceBudgetExceeded`.

Performance counters (:class:`repro.bdd.stats.BddStats`) are always on
and exposed as :attr:`BddManager.stats`.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import BddError, Budget
from repro.bdd.function import Function
from repro.bdd.stats import BddStats

#: Sentinel level for terminal nodes; compares *greater* than any
#: variable level so terminals sort below all variables in the order.
TERMINAL_LEVEL = 1 << 60

#: Constant references: the terminal node (index 0) in both phases.
ONE = 0
ZERO = 1

#: Field width for packed unique-table / op-cache keys.  References and
#: levels are far below 2**43 for any table this process could hold, so
#: packed keys are collision-free (Python ints are arbitrary precision;
#: a triple key is ~129 bits).
_SHIFT = 43

#: Default for managers constructed with ``normalize_ite=None``.  The
#: decision engine builds its managers internally, so a test that
#: measures the unnormalized cache discipline on a whole sweep flips
#: this module attribute.
_DEFAULT_NORMALIZE = True


class BddManager:
    """Owns a shared node table and provides Boolean-function algebra.

    Parameters
    ----------
    budget:
        Optional node-creation budget.  When exhausted, operations raise
        :class:`~repro.errors.ResourceBudgetExceeded`.
    deadline:
        Optional cooperative :class:`repro.resilience.Deadline` polled
        on every node creation (the manager's hot loop), so a
        wall-clock limit interrupts even one giant ``ite`` instead of
        waiting for the caller's next coarse-grained check.
    normalize_ite:
        Apply standard ITE triple normalization before the operation
        cache (default: the module default, normally on).
    max_cache_size:
        Bound on the operation cache; the least-recently-used half is
        evicted on overflow.  ``None`` disables the bound.
    gc_threshold:
        Run :meth:`collect_garbage` automatically once the node table
        has grown by this many nodes since the last collection (checked
        at public-operation boundaries, never mid-traversal).  ``None``
        (the default) leaves collection fully manual.
    sift_threshold:
        Run :meth:`sift_now` automatically once the node table has
        grown by this many nodes since the last sift (same boundaries
        as ``gc_threshold``).  ``None`` (the default) disables dynamic
        reordering.
    """

    _false_ref = ZERO
    _true_ref = ONE

    def __init__(
        self,
        budget: Budget | None = None,
        deadline=None,
        *,
        normalize_ite: bool | None = None,
        max_cache_size: int | None = 1_000_000,
        gc_threshold: int | None = None,
        sift_threshold: int | None = None,
    ):
        self._budget = budget
        self._deadline = deadline
        self._normalize = (
            _DEFAULT_NORMALIZE if normalize_ite is None else bool(normalize_ite)
        )
        if max_cache_size is not None and max_cache_size < 2:
            raise BddError("max_cache_size must be at least 2 or None")
        self._max_cache_size = max_cache_size
        if gc_threshold is not None and gc_threshold < 1:
            raise BddError("gc_threshold must be positive or None")
        self._gc_threshold = gc_threshold
        if sift_threshold is not None and sift_threshold < 1:
            raise BddError("sift_threshold must be positive or None")
        self._sift_threshold = sift_threshold
        self._in_sift = False
        # Variable bookkeeping.
        self._var_level: dict[str, int] = {}
        self._level_var: list[str] = []
        self._var_node: dict[str, int] = {}
        # Live-handle registry (GC roots) and counters.
        self._handles: list[weakref.ref] = []
        self._handle_prune_at = 1024
        self._stats = BddStats()
        # Column 0 is the terminal ONE; its children are self-loops that
        # keep GC/compaction free of terminal special cases.
        self._var_col = array("q", [TERMINAL_LEVEL])
        self._lo_col = array("q", [ONE])
        self._hi_col = array("q", [ONE])
        self._unique: dict[int, int] = {}
        self._ite_cache: dict[int, int] = {}
        self._last_gc_size = len(self)
        self._last_sift_size = len(self)

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Current node-table size (the single terminal included)."""
        return len(self._var_col)

    def _mk_raw(self, level: int, lo: int, hi: int) -> int:
        """Find-or-create node ``(level, lo, hi)``; ``hi`` must be regular."""
        key = ((level << _SHIFT) | lo) << _SHIFT | hi
        idx = self._unique.get(key)
        if idx is None:
            if self._budget is not None:
                self._budget.charge()
            if self._deadline is not None:
                self._deadline.check("bdd node creation")
            idx = len(self._var_col)
            self._var_col.append(level)
            self._lo_col.append(lo)
            self._hi_col.append(hi)
            self._unique[key] = idx
            self._stats.nodes_created += 1
        return idx << 1

    def _mk_sem(self, level: int, lo: int, hi: int) -> int:
        """Canonical reference for semantic cofactors ``lo``/``hi``."""
        if lo == hi:
            return lo
        if hi & 1:
            # High-edge-regular form: store the complemented node and
            # return its complement — same function, one representation.
            return self._mk_raw(level, lo ^ 1, hi ^ 1) | 1
        return self._mk_raw(level, lo, hi)

    def _ref_level(self, u: int) -> int:
        """The variable level ``u`` branches on (TERMINAL_LEVEL for consts)."""
        return self._var_col[u >> 1]

    def _ref_cofactors(self, u: int, level: int) -> tuple[int, int]:
        """Semantic (low, high) cofactors of ``u`` w.r.t. ``level``.

        The node's complement phase is pushed into the children, so
        callers never see a tagged node — only tagged edges.
        """
        idx = u >> 1
        if self._var_col[idx] == level:
            phase = u & 1
            return self._lo_col[idx] ^ phase, self._hi_col[idx] ^ phase
        return u, u

    # ------------------------------------------------------------------
    # Counters and handle registry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> BddStats:
        """Live performance counters (peak refreshed on read)."""
        stats = self._stats
        size = len(self)
        if size > stats.peak_nodes:
            stats.peak_nodes = size
        return stats

    def _register(self, handle: Function) -> None:
        """Track a live handle as a GC root (called by ``Function``)."""
        handles = self._handles
        handles.append(weakref.ref(handle))
        if len(handles) > self._handle_prune_at:
            self._handles = [ref for ref in handles if ref() is not None]
            self._handle_prune_at = max(1024, 2 * len(self._handles))

    def _live_handles(self) -> list[Function]:
        """Every still-alive Function handle of this manager."""
        live: list[Function] = []
        for ref in self._handles:
            handle = ref()
            if handle is not None:
                live.append(handle)
        return live

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def var(self, name: str) -> Function:
        """Return the function of variable ``name``, creating it if new.

        Variables are ordered by creation time: earlier-created variables
        sit closer to the root of every BDD in this manager.
        """
        if name not in self._var_level:
            level = len(self._level_var)
            self._var_level[name] = level
            self._level_var.append(name)
            self._var_node[name] = self._mk_sem(level, ZERO, ONE)
        return Function(self, self._var_node[name])

    def add_vars(self, names: Iterable[str]) -> list[Function]:
        """Declare several variables in order; returns their functions."""
        return [self.var(name) for name in names]

    def has_var(self, name: str) -> bool:
        """True if ``name`` has already been declared in this manager."""
        return name in self._var_level

    def level_of(self, name: str) -> int:
        """The variable's position in the global order (0 = topmost)."""
        try:
            return self._var_level[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def var_at_level(self, level: int) -> str:
        """Inverse of :meth:`level_of`."""
        try:
            return self._level_var[level]
        except IndexError:
            raise BddError(f"no variable at level {level}") from None

    @property
    def var_names(self) -> list[str]:
        """All declared variables, in order."""
        return list(self._level_var)

    # ------------------------------------------------------------------
    # Constants
    # ------------------------------------------------------------------
    @property
    def false(self) -> Function:
        """The constant-0 function."""
        return Function(self, self._false_ref)

    @property
    def true(self) -> Function:
        """The constant-1 function."""
        return Function(self, self._true_ref)

    def constant(self, value: bool) -> Function:
        """The constant function for ``value``."""
        return self.true if value else self.false

    def _is_const(self, u: int) -> bool:
        """True for the two constant references (``ONE``/``ZERO``)."""
        return u <= 1

    def _check(self, f: Function) -> int:
        """Validate that ``f`` belongs to this manager; return its node."""
        if f.manager is not self:
            raise BddError("function belongs to a different BddManager")
        return f.node

    # ------------------------------------------------------------------
    # ITE — the core memoized operation (explicit stack)
    # ------------------------------------------------------------------
    def _evict_ite_cache(self) -> None:
        """Drop the least-recently-used half of the ITE cache.

        Hits re-insert their entry at the young end (see ``_ite``), so
        plain insertion order *is* recency order and dropping the
        oldest half evicts the coldest triples.
        """
        cache = self._ite_cache
        drop = max(1, len(cache) // 2)
        for key in list(cache.keys())[:drop]:
            del cache[key]
        self._stats.cache_evictions += 1

    def _ite(self, f: int, g: int, h: int) -> int:
        """Memoized if-then-else on tagged refs, explicit-stack form.

        Frames are ``(False, f, g, h)`` — resolve a triple — or
        ``(True, key, level, flip)`` — both cofactor results are on the
        value stack; build the node, fill the cache with the canonical
        result, and push it re-complemented by ``flip``.  LIFO ordering
        means a subproblem's whole subtree completes before its sibling
        starts, so the cache behaves exactly like the recursive form.
        """
        cache = self._ite_cache
        stats = self._stats
        var_col, lo_col, hi_col = self._var_col, self._lo_col, self._hi_col
        normalize = self._normalize
        max_cache = self._max_cache_size
        tasks: list[tuple] = [(False, f, g, h)]
        values: list[int] = []
        while tasks:
            frame = tasks.pop()
            if frame[0]:
                _, key, level, flip = frame
                high = values.pop()
                low = values.pop()
                result = self._mk_sem(level, low, high)
                if max_cache is not None and len(cache) >= max_cache:
                    self._evict_ite_cache()
                cache[key] = result
                values.append(result ^ flip)
                continue
            _, f, g, h = frame
            stats.ite_calls += 1
            result = -1
            probed = False
            flip = 0
            while True:
                # Terminal shortcuts (always valid, never rewrites).
                if f == ONE:
                    result = g
                elif f == ZERO:
                    result = h
                elif g == h:
                    result = g
                elif g == ONE and h == ZERO:
                    result = f
                elif g == ZERO and h == ONE:
                    result = f ^ 1
                else:
                    # Non-terminal: this triple is one probe of the
                    # cache layer (counted once, even if normalization
                    # then rewrites it).
                    if not probed:
                        probed = True
                        stats.cache_lookups += 1
                    if normalize:
                        # Operand substitution: a test shared with an
                        # operand fixes that operand to a constant.
                        changed = False
                        if g == f:
                            g = ONE
                            changed = True
                        elif g == f ^ 1:
                            g = ZERO
                            changed = True
                        if h == f:
                            h = ZERO
                            changed = True
                        elif h == f ^ 1:
                            h = ONE
                            changed = True
                        if not changed:
                            # Commute to the lowest-index test.  Each
                            # accepted swap strictly decreases the test
                            # index, so the loop terminates.
                            fi = f >> 1
                            if g == ONE and h > 1 and (h >> 1) < fi:
                                f, h = h, f  # OR commutes
                                changed = True
                            elif h == ZERO and g > 1 and (g >> 1) < fi:
                                f, g = g, f  # AND commutes
                                changed = True
                            elif h == ONE and g > 1 and (g >> 1) < fi:
                                f, g = g ^ 1, f ^ 1  # implication flips
                                changed = True
                            elif g == ZERO and h > 1 and (h >> 1) < fi:
                                f, h = h ^ 1, f ^ 1  # nor-style flip
                                changed = True
                            elif h == g ^ 1 and g > 1 and (g >> 1) < fi:
                                f, g, h = g, f, f ^ 1  # XNOR commutes
                                changed = True
                        if not changed:
                            # Phase canonicalization: regular test, then
                            # regular THEN operand (complement carried
                            # out through the flip bit).
                            if f & 1:
                                f, g, h = f ^ 1, h, g
                                changed = True
                            elif g & 1:
                                g, h, flip = g ^ 1, h ^ 1, flip ^ 1
                                changed = True
                        if changed:
                            continue  # a rewrite can expose a terminal
                break
            if result >= 0:
                if probed:
                    # Answered by a normalization rewrite: no expansion,
                    # no recomputation — a hit of the cache layer.
                    stats.cache_hits += 1
                values.append(result ^ flip)
                continue
            key = ((f << _SHIFT) | g) << _SHIFT | h
            cached = cache.get(key)
            if cached is not None:
                stats.cache_hits += 1
                # Move-to-end: a hit makes the entry young again, so
                # bounded-cache eviction drops cold triples first.
                del cache[key]
                cache[key] = cached
                values.append(cached ^ flip)
                continue
            fi, gi, hi = f >> 1, g >> 1, h >> 1
            level = var_col[fi]
            if var_col[gi] < level:
                level = var_col[gi]
            if var_col[hi] < level:
                level = var_col[hi]
            if var_col[fi] == level:
                c = f & 1
                f0, f1 = lo_col[fi] ^ c, hi_col[fi] ^ c
            else:
                f0 = f1 = f
            if var_col[gi] == level:
                c = g & 1
                g0, g1 = lo_col[gi] ^ c, hi_col[gi] ^ c
            else:
                g0 = g1 = g
            if var_col[hi] == level:
                c = h & 1
                h0, h1 = lo_col[hi] ^ c, hi_col[hi] ^ c
            else:
                h0 = h1 = h
            tasks.append((True, key, level, flip))
            tasks.append((False, f1, g1, h1))
            tasks.append((False, f0, g0, h0))
        return values[-1]

    # ------------------------------------------------------------------
    # Public Boolean algebra (used by Function operators)
    # ------------------------------------------------------------------
    def ite(self, f: Function, g: Function, h: Function) -> Function:
        """If-then-else: ``f & g | ~f & h``."""
        self._maybe_gc()
        return Function(self, self._ite(self._check(f), self._check(g), self._check(h)))

    def apply_not(self, f: Function) -> Function:
        """Complement of ``f``."""
        self._maybe_gc()
        return Function(self, self._check(f) ^ 1)

    def apply_and(self, f: Function, g: Function) -> Function:
        """Conjunction of ``f`` and ``g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._check(g), self._false_ref)
        )

    def apply_or(self, f: Function, g: Function) -> Function:
        """Disjunction of ``f`` and ``g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._true_ref, self._check(g))
        )

    def apply_xor(self, f: Function, g: Function) -> Function:
        """Exclusive-or of ``f`` and ``g``."""
        self._maybe_gc()
        gn = self._check(g)
        return Function(self, self._ite(self._check(f), gn ^ 1, gn))

    def apply_xnor(self, f: Function, g: Function) -> Function:
        """Equivalence (complement of xor)."""
        self._maybe_gc()
        gn = self._check(g)
        return Function(self, self._ite(self._check(f), gn, gn ^ 1))

    def apply_implies(self, f: Function, g: Function) -> Function:
        """Implication ``f -> g``."""
        self._maybe_gc()
        return Function(
            self, self._ite(self._check(f), self._check(g), self._true_ref)
        )

    def conjoin(self, functions: Iterable[Function]) -> Function:
        """AND of an iterable of functions (TRUE for empty input)."""
        self._maybe_gc()
        false_ref = self._false_ref
        acc = self._true_ref
        for f in functions:
            acc = self._ite(self._check(f), acc, false_ref)
            if acc == false_ref:
                break
        return Function(self, acc)

    def disjoin(self, functions: Iterable[Function]) -> Function:
        """OR of an iterable of functions (FALSE for empty input)."""
        self._maybe_gc()
        true_ref = self._true_ref
        acc = self._false_ref
        for f in functions:
            acc = self._ite(self._check(f), true_ref, acc)
            if acc == true_ref:
                break
        return Function(self, acc)

    # ------------------------------------------------------------------
    # Generic memoized postorder (the iterative-recursion workhorse)
    # ------------------------------------------------------------------
    def _run_postorder(self, root, children, combine, cache) -> int:
        """Evaluate a memoized structural recursion without recursing.

        ``children(key)`` lists the sub-keys a key depends on;
        ``combine(key, values)`` computes its result once every child's
        value is in ``cache``.  Keys may be refs or tuples of refs.
        LIFO scheduling gives the exact evaluation order (and therefore
        the exact cache behaviour) of the recursive original.
        """
        hit = cache.get(root)
        if hit is not None:
            return hit
        stack: list[tuple] = [(root, None)]
        while stack:
            key, kids = stack.pop()
            if key in cache:
                continue
            if kids is None:
                kids = children(key)
                stack.append((key, kids))
                for kid in kids:
                    if kid not in cache:
                        stack.append((kid, None))
                continue
            cache[key] = combine(key, [cache[kid] for kid in kids])
        return cache[root]

    # ------------------------------------------------------------------
    # Restriction, composition, quantification
    # ------------------------------------------------------------------
    def restrict(self, f: Function, assignment: Mapping[str, bool]) -> Function:
        """Cofactor ``f`` by fixing the variables in ``assignment``."""
        self._maybe_gc()
        by_level = {self.level_of(name): bool(val) for name, val in assignment.items()}
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            level = self._ref_level(u)
            lo, hi = self._ref_cofactors(u, level)
            if level in by_level:
                return (hi if by_level[level] else lo,)
            return (lo, hi)

        def combine(u: int, values: list[int]) -> int:
            level = self._ref_level(u)
            if level in by_level:
                return values[0]
            return self._mk_sem(level, values[0], values[1])

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def compose(self, f: Function, name: str, g: Function) -> Function:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        return self.vector_compose(f, {name: g})

    def vector_compose(self, f: Function, substitution: Mapping[str, Function]) -> Function:
        """Simultaneously substitute functions for variables in ``f``.

        The substitution is simultaneous: substituted results are not
        re-substituted, so ``{x: y, y: x}`` swaps the two variables.
        """
        self._maybe_gc()
        subs_by_level = {
            self.level_of(name): self._check(g) for name, g in substitution.items()
        }
        if not subs_by_level:
            return f
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            return self._ref_cofactors(u, self._ref_level(u))

        def combine(u: int, values: list[int]) -> int:
            level = self._ref_level(u)
            branch = subs_by_level.get(level)
            if branch is None:
                branch = self._var_node[self._level_var[level]]
            return self._ite(branch, values[1], values[0])

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def rename(self, f: Function, mapping: Mapping[str, str]) -> Function:
        """Rename variables (a special case of vector composition)."""
        return self.vector_compose(f, {old: self.var(new) for old, new in mapping.items()})

    def exists(self, names: Iterable[str], f: Function) -> Function:
        """Existential quantification over ``names``."""
        self._maybe_gc()
        return self._quantify(f, names, conj=False)

    def forall(self, names: Iterable[str], f: Function) -> Function:
        """Universal quantification over ``names``."""
        self._maybe_gc()
        return self._quantify(f, names, conj=True)

    def _quantify(self, f: Function, names: Iterable[str], conj: bool) -> Function:
        # No _maybe_gc here: and_exists calls this mid-traversal with raw
        # node refs live on its stack — a remap would corrupt them.
        levels = frozenset(self.level_of(name) for name in names)
        if not levels:
            return f
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[int, int] = {false_ref: false_ref, true_ref: true_ref}

        def children(u: int) -> tuple:
            return self._ref_cofactors(u, self._ref_level(u))

        def combine(u: int, values: list[int]) -> int:
            low, high = values
            level = self._ref_level(u)
            if level in levels:
                if conj:
                    return self._ite(low, high, false_ref)
                return self._ite(low, true_ref, high)
            return self._mk_sem(level, low, high)

        return Function(
            self, self._run_postorder(self._check(f), children, combine, cache)
        )

    def and_exists(self, names: Iterable[str], f: Function, g: Function) -> Function:
        """Relational product ``exists names . f & g`` in one traversal.

        The workhorse of BDD reachability (image computation): fusing the
        conjunction with the quantification avoids building the full
        conjunct, which is often the peak-memory step.
        """
        self._maybe_gc()
        names = [str(name) for name in names]
        levels = frozenset(self.level_of(name) for name in names)
        false_ref, true_ref = self._false_ref, self._true_ref
        cache: dict[tuple[int, int], int] = {}

        def key_of(u: int, v: int) -> tuple[int, int]:
            return (u, v) if u <= v else (v, u)

        def children(key: tuple[int, int]) -> tuple:
            u, v = key
            if self._is_const(u) or self._is_const(v):
                return ()
            level = min(self._ref_level(u), self._ref_level(v))
            u0, u1 = self._ref_cofactors(u, level)
            v0, v1 = self._ref_cofactors(v, level)
            return (key_of(u0, v0), key_of(u1, v1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, v = key
            if u == false_ref or v == false_ref:
                return false_ref
            if u == true_ref and v == true_ref:
                return true_ref
            if u == true_ref or v == true_ref:
                # Reduce to single-operand quantification.
                w = v if u == true_ref else u
                return self._check(
                    self._quantify(Function(self, w), names, conj=False)
                )
            level = min(self._ref_level(u), self._ref_level(v))
            low, high = values
            if level in levels:
                return self._ite(low, true_ref, high)
            return self._mk_sem(level, low, high)

        return Function(
            self,
            self._run_postorder(
                key_of(self._check(f), self._check(g)), children, combine, cache
            ),
        )

    def constrain(self, f: Function, c: Function) -> Function:
        """Coudert–Madre generalized cofactor ``f ↓ c``.

        Agrees with ``f`` everywhere ``c`` holds; off ``c`` it takes
        whatever values shrink the BDD (the image-restrictor used in
        reachability optimizations).  ``c`` must be satisfiable.
        """
        self._maybe_gc()
        fn, cn = self._check(f), self._check(c)
        false_ref, true_ref = self._false_ref, self._true_ref
        if cn == false_ref:
            raise BddError("constrain by the empty care set")
        cache: dict[tuple[int, int], int] = {}

        def children(key: tuple[int, int]) -> tuple:
            u, k = key
            if k == true_ref or self._is_const(u) or u == k:
                return ()
            level = min(self._ref_level(u), self._ref_level(k))
            k0, k1 = self._ref_cofactors(k, level)
            u0, u1 = self._ref_cofactors(u, level)
            if k0 == false_ref:
                return ((u1, k1),)
            if k1 == false_ref:
                return ((u0, k0),)
            return ((u0, k0), (u1, k1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, k = key
            if k == true_ref or self._is_const(u):
                return u
            if u == k:
                return true_ref
            if len(values) == 1:
                return values[0]
            level = min(self._ref_level(u), self._ref_level(k))
            return self._mk_sem(level, values[0], values[1])

        return Function(self, self._run_postorder((fn, cn), children, combine, cache))

    def restrict_care(self, f: Function, c: Function) -> Function:
        """The "restrict" heuristic: like :meth:`constrain` but a care
        variable absent from ``f``'s support never enters the result
        (restrict quantifies it out of the care set instead)."""
        self._maybe_gc()
        fn, cn = self._check(f), self._check(c)
        false_ref, true_ref = self._false_ref, self._true_ref
        if cn == false_ref:
            raise BddError("restrict by the empty care set")
        cache: dict[tuple[int, int], int] = {}

        def children(key: tuple[int, int]) -> tuple:
            u, k = key
            if k == true_ref or self._is_const(u):
                return ()
            u_level, k_level = self._ref_level(u), self._ref_level(k)
            if k_level < u_level:
                # Care splits on a variable f ignores: drop it.
                k0, k1 = self._ref_cofactors(k, k_level)
                return ((u, self._ite(k0, true_ref, k1)),)
            u0, u1 = self._ref_cofactors(u, u_level)
            k0, k1 = self._ref_cofactors(k, u_level)
            if k0 == false_ref:
                return ((u1, k1),)
            if k1 == false_ref:
                return ((u0, k0),)
            return ((u0, k0), (u1, k1))

        def combine(key: tuple[int, int], values: list[int]) -> int:
            u, k = key
            if k == true_ref or self._is_const(u):
                return u
            if len(values) == 1:
                return values[0]
            return self._mk_sem(self._ref_level(u), values[0], values[1])

        return Function(self, self._run_postorder((fn, cn), children, combine, cache))

    # ------------------------------------------------------------------
    # Inspection: support, evaluation, satisfiability, counting
    # ------------------------------------------------------------------
    def support(self, f: Function) -> set[str]:
        """The set of variables ``f`` actually depends on."""
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [self._check(f)]
        while stack:
            u = stack.pop()
            if self._is_const(u):
                continue
            idx = u >> 1
            if idx in seen:
                continue
            seen.add(idx)
            level = self._ref_level(u)
            levels.add(level)
            lo, hi = self._ref_cofactors(u, level)
            stack.append(lo)
            stack.append(hi)
        return {self._level_var[level] for level in levels}

    def evaluate(self, f: Function, assignment: Mapping[str, bool]) -> bool:
        """Evaluate ``f`` under a (complete-on-support) assignment."""
        u = self._check(f)
        while not self._is_const(u):
            level = self._ref_level(u)
            name = self._level_var[level]
            try:
                branch = assignment[name]
            except KeyError:
                raise BddError(f"assignment missing variable {name!r}") from None
            lo, hi = self._ref_cofactors(u, level)
            u = hi if branch else lo
        return u == self._true_ref

    def pick_one(self, f: Function) -> dict[str, bool] | None:
        """One satisfying assignment over ``f``'s support, or ``None``."""
        u = self._check(f)
        false_ref = self._false_ref
        if u == false_ref:
            return None
        result: dict[str, bool] = {}
        while not self._is_const(u):
            level = self._ref_level(u)
            name = self._level_var[level]
            lo, hi = self._ref_cofactors(u, level)
            if lo != false_ref:
                result[name] = False
                u = lo
            else:
                result[name] = True
                u = hi
        return result

    def sat_iter(self, f: Function, care_vars: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
        """Iterate all satisfying assignments over ``care_vars``.

        ``care_vars`` defaults to the support of ``f``; variables in
        ``care_vars`` that ``f`` does not depend on are enumerated both
        ways, so the iteration is exhaustive over the named cube space.
        """
        names = sorted(
            self.support(f) if care_vars is None else set(care_vars),
            key=self.level_of,
        )
        order = {name: i for i, name in enumerate(names)}
        node = self._check(f)
        false_ref, true_ref = self._false_ref, self._true_ref

        def walk(u: int, idx: int) -> Iterator[dict[str, bool]]:
            if u == false_ref:
                return
            if idx == len(names):
                if u == true_ref:
                    yield {}
                return
            name = names[idx]
            level = self._var_level[name]
            u_level = TERMINAL_LEVEL if self._is_const(u) else self._ref_level(u)
            if u_level == level:
                low, high = self._ref_cofactors(u, level)
            elif u_level < level:
                # f depends on a variable outside care_vars: refuse.
                raise BddError(
                    f"function depends on {self._level_var[u_level]!r}, "
                    "which is not in care_vars"
                )
            else:
                low = high = u
            for value, child in ((False, low), (True, high)):
                for tail in walk(child, idx + 1):
                    tail[name] = value
                    yield tail

        # Guard: support must be within care_vars.
        extra = self.support(f) - set(names)
        if extra:
            raise BddError(f"function depends on {sorted(extra)} outside care_vars")
        for assignment in walk(node, 0):
            yield dict(sorted(assignment.items(), key=lambda kv: order[kv[0]]))

    def sat_count(self, f: Function, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the size of ``f``'s support.
        """
        u = self._check(f)
        false_ref, true_ref = self._false_ref, self._true_ref
        support_levels = sorted(
            self._var_level[name] for name in self.support(Function(self, u))
        )
        if nvars is None:
            nvars = len(support_levels)
        if nvars < len(support_levels):
            raise BddError("nvars smaller than the function's support")
        if self._is_const(u):
            return (1 if u == true_ref else 0) << nvars
        # Count over the support only, then scale by free variables.
        index_of = {level: i for i, level in enumerate(support_levels)}
        total = len(support_levels)
        cache: dict[int, int] = {}

        def count_child(child: int, position: int) -> int:
            """Assignments of support vars strictly below ``position``."""
            if child == false_ref:
                return 0
            if child == true_ref:
                return 1 << (total - position - 1)
            return cache[child] << (
                index_of[self._ref_level(child)] - position - 1
            )

        def children(node: int) -> tuple:
            return tuple(
                child
                for child in self._ref_cofactors(node, self._ref_level(node))
                if not self._is_const(child)
            )

        def combine(node: int, _values: list[int]) -> int:
            level = self._ref_level(node)
            position = index_of[level]
            lo, hi = self._ref_cofactors(node, level)
            return count_child(lo, position) + count_child(hi, position)

        self._run_postorder(u, children, combine, cache)
        root_count = cache[u] << index_of[self._ref_level(u)]
        return root_count << (nvars - total)

    def node_count(self, f: Function) -> int:
        """Number of structural nodes in ``f``'s DAG (terminals included).

        With complement edges a function and its complement share
        every node and there is a single terminal, so a count is
        smaller than the same function's two-terminal BDD size.
        """
        return self.dag_size([Function(self, self._check(f))])

    def dag_size(self, functions: Iterable[Function]) -> int:
        """Distinct structural nodes over a *set* of functions.

        Shared subgraphs are counted once; terminals are included.
        This is the combined-size objective the ordering search
        (:mod:`repro.bdd.reorder`) minimizes.
        """
        seen: set[int] = set()
        stack = [self._check(f) for f in functions]
        while stack:
            u = stack.pop()
            idx = u >> 1
            if idx in seen:
                continue
            seen.add(idx)
            if not self._is_const(u):
                level = self._ref_level(u)
                lo, hi = self._ref_cofactors(u, level)
                stack.append(lo)
                stack.append(hi)
        return len(seen)

    # ------------------------------------------------------------------
    # Maintenance: cache hygiene, garbage collection, dynamic sifting
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop the operation cache (keeps the node table and variables)."""
        self._ite_cache.clear()

    def collect_garbage(self) -> int:
        """Mark-and-sweep dead nodes; returns how many were reclaimed.

        Marking works on structural *indices* (a node is live if either
        phase of it is reachable).  Survivors are compacted to the front
        of the columns — children always precede parents, so a single
        ascending pass remaps consistently — live handles and variable
        refs are re-tagged onto their new indices, and the operation
        cache is flushed (its packed keys name old indices).
        """
        stats = self.stats  # property access refreshes peak_nodes
        var_col, lo_col, hi_col = self._var_col, self._lo_col, self._hi_col
        size = len(var_col)
        marks = bytearray(size)
        marks[0] = 1
        live_handles: list[Function] = []
        roots: list[int] = [node >> 1 for node in self._var_node.values()]
        for ref in self._handles:
            handle = ref()
            if handle is not None:
                live_handles.append(handle)
                roots.append(handle.node >> 1)
        stack = roots
        while stack:
            idx = stack.pop()
            if marks[idx]:
                continue
            marks[idx] = 1
            stack.append(lo_col[idx] >> 1)
            stack.append(hi_col[idx] >> 1)
        remap = [0] * size
        new_var = array("q")
        new_lo = array("q")
        new_hi = array("q")
        for old in range(size):
            if not marks[old]:
                continue
            remap[old] = len(new_var)
            new_var.append(var_col[old])
            lo, hi = lo_col[old], hi_col[old]
            new_lo.append((remap[lo >> 1] << 1) | (lo & 1))
            new_hi.append((remap[hi >> 1] << 1) | (hi & 1))
        reclaimed = size - len(new_var)
        self._var_col, self._lo_col, self._hi_col = new_var, new_lo, new_hi
        self._unique = {
            ((new_var[n] << _SHIFT) | new_lo[n]) << _SHIFT | new_hi[n]: n
            for n in range(1, len(new_var))
        }
        self._ite_cache.clear()
        self._var_node = {
            name: (remap[node >> 1] << 1) | (node & 1)
            for name, node in self._var_node.items()
        }
        for handle in live_handles:
            handle.node = (remap[handle.node >> 1] << 1) | (handle.node & 1)
        self._handles = [weakref.ref(handle) for handle in live_handles]
        self._handle_prune_at = max(1024, 2 * len(self._handles))
        self._last_gc_size = len(new_var)
        stats.gc_runs += 1
        stats.nodes_reclaimed += reclaimed
        return reclaimed

    def _maybe_gc(self) -> None:
        """Run automatic maintenance if the table grew past a threshold.

        Called only at public-operation boundaries: mid-traversal state
        (raw node refs on explicit stacks) must never see a remap.
        Checks the GC threshold first (collection is cheaper), then the
        dynamic-sifting threshold.
        """
        size = len(self)
        if (
            self._gc_threshold is not None
            and size - self._last_gc_size >= self._gc_threshold
        ):
            self.collect_garbage()
            size = len(self)
        if (
            self._sift_threshold is not None
            and not self._in_sift
            and size - self._last_sift_size >= self._sift_threshold
        ):
            self.sift_now(max_passes=1)

    def sift_now(self, max_passes: int = 1) -> bool:
        """Dynamically reorder this manager's variables *in place*.

        Sifts the live functions (every still-alive handle) to a
        smaller combined order, rebuilds the node store under the new
        order, and re-points every live handle — callers keep their
        ``Function`` objects and semantics, only levels (and sizes)
        change.  Trial rebuilds are charged to the manager's budget and
        poll its deadline, so a sift inside a resource-limited sweep is
        interruptible; arm ``sift_threshold=N`` at construction to
        trigger this automatically mid-sweep.

        Returns ``True`` when a reorder was applied, ``False`` when
        there was nothing to sift (or no improvement was found).
        """
        if self._in_sift:
            return False
        from repro.bdd.reorder import sift_order
        from repro.bdd.transfer import transfer

        self._in_sift = True
        try:
            handles = self._live_handles()
            funcs = [h for h in handles if not self._is_const(h.node)]
            # Dedupe by ref: sifting cost scales with the function set.
            by_ref: dict[int, Function] = {}
            for fn in funcs:
                by_ref.setdefault(fn.node, fn)
            roots = list(by_ref.values())
            self._last_sift_size = len(self)
            if not roots:
                return False
            before = self.dag_size(roots)
            order, after = sift_order(
                roots,
                max_passes=max_passes,
                budget=self._budget,
                deadline=self._deadline,
            )
            self._stats.sift_runs += 1
            if after >= before:
                return False
            # Preserve every declared variable: sifted support first,
            # then the untouched remainder in its old relative order.
            placed = set(order)
            full_order = list(order) + [
                name for name in self._level_var if name not in placed
            ]
            scratch = BddManager(
                budget=self._budget,
                deadline=self._deadline,
                normalize_ite=self._normalize,
                max_cache_size=self._max_cache_size,
            )
            scratch.add_vars(full_order)
            moved = [transfer(h, scratch) for h in handles]
            # Adopt the scratch store and re-point the live handles.
            self._var_col = scratch._var_col
            self._lo_col = scratch._lo_col
            self._hi_col = scratch._hi_col
            self._unique = scratch._unique
            self._ite_cache.clear()
            self._var_level = dict(scratch._var_level)
            self._level_var = list(scratch._level_var)
            self._var_node = dict(scratch._var_node)
            for handle, twin in zip(handles, moved):
                handle.node = twin.node
            self._handles = [weakref.ref(h) for h in handles]
            self._handle_prune_at = max(1024, 2 * len(self._handles))
            self._last_gc_size = len(self)
            self._last_sift_size = len(self)
            # The rebuild's allocation work is real work of this manager.
            rebuilt = scratch._stats
            self._stats.nodes_created += rebuilt.nodes_created
            self._stats.ite_calls += rebuilt.ite_calls
            self._stats.cache_lookups += rebuilt.cache_lookups
            self._stats.cache_hits += rebuilt.cache_hits
            return True
        finally:
            self._in_sift = False

    def to_dot(self, f: Function, name: str = "bdd") -> str:
        """Graphviz dot text for ``f`` (debugging / documentation aid).

        Rendered in *semantic* form: complement edges are expanded, so
        a node whose both phases are referenced appears once per phase.
        """
        lines = [f"digraph {name} {{", '  node [shape=circle];']
        lines.append(f'  n{self._false_ref} [shape=box, label="0"];')
        lines.append(f'  n{self._true_ref} [shape=box, label="1"];')
        seen: set[int] = set()
        stack = [self._check(f)]
        while stack:
            u = stack.pop()
            if self._is_const(u) or u in seen:
                continue
            seen.add(u)
            level = self._ref_level(u)
            label = self._level_var[level]
            lo, hi = self._ref_cofactors(u, level)
            lines.append(f'  n{u} [label="{label}"];')
            lines.append(f"  n{u} -> n{lo} [style=dashed];")
            lines.append(f"  n{u} -> n{hi};")
            stack.append(lo)
            stack.append(hi)
        lines.append("}")
        return "\n".join(lines)
