"""Portable loop-level kernel implementations (the Numba jit targets).

These functions mirror, decision for decision, the per-sample mapper
replicas of :mod:`repro.mapping.batch_kernel` (``_replica_exact`` /
``_replica_hybrid``) and the distance-1 merge pass of
:mod:`repro.boolean.packed` (``_merge_distance_one_values``) — but as
plain element loops over preallocated arrays, restricted to the subset
of Python that Numba's nopython mode compiles.  Saturating matching,
for EA and for the HBA/greedy output stage alike, is one routine:
Hopcroft-Karp seeded by greedy first fit, the algorithm SciPy runs for
the NumPy replicas.

When ``numba`` is importable every function below is ``@njit``-ed and
this module *is* the ``"numba"`` backend's implementation.  Without
``numba`` the same code runs as ordinary (slow) Python, which the test
suite uses as a backend-independent oracle for the C extension.

Array contracts (all C-contiguous):

``map_builtin_batch(compat, closed, num_minterms, mode, check_validity)``
    ``compat``: ``uint8 (samples, fm_rows, xbar_rows)`` compatibility
    tensor with stuck-closed rows already zeroed; ``closed``: ``uint8
    (samples, xbar_rows)`` stuck-closed row mask; ``mode``: 0 exact /
    1 greedy / 2 hybrid.  Returns ``(success uint8[s], backtracks
    int64[s], valid uint8[s])``.

``merge_distance_one(values)``
    ``values``: ``uint8 (cubes, inputs)`` cube-value matrix (0/1/2,
    2 = don't-care).  Returns the merged value matrix *before* the
    dedupe / containment post-passes (the caller applies those).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


#: Mapper modes (must match ``MODE_*`` in ``_kernels.c``).
MODE_EXACT = 0
MODE_GREEDY = 1
MODE_HYBRID = 2

_DONT_CARE = 2  # repro.boolean.cube.DONT_CARE


#: ``dist`` of a row no shortest augmenting path reaches this phase.
_UNREACHED = np.iinfo(np.int64).max


@_njit(cache=True)
def _saturating(adj, allowed, match_left, match_right, dist, queue, scan,
                stack, via):
    """Whether every left row of ``adj`` can be matched into ``allowed``.

    Hopcroft-Karp (SIAM J. Comput. 2(4), 1973) seeded with a greedy
    first-fit matching: each phase layers the rows by BFS from the free
    ones over alternating paths, then augments along vertex-disjoint
    shortest paths by iterative DFS with per-row scan pointers.  On
    success ``match_left[l]`` is row ``l``'s right node and
    ``match_right[r]`` the row on ``r`` (-1 when free).

    Existence-equivalent to the SciPy Hopcroft-Karp / Munkres probes of
    the NumPy engine: a saturating matching either exists or it does
    not, regardless of which maximum matching a given algorithm returns.
    """
    num_left = adj.shape[0]
    num_right = adj.shape[1]
    usable = 0
    for r in range(num_right):
        match_right[r] = -1
        if allowed[r] != 0:
            usable += 1
    if num_left > usable:
        return False
    matched = 0
    for left in range(num_left):
        reachable = False
        match_left[left] = -1
        for r in range(num_right):
            if adj[left, r] == 0 or allowed[r] == 0:
                continue
            reachable = True
            if match_right[r] < 0:
                match_right[r] = left
                match_left[left] = r
                matched += 1
                break
        if not reachable:
            return False
    while matched < num_left:
        head = 0
        tail = 0
        limit = _UNREACHED
        for left in range(num_left):
            scan[left] = 0
            if match_left[left] < 0:
                dist[left] = 0
                queue[tail] = left
                tail += 1
            else:
                dist[left] = _UNREACHED
        while head < tail:
            left = queue[head]
            head += 1
            if dist[left] > limit:
                break
            for r in range(num_right):
                if adj[left, r] == 0 or allowed[r] == 0:
                    continue
                nxt = match_right[r]
                if nxt < 0:
                    if limit == _UNREACHED:
                        limit = dist[left]
                elif dist[nxt] == _UNREACHED:
                    dist[nxt] = dist[left] + 1
                    queue[tail] = nxt
                    tail += 1
        if limit == _UNREACHED:
            return False  # no augmenting path: the maximum falls short
        for root in range(num_left):
            if match_left[root] >= 0 or dist[root] != 0:
                continue
            top = 0
            stack[0] = root
            while top >= 0:
                left = stack[top]
                r = scan[left]
                nxt = -1
                while r < num_right:
                    if adj[left, r] != 0 and allowed[r] != 0:
                        nxt = match_right[r]
                        if nxt < 0 or (dist[nxt] == dist[left] + 1
                                       and dist[nxt] <= limit):
                            break
                    r += 1
                if r == num_right:
                    dist[left] = _UNREACHED  # dead end for this phase
                    top -= 1
                    continue
                scan[left] = r + 1
                via[top] = r
                if nxt >= 0:
                    top += 1
                    stack[top] = nxt
                    continue
                # Free right node: flip the matches along the path.
                t = top
                while t >= 0:
                    match_right[via[t]] = stack[t]
                    match_left[stack[t]] = via[t]
                    t -= 1
                matched += 1
                break
    return True


@_njit(cache=True)
def map_builtin_batch(compat, closed, num_minterms, mode, check_validity):
    """Run one built-in mapper over every undecided sample of a batch."""
    num_samples = compat.shape[0]
    num_fm_rows = compat.shape[1]
    num_rows = compat.shape[2]
    success = np.zeros(num_samples, dtype=np.uint8)
    backtracks = np.zeros(num_samples, dtype=np.int64)
    valid = np.ones(num_samples, dtype=np.uint8)

    allowed_all = np.ones(num_rows, dtype=np.uint8)
    free = np.empty(num_rows, dtype=np.uint8)
    seen = np.empty(num_rows, dtype=np.uint8)
    match_right = np.empty(num_rows, dtype=np.int64)
    owner = np.empty(num_rows, dtype=np.int64)
    assigned = np.empty(num_fm_rows, dtype=np.int64)
    match_left = np.empty(num_fm_rows, dtype=np.int64)
    dist = np.empty(num_fm_rows, dtype=np.int64)
    queue = np.empty(num_fm_rows, dtype=np.int64)
    scan = np.empty(num_fm_rows, dtype=np.int64)
    stack = np.empty(num_fm_rows, dtype=np.int64)
    via = np.empty(num_fm_rows, dtype=np.int64)

    for s in range(num_samples):
        adj = compat[s]
        if mode == MODE_EXACT:
            # ExactMapper: success iff the FM rows admit a saturating
            # matching; it never backtracks and always validates.
            ok = _saturating(adj, allowed_all, match_left, match_right,
                             dist, queue, scan, stack, via)
            success[s] = 1 if ok else 0
            continue

        # Greedy / hybrid: top-to-bottom first fit with (hybrid only)
        # one-step backtracking, then saturating matching of the output
        # rows onto the remaining free rows — the HBA replica.
        bt = 0
        for h in range(num_rows):
            free[h] = 0 if closed[s, h] != 0 else 1
            owner[h] = -1
        for f in range(num_fm_rows):
            assigned[f] = -1
        ok = True
        for i in range(num_minterms):
            placed = -1
            for h in range(num_rows):
                if free[h] != 0 and adj[i, h] != 0:
                    placed = h
                    break
            if placed < 0 and mode == MODE_HYBRID:
                # Occupied compatible rows in row order; each visit is
                # one counted backtrack whether or not the displaced
                # product can be relocated.
                for h in range(num_rows):
                    if free[h] != 0 or adj[i, h] == 0:
                        continue
                    bt += 1
                    occupant = owner[h]
                    reloc = -1
                    for h2 in range(num_rows):
                        if free[h2] != 0 and adj[occupant, h2] != 0:
                            reloc = h2
                            break
                    if reloc < 0:
                        continue
                    owner[reloc] = occupant
                    assigned[occupant] = reloc
                    free[reloc] = 0
                    placed = h
                    break
            if placed < 0:
                ok = False
                break
            owner[placed] = i
            assigned[i] = placed
            free[placed] = 0
        backtracks[s] = bt
        if not ok:
            success[s] = 0
            continue

        num_outputs = num_fm_rows - num_minterms
        if num_outputs > 0:
            if not _saturating(adj[num_minterms:], free, match_left,
                               match_right, dist, queue, scan, stack, via):
                success[s] = 0
                continue
            for o in range(num_outputs):
                assigned[num_minterms + o] = match_left[o]
        success[s] = 1
        if check_validity != 0:
            good = True
            for h in range(num_rows):
                seen[h] = 0
            for f in range(num_fm_rows):
                row = assigned[f]
                if row < 0 or seen[row] != 0 or adj[f, row] == 0:
                    good = False
                    break
                seen[row] = 1
            valid[s] = 1 if good else 0
    return success, backtracks, valid


@_njit(cache=True)
def merge_distance_one(values):
    """The packed minimiser's distance-1 merge pass, loop for loop.

    Walks the exact ``(i, j)`` schedule of
    ``repro.boolean.packed._merge_distance_one_values`` — including the
    rescan from just past each merge point and the dropping of rows
    that became equal to the enlarged working cube.
    """
    num_cubes = values.shape[0]
    num_inputs = values.shape[1]
    cur = values.copy()
    nxt = np.empty((num_cubes, num_inputs), dtype=np.uint8)
    used = np.empty(num_cubes, dtype=np.uint8)
    merged = np.empty(num_inputs, dtype=np.uint8)
    count = num_cubes
    changed = True
    while changed and count > 0:
        changed = False
        next_count = 0
        for i in range(count):
            used[i] = 0
        for i in range(count):
            if used[i] != 0:
                continue
            for p in range(num_inputs):
                merged[p] = cur[i, p]
            scan_from = i + 1
            while True:
                merge_at = -1
                diff_pos = -1
                for j in range(scan_from, count):
                    if used[j] != 0:
                        continue
                    distance = 0
                    clash = False
                    first = -1
                    for p in range(num_inputs):
                        if cur[j, p] != merged[p]:
                            distance += 1
                            if first < 0:
                                first = p
                            if cur[j, p] == _DONT_CARE or \
                                    merged[p] == _DONT_CARE:
                                clash = True
                    if not clash and distance == 1:
                        merge_at = j
                        diff_pos = first
                        break
                    if distance == 0:
                        used[j] = 1
                        changed = True
                if merge_at < 0:
                    break
                merged[diff_pos] = _DONT_CARE
                used[merge_at] = 1
                changed = True
                scan_from = merge_at + 1
            for p in range(num_inputs):
                nxt[next_count, p] = merged[p]
            next_count += 1
            used[i] = 1
        tmp = cur
        cur = nxt
        nxt = tmp
        count = next_count
    return cur[:count].copy()
