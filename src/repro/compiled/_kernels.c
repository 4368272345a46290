/* Native kernels for the ``engine="compiled"`` tier.
 *
 * Mirrors repro/compiled/_kernels_py.py function for function; that
 * module documents the array contracts and the parity obligations
 * (decision-for-decision replicas of the NumPy engines' inner loops).
 * One matching routine, Hopcroft-Karp seeded by greedy first fit,
 * serves both EA and the HBA/greedy output stage.
 * Built by repro/compiled/cext.py with the system C compiler into a
 * cached shared library and driven through ctypes — no Python.h, so
 * any plain `cc -O2 -fPIC -shared` works.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MODE_EXACT 0
#define MODE_GREEDY 1
#define MODE_HYBRID 2

#define DONT_CARE 2

#define UNREACHED INT64_MAX

/* Whether every left row of adj (num_left x num_right, row-major) can
 * be matched to a distinct right node whose `allowed` flag is set (the
 * output stage's free-row mask).  Hopcroft-Karp (SIAM J. Comput. 2(4),
 * 1973) seeded with a greedy first-fit matching: each phase layers the
 * rows by BFS from the free ones over alternating paths, then augments
 * along vertex-disjoint shortest paths by iterative DFS with per-row
 * scan pointers.  On success match_left[l] is row l's right node and
 * match_right[r] the row on r (-1 when free).  The scratch arrays dist,
 * queue, scan, stack and via hold num_left entries each. */
static int saturating(const uint8_t *adj, int64_t num_left, int64_t num_right,
                      const uint8_t *allowed, int64_t *match_left,
                      int64_t *match_right, int64_t *dist, int64_t *queue,
                      int64_t *scan, int64_t *stack, int64_t *via) {
    int64_t usable = 0;
    for (int64_t r = 0; r < num_right; r++) {
        match_right[r] = -1;
        if (allowed[r])
            usable++;
    }
    if (num_left > usable)
        return 0;
    int64_t matched = 0;
    for (int64_t l = 0; l < num_left; l++) {
        const uint8_t *row = adj + l * num_right;
        int reachable = 0;
        match_left[l] = -1;
        for (int64_t r = 0; r < num_right; r++) {
            if (!row[r] || !allowed[r])
                continue;
            reachable = 1;
            if (match_right[r] < 0) {
                match_right[r] = l;
                match_left[l] = r;
                matched++;
                break;
            }
        }
        if (!reachable)
            return 0;
    }
    while (matched < num_left) {
        int64_t head = 0, tail = 0, limit = UNREACHED;
        for (int64_t l = 0; l < num_left; l++) {
            scan[l] = 0;
            if (match_left[l] < 0) {
                dist[l] = 0;
                queue[tail++] = l;
            } else {
                dist[l] = UNREACHED;
            }
        }
        while (head < tail) {
            int64_t l = queue[head++];
            if (dist[l] > limit)
                break;
            const uint8_t *row = adj + l * num_right;
            for (int64_t r = 0; r < num_right; r++) {
                if (!row[r] || !allowed[r])
                    continue;
                int64_t next = match_right[r];
                if (next < 0) {
                    if (limit == UNREACHED)
                        limit = dist[l];
                } else if (dist[next] == UNREACHED) {
                    dist[next] = dist[l] + 1;
                    queue[tail++] = next;
                }
            }
        }
        if (limit == UNREACHED)
            return 0; /* no augmenting path: the maximum falls short */
        for (int64_t root = 0; root < num_left; root++) {
            if (match_left[root] >= 0 || dist[root] != 0)
                continue;
            int64_t top = 0;
            stack[0] = root;
            while (top >= 0) {
                int64_t l = stack[top];
                const uint8_t *row = adj + l * num_right;
                int64_t r = scan[l], next = -1;
                for (; r < num_right; r++) {
                    if (!row[r] || !allowed[r])
                        continue;
                    next = match_right[r];
                    if (next < 0 ||
                        (dist[next] == dist[l] + 1 && dist[next] <= limit))
                        break;
                }
                if (r == num_right) {
                    dist[l] = UNREACHED; /* dead end for this phase */
                    top--;
                    continue;
                }
                scan[l] = r + 1;
                via[top] = r;
                if (next >= 0) {
                    stack[++top] = next;
                    continue;
                }
                /* Free right node: flip the matches along the path. */
                for (int64_t t = top; t >= 0; t--) {
                    match_right[via[t]] = stack[t];
                    match_left[stack[t]] = via[t];
                }
                matched++;
                break;
            }
        }
    }
    return 1;
}

/* Run one built-in mapper over every undecided sample of a batch.
 * compat: num_samples x num_fm_rows x num_rows, closed: num_samples x
 * num_rows (both uint8 row-major).  Returns 0, or -1 on allocation
 * failure (the caller falls back to the Python replicas). */
int repro_map_builtin_batch(const uint8_t *compat, const uint8_t *closed,
                            int64_t num_samples, int64_t num_fm_rows,
                            int64_t num_rows, int64_t num_minterms,
                            int32_t mode, int32_t check_validity,
                            uint8_t *success, int64_t *backtracks,
                            uint8_t *valid) {
    /* One spare slot each so zero-sized batches still allocate. */
    size_t rows = (size_t)num_rows + 1, fm = (size_t)num_fm_rows + 1;
    uint8_t *allowed_all = malloc(rows);
    uint8_t *free_row = malloc(rows);
    uint8_t *seen = malloc(rows);
    int64_t *match_right = malloc(rows * sizeof(int64_t));
    int64_t *owner = malloc(rows * sizeof(int64_t));
    int64_t *assigned = malloc(fm * sizeof(int64_t));
    int64_t *match_left = malloc(fm * sizeof(int64_t));
    int64_t *dist = malloc(fm * sizeof(int64_t));
    int64_t *queue = malloc(fm * sizeof(int64_t));
    int64_t *scan = malloc(fm * sizeof(int64_t));
    int64_t *stack = malloc(fm * sizeof(int64_t));
    int64_t *via = malloc(fm * sizeof(int64_t));
    int status = -1;
    if (!allowed_all || !free_row || !seen || !match_right || !owner ||
        !assigned || !match_left || !dist || !queue || !scan || !stack ||
        !via)
        goto done;
    memset(allowed_all, 1, rows);

    for (int64_t s = 0; s < num_samples; s++) {
        const uint8_t *adj = compat + s * num_fm_rows * num_rows;
        const uint8_t *closed_s = closed + s * num_rows;
        success[s] = 0;
        backtracks[s] = 0;
        valid[s] = 1;

        if (mode == MODE_EXACT) {
            success[s] = (uint8_t)saturating(adj, num_fm_rows, num_rows,
                                             allowed_all, match_left,
                                             match_right, dist, queue, scan,
                                             stack, via);
            continue;
        }

        /* Greedy / hybrid: first fit with (hybrid) one-step
         * backtracking, then the output-stage saturating matching. */
        int64_t bt = 0;
        for (int64_t h = 0; h < num_rows; h++) {
            free_row[h] = closed_s[h] ? 0 : 1;
            owner[h] = -1;
        }
        for (int64_t f = 0; f < num_fm_rows; f++)
            assigned[f] = -1;
        int ok = 1;
        for (int64_t i = 0; i < num_minterms; i++) {
            const uint8_t *row = adj + i * num_rows;
            int64_t placed = -1;
            for (int64_t h = 0; h < num_rows; h++) {
                if (free_row[h] && row[h]) {
                    placed = h;
                    break;
                }
            }
            if (placed < 0 && mode == MODE_HYBRID) {
                for (int64_t h = 0; h < num_rows; h++) {
                    if (free_row[h] || !row[h])
                        continue;
                    bt++;
                    int64_t occupant = owner[h];
                    const uint8_t *orow = adj + occupant * num_rows;
                    int64_t reloc = -1;
                    for (int64_t h2 = 0; h2 < num_rows; h2++) {
                        if (free_row[h2] && orow[h2]) {
                            reloc = h2;
                            break;
                        }
                    }
                    if (reloc < 0)
                        continue;
                    owner[reloc] = occupant;
                    assigned[occupant] = reloc;
                    free_row[reloc] = 0;
                    placed = h;
                    break;
                }
            }
            if (placed < 0) {
                ok = 0;
                break;
            }
            owner[placed] = i;
            assigned[i] = placed;
            free_row[placed] = 0;
        }
        backtracks[s] = bt;
        if (!ok)
            continue;

        int64_t num_outputs = num_fm_rows - num_minterms;
        if (num_outputs > 0) {
            if (!saturating(adj + num_minterms * num_rows, num_outputs,
                            num_rows, free_row, match_left, match_right,
                            dist, queue, scan, stack, via))
                continue;
            for (int64_t o = 0; o < num_outputs; o++)
                assigned[num_minterms + o] = match_left[o];
        }
        success[s] = 1;
        if (check_validity) {
            int good = 1;
            memset(seen, 0, (size_t)num_rows);
            for (int64_t f = 0; f < num_fm_rows; f++) {
                int64_t row = assigned[f];
                if (row < 0 || seen[row] || !adj[f * num_rows + row]) {
                    good = 0;
                    break;
                }
                seen[row] = 1;
            }
            valid[s] = (uint8_t)good;
        }
    }
    status = 0;

done:
    free(allowed_all); free(free_row); free(seen); free(match_right);
    free(owner); free(assigned); free(match_left); free(dist);
    free(queue); free(scan); free(stack); free(via);
    return status;
}

/* The packed minimiser's distance-1 merge pass (see _kernels_py.py).
 * values: num_cubes x num_inputs uint8; out must hold num_cubes x
 * num_inputs.  Returns the surviving row count, or -1 on allocation
 * failure. */
int64_t repro_merge_distance_one(const uint8_t *values, int64_t num_cubes,
                                 int64_t num_inputs, uint8_t *out) {
    if (num_cubes == 0)
        return 0;
    size_t row_bytes = (size_t)num_inputs;
    uint8_t *cur = malloc((size_t)num_cubes * row_bytes);
    uint8_t *nxt = malloc((size_t)num_cubes * row_bytes);
    uint8_t *used = malloc((size_t)num_cubes);
    uint8_t *merged = malloc(row_bytes ? row_bytes : 1);
    if (!cur || !nxt || !used || !merged) {
        free(cur); free(nxt); free(used); free(merged);
        return -1;
    }
    memcpy(cur, values, (size_t)num_cubes * row_bytes);
    int64_t count = num_cubes;
    int changed = 1;
    while (changed && count > 0) {
        changed = 0;
        int64_t next_count = 0;
        memset(used, 0, (size_t)count);
        for (int64_t i = 0; i < count; i++) {
            if (used[i])
                continue;
            memcpy(merged, cur + i * num_inputs, row_bytes);
            int64_t scan_from = i + 1;
            for (;;) {
                int64_t merge_at = -1, diff_pos = -1;
                for (int64_t j = scan_from; j < count; j++) {
                    if (used[j])
                        continue;
                    const uint8_t *rj = cur + j * num_inputs;
                    int64_t distance = 0, first = -1;
                    int clash = 0;
                    for (int64_t p = 0; p < num_inputs; p++) {
                        if (rj[p] != merged[p]) {
                            distance++;
                            if (first < 0)
                                first = p;
                            if (rj[p] == DONT_CARE || merged[p] == DONT_CARE)
                                clash = 1;
                        }
                    }
                    if (!clash && distance == 1) {
                        merge_at = j;
                        diff_pos = first;
                        break;
                    }
                    if (distance == 0) {
                        used[j] = 1;
                        changed = 1;
                    }
                }
                if (merge_at < 0)
                    break;
                merged[diff_pos] = DONT_CARE;
                used[merge_at] = 1;
                changed = 1;
                scan_from = merge_at + 1;
            }
            memcpy(nxt + next_count * num_inputs, merged, row_bytes);
            next_count++;
            used[i] = 1;
        }
        uint8_t *tmp = cur;
        cur = nxt;
        nxt = tmp;
        count = next_count;
    }
    memcpy(out, cur, (size_t)count * row_bytes);
    free(cur); free(nxt); free(used); free(merged);
    return count;
}
