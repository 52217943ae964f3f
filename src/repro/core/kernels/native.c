/* Native kernel tier: whole-matrix row loops for masked SpGEMM.
 *
 * The paper's Algorithm 2 (MSA) and Section 4.1 (Inner) row loops plus the
 * count-only symbolic row, the counting sort repro.sparse orders entries
 * with (triangle counting's operand is built on it too) and its two row
 * merges (ewise_add, locate).
 *
 * The plain-mask MSA, Inner and symbolic loops and the count pass of the
 * triangle-counting operand are row-parallel (the counting sort threads by
 * input ranges instead, see there), as in the paper's Fig. 2:
 * with nthreads > 1 an OpenMP loop hands out rows in dynamic chunks (of
 * CHUNK), each thread owns an accumulator (its own slice of the scratch) and
 * row i is written at mp[i], where the mask bounds it (the paper's 1P
 * output), then compact() moves the rows down into CSR order.  A row is
 * one thread's, accumulated in expansion order, and the counters are
 * integer per-row sums, so bytes and counters do not depend on nthreads.
 * nthreads <= 1 runs the serial loop and never enters libgomp (a forked
 * child must not: the parent's thread pool did not survive the fork).
 * Built without -fopenmp, the pragmas are ignored and every loop is serial.
 * Built and loaded by native.py; see docs/kernels.md.
 *
 * Contract with the NumPy bodies (msa_kernel.py / inner_kernel.py /
 * symbolic.py), which stay the reference and the fallback:
 *   - every product is accumulated in expansion order onto a value that
 *     starts at the add identity 0.0, with a separate multiply and add
 *     (build with -ffp-contract=off), so floats are bit-identical to
 *     np.bincount / ufunc.at -- NaN sign included, see add();
 *   - rows come out column-ascending;
 *   - the counters returned in cnt[] are the same per-row sums.
 * Indices are never trusted: the Python wrapper runs repro_check on every
 * operand first, after which all accesses below are in bounds even for
 * unsorted or duplicated rows (the result is then as wrong as the
 * caller's sortedness claim, but nothing is written out of bounds).
 *
 * Scratch (state: ncols bytes, val: ncols doubles, where: ncols(A) int32;
 * nthreads of each, one per thread) is all-zero at rest and restored cell
 * by cell after every row; touched (ncols + 1 int64) is a write-before-read
 * list, and so is the MSA rows' hit buffer (HITS words on the C stack, so
 * every thread has its own).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef _OPENMP
#include <omp.h>
#define OPENMP 1
#else
#define OPENMP 0
#define omp_get_thread_num() 0
#endif

typedef int64_t i64;
#define INLINE static inline __attribute__((always_inline))

/* multiply operators of the np.add-monoid standard semirings */
enum { TIMES = 0, PAIR = 1, AND = 2, FIRST = 3, SECOND = 4 };
/* complement rows whose touched column span is under this many cells per
 * touched cell are ordered by a scan of the span instead of a sort */
#define SCAN_SPAN 64
/* accumulator cell states */
enum { EMPTY = 0, ALLOWED = 1, SET = 2, MASKED = 3 };

#define READS_A(op) ((op) != PAIR && (op) != SECOND)
#define READS_B(op) ((op) != PAIR && (op) != FIRST)
/* rows per dynamically scheduled chunk: ROWS, fewer where rows are few (16
 * chunks a thread), so a hub row or a busy core holds up one small chunk */
#define ROWS 32
#define CHUNK(n, t) ((n) < 16 * ROWS * (t) ? (n) / (16 * (t)) + 1 : ROWS)
/* offset of the calling thread's slice of a scratch array of this stride */
#define SLICE(stride) ((i64)omp_get_thread_num() * (stride))

/* 1 when the library was built with OpenMP (native.status()) */
i64 repro_openmp(void)
{
    return OPENMP;
}

/* rows at their mask offsets mp[i], counts in cp[i + 1] -> CSR order */
static i64 compact(i64 nrows, const i64 *mp, i64 *cp, i64 *cj, double *cv)
{
    i64 nnz = 0;
    cp[0] = 0;
    for (i64 i = 0; i < nrows; i++) {
        const i64 n = cp[i + 1];
        memmove(cj + nnz, cj + mp[i], (size_t)n * sizeof(i64));
        memmove(cv + nnz, cv + mp[i], (size_t)n * sizeof(double));
        cp[i + 1] = nnz += n;
    }
    return nnz;
}

INLINE double mul(const int op, double x, double y)
{
    switch (op) {
    case TIMES: return x * y;
    case PAIR: return 1.0;
    case AND: return (x != 0.0 && y != 0.0) ? 1.0 : 0.0; /* NaN is truthy */
    case FIRST: return x;
    default: return y;
    }
}

/* acc (+) p.  Where two NaNs meet, the sum keeps the accumulator's -- what
 * the hardware add behind np.bincount / np.add.at does with `acc += w` --
 * spelled out so it does not depend on how the compiler orders the operands
 * (PAIR and AND products are never NaN). */
INLINE double add(const int op, double acc, double p)
{
    return (op == PAIR || op == AND || acc == acc) ? acc + p : acc;
}

/* `body` specialised per operator: op is a compile-time constant inside */
#define DISPATCH(body, ...)                                  \
    switch (op) {                                            \
    case TIMES: return body(TIMES, __VA_ARGS__);             \
    case PAIR: return body(PAIR, __VA_ARGS__);               \
    case AND: return body(AND, __VA_ARGS__);                 \
    case FIRST: return body(FIRST, __VA_ARGS__);             \
    case SECOND: return body(SECOND, __VA_ARGS__);           \
    default: return -1;                                      \
    }

static int cmp_i64(const void *x, const void *y)
{
    i64 a = *(const i64 *)x, b = *(const i64 *)y;
    return (a > b) - (a < b);
}

/* 0 ok, 1 malformed indptr, 2 column index out of range */
i64 repro_check(i64 nrows, i64 ncols, const i64 *p, const i64 *j, i64 nnz)
{
    if (p[0] != 0 || p[nrows] != nnz)
        return 1;
    for (i64 i = 0; i < nrows; i++)
        if (p[i] > p[i + 1])
            return 1;
    int bad = 0;
    for (i64 t = 0; t < nnz; t++)
        bad |= (uint64_t)j[t] >= (uint64_t)ncols;
    return bad ? 2 : 0;
}

/* ------------------------------------------------------------------ */
/* Stable counting sort of n keys in [0, nbuckets): the one scatter   */
/* loop under CSR.from_coo / CSR.transpose and triangle counting's    */
/* operand.  order[] gets the input positions in key order, ties in   */
/* input order -- the permutation of np.argsort(kind="stable"), so    */
/* what is built from it is byte-equal to the NumPy bodies' result;   */
/* start[nbuckets + 1] gets the bucket offsets (the indptr of the     */
/* keyed axis).  Payloads ride the same pass: idst[] gets isrc[]      */
/* (int64) -- or, given rows, the nrows + 1 offsets of a CSR whose    */
/* column ids the keys are, each entry's row id -- and vdst[] gets    */
/* vsrc[] (any 8-byte value) in the new order.  order, rows, isrc and */
/* vsrc may each be NULL.  With nthreads > 1 the input is cut into    */
/* nthreads contiguous ranges: range q counts its keys into row q of  */
/* a cursor table, one prefix pass turns cell (q, k) into start[k]    */
/* plus the counts of ranges < q in bucket k, and each range scatters */
/* at its own cursors -- so ties keep input order at every count.     */
/* Threaded only where that table (nthreads * (nbuckets + 1) words)   */
/* is no larger than the keys.  Returns -1, with nothing written,     */
/* when a key is out of range or rows does not describe the keys.     */
/* ------------------------------------------------------------------ */
/* One range's pass over entries [t0, t1): count their keys into c[], */
/* or scatter them at the cursors c[].  Row by row where rows are      */
/* given; with src, row r's keys start at key[src[r]] (a row gather).  */
INLINE void bucket_range(const int scatter, i64 t0, i64 t1, const i64 *key,
                         i64 nrows, const i64 *rows, const i64 *src, i64 *c,
                         i64 *order, const i64 *isrc, i64 *idst,
                         const uint64_t *vsrc, uint64_t *vdst)
{
    i64 r = 0; /* rows: the row of entry t0 */
    while (rows && t0 < t1 && rows[r + 1] <= t0)
        r++;
    for (i64 t = t0; t < t1; r++) {
        const i64 e = rows && rows[r + 1] < t1 ? rows[r + 1] : t1;
        const i64 *k = src ? key + (src[r] - rows[r]) : key;
        for (; !scatter && t < e; t++)
            c[k[t]]++;
        for (; t < e; t++) {
            const i64 at = c[k[t]]++;
            if (order)
                order[at] = t;
            if (rows)
                idst[at] = r;
            else if (isrc)
                idst[at] = isrc[t];
            if (vsrc)
                vdst[at] = vsrc[t];
        }
    }
}

/* counted: start[] holds the bucket sizes already (read when serial) */
static void bucket_sort(const int counted, i64 n, i64 nbuckets, const i64 *key,
                        i64 nrows, const i64 *rows, const i64 *src,
                        i64 *start, i64 *order, const i64 *isrc, i64 *idst,
                        const uint64_t *vsrc, uint64_t *vdst, i64 nthreads)
{
    const i64 w = nbuckets + 1; /* one row of cursors */
    i64 nt = OPENMP && nthreads > 1 && nthreads <= n / w ? nthreads : 1;
    i64 *cur = nt > 1 ? calloc((size_t)(nt * w), sizeof(i64)) : NULL;
    if (!cur) { /* serial: start[] is the one row */
        nt = 1;
        cur = counted ? start : memset(start, 0, (size_t)w * sizeof(i64));
    }
    for (int scatter = nt == 1 && counted; scatter < 2; scatter++) {
        for (i64 k = 0, at = 0; scatter && k < w; k++)
            for (i64 q = 0; q < nt; q++) { /* cell (q, k): range q's cursor */
                const i64 m = cur[q * w + k];
                cur[q * w + k] = at;
                at += m;
            }
        if (nt > 1) {
#pragma omp parallel for num_threads(nt) schedule(static, 1)
            for (i64 q = 0; q < nt; q++)
                bucket_range(scatter, n * q / nt, n * (q + 1) / nt, key, nrows,
                             rows, src, cur + q * w, order, isrc, idst, vsrc,
                             vdst);
        } else
            bucket_range(scatter, 0, n, key, nrows, rows, src, cur, order,
                         isrc, idst, vsrc, vdst);
    }
    /* the last range's cursors stopped at their buckets' ends */
    memmove(start + 1, cur + (nt - 1) * w, (size_t)nbuckets * sizeof(i64));
    start[0] = 0;
    if (cur != start)
        free(cur);
}

i64 repro_bucket_order(i64 n, i64 nbuckets, const i64 *key, i64 nrows,
                       const i64 *rows, i64 *start, i64 *order,
                       const i64 *isrc, i64 *idst, const uint64_t *vsrc,
                       uint64_t *vdst, i64 nthreads)
{
    const i64 all[2] = {0, n}; /* without rows: one row of every key */
    if (repro_check(rows ? nrows : 1, nbuckets, rows ? rows : all, key, n))
        return -1;
    bucket_sort(0, n, nbuckets, key, nrows, rows, NULL, start, order, isrc,
                idst, vsrc, vdst, nthreads);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Triangle counting's operand L = tril(P A P^T, -1) of the pattern of */
/* the n x n CSR (p, j), new vertex i being old vertex perm[i] (a     */
/* permutation: the caller's degree order).  A count pass, then two   */
/* counting scatters and no sort.  The count pass parks each old      */
/* row's kept new column ids k = new_id[c] < i at the front of that   */
/* row's own slots of lj (a store and a conditional advance).  The    */
/* first scatter reads them in new row order (unsorted L) and builds  */
/* U = L^T, whose rows come out ascending; the second turns U back    */
/* into L, whose rows do too.  new_id: n scratch; up, lp: n + 1; uj,  */
/* lj: nnz.  Returns nnz(L); -1 / -2 where repro_check fails, -3      */
/* where a coordinate of L is stored twice (lj is then unspecified:   */
/* the caller's NumPy body raises or sums, as it does without this    */
/* loop).                                                             */
/* ------------------------------------------------------------------ */
/* The count pass over old row r (rows write disjoint lj / lp cells); */
/* `hist` counts U's row sizes up[] on the way, when serial.           */
INLINE void lower_count(const int hist, i64 r, const i64 *p, const i64 *j,
                        const i64 *new_id, i64 *up, i64 *lp, i64 *lj)
{
    const i64 i = new_id[r];
    i64 len = 0;
    for (i64 t = p[r]; t < p[r + 1]; t++) {
        const i64 k = new_id[j[t]], low = k < i;
        if (hist)
            up[k] += low;
        lj[p[r] + len] = k;
        len += low;
    }
    lp[i + 1] = len;
}

i64 repro_lower_by_degree(i64 n, const i64 *p, const i64 *j, i64 nnz,
                          const i64 *perm, i64 *new_id, i64 *up, i64 *uj,
                          i64 *lp, i64 *lj, i64 nthreads)
{
    const i64 bad = repro_check(n, n, p, j, nnz);
    const int hist = !OPENMP || nthreads <= 1;
    if (bad)
        return -bad;
    for (i64 i = 0; i < n; i++)
        new_id[perm[i]] = i;
    memset(up, 0, (size_t)(n + 1) * sizeof(i64));
    lp[0] = 0;
    if (!hist) {
#pragma omp parallel for num_threads(nthreads) \
    schedule(dynamic, CHUNK(n, nthreads))
        for (i64 r = 0; r < n; r++)
            lower_count(0, r, p, j, new_id, up, lp, lj);
    } else
        for (i64 r = 0; r < n; r++) /* in old row order */
            lower_count(1, r, p, j, new_id, up, lp, lj);
    for (i64 i = 0; i < n; i++) { /* new_id[i]: new row i's ids in lj */
        lp[i + 1] += lp[i];
        new_id[i] = p[perm[i]];
    }
    const i64 m = lp[n];
    bucket_sort(hist, m, n, lj, n, lp, new_id, up, NULL, NULL, uj, NULL, NULL,
                nthreads);
    for (i64 i = 0; i <= n; i++) /* L's row sizes */
        lp[i] = i < n ? lp[i + 1] - lp[i] : 0;
    bucket_sort(1, m, n, uj, n, up, NULL, lp, NULL, NULL, lj, NULL, NULL,
                nthreads);
    int dup = 0; /* L's rows are ascending: a stored-twice k is adjacent */
    for (i64 i = 0; i < n; i++)
        for (i64 t = lp[i] + 1; t < lp[i + 1]; t++)
            dup |= lj[t] == lj[t - 1];
    return dup ? -3 : m;
}

/* ------------------------------------------------------------------ */
/* The sparse substrate's two row merges of sorted CSRs of one shape   */
/* (repro.sparse.ops; repro_check has passed on both operands).        */
/* repro_ewise_add: the union c = a + b, row by row.  An entry one     */
/* side stores is copied bit for bit, one both store is add()'s a + b  */
/* (NaN payload of a kept) -- the bytes of the NumPy merge.  cj / cv   */
/* have room for nnz(a) + nnz(b) entries; returns nnz(c).              */
/* ------------------------------------------------------------------ */
i64 repro_ewise_add(i64 nrows, const i64 *ap, const i64 *aj, const double *av,
                    const i64 *bp, const i64 *bj, const double *bv,
                    i64 *cp, i64 *cj, double *cv)
{
    i64 n = 0;
    cp[0] = 0;
    for (i64 i = 0; i < nrows; i++) {
        i64 s = ap[i], t = bp[i];
        const i64 s1 = ap[i + 1], t1 = bp[i + 1];
        while (s < s1 && t < t1) {
            const i64 x = aj[s], y = bj[t];
            cj[n] = x < y ? x : y;
            cv[n++] = x < y ? av[s] : x > y ? bv[t] : add(TIMES, av[s], bv[t]);
            s += x <= y;
            t += y <= x;
        }
        for (; s < s1; s++, n++) {
            cj[n] = aj[s];
            cv[n] = av[s];
        }
        for (; t < t1; t++, n++) {
            cj[n] = bj[t];
            cv[n] = bv[t];
        }
        cp[i + 1] = n;
    }
    return n;
}

/* repro_locate: pos[t] = the position among a's entries of b's entry  */
/* t, or -1 where a stores none there: a two-pointer walk of each row  */
/* pair, so no row * ncols + col key that could overflow an int64.     */
i64 repro_locate(i64 nrows, const i64 *ap, const i64 *aj, const i64 *bp,
                 const i64 *bj, i64 *pos)
{
    for (i64 i = 0; i < nrows; i++)
        for (i64 s = ap[i], t = bp[i]; t < bp[i + 1]; t++) {
            while (s < ap[i + 1] && aj[s] < bj[t])
                s++;
            pos[t] = s < ap[i + 1] && aj[s] == bj[t] ? s : -1;
        }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The product loop of one MSA row, in two steps, because whether a   */
/* product meets the mask is a coin on skewed inputs (a fifth to a    */
/* third of R-MAT triangle-counting products do) and a branch on it   */
/* costs more than the product.  FILTER writes every product of the   */
/* expansion to hit[] -- its position in B and its A entry, counted   */
/* from the first A entry since the last flush, in one word -- and    */
/* advances the cursor by the state test.  APPLY walks the hits that  */
/* stayed, in buffer order = expansion order, whenever the rest of a  */
/* B row may not fit, HITS entries of A have gone by, and at the end  */
/* of the row; only a hit is multiplied, so a miss loads no value.    */
/* `complement` is a compile-time constant: it picks the state a      */
/* product misses on and appends first touches to touched[nt...] (a   */
/* store and a conditional advance: it may write one cell past the    */
/* live end).  Adds the hits applied to *flops and the products       */
/* expanded to *inserts; returns the number of first touches.         */
/* ------------------------------------------------------------------ */
#define HITS 512

INLINE i64 msa_apply(const int op, const int complement, i64 n,
                     const uint64_t *hit, const double *ax, const i64 *bj,
                     const double *bv, uint8_t *state, double *val,
                     i64 *touched, i64 nt)
{
    for (i64 h = 0; h < n; h++) {
        const i64 t = (i64)(hit[h] / HITS), c = bj[t];
        const double x = READS_A(op) ? ax[hit[h] % HITS] : 0.0;
        if (complement) {
            touched[nt] = c;
            nt += state[c] == EMPTY;
        }
        state[c] = SET;
        val[c] = add(op, val[c], mul(op, x, READS_B(op) ? bv[t] : 0.0));
    }
    return nt;
}

INLINE i64 msa_row(const int op, const int complement, i64 a0, i64 a1,
                   const i64 *aj, const double *av,
                   const i64 *bp, const i64 *bj, const double *bv,
                   uint8_t *state, double *val, i64 *touched,
                   i64 *flops, i64 *inserts)
{
    uint64_t hit[HITS];
    const uint8_t miss = complement ? MASKED : EMPTY;
    i64 n = 0, j0 = a0, nt = 0;
    for (i64 j = a0; j < a1; j++) {
        const i64 k = aj[j], b1 = bp[k + 1];
        i64 t = bp[k];
        *inserts += b1 - t;
        while (t < b1) {
            if (b1 - t > HITS - n || j - j0 >= HITS) {
                nt = msa_apply(op, complement, n, hit, av + j0, bj, bv, state,
                               val, touched, nt);
                *flops += n;
                n = 0;
                j0 = j;
            }
            /* room for the rest of the row, or the buffer is empty */
            const i64 stop = b1 - t > HITS ? t + HITS : b1;
            for (; t < stop; t++) {
                hit[n] = (uint64_t)t * HITS + (uint64_t)(j - j0);
                n += state[bj[t]] != miss;
            }
        }
    }
    *flops += n;
    return msa_apply(op, complement, n, hit, av + j0, bj, bv, state, val,
                     touched, nt);
}

/* ------------------------------------------------------------------ */
/* MSA, plain mask: set-allowed / insert / gather over the mask row.   */
/* Output needs at most nnz(M) cells, so it never runs out of room.    */
/* cnt: [0] products kept (flops), [1] products expanded (inserts)     */
/* ------------------------------------------------------------------ */
INLINE i64 msa_plain_row(const int op, i64 i,
                         const i64 *ap, const i64 *aj, const double *av,
                         const i64 *bp, const i64 *bj, const double *bv,
                         const i64 *mp, const i64 *mj,
                         uint8_t *state, double *val, i64 *cj, double *cv,
                         i64 *flops, i64 *inserts)
{
    const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
    i64 nnz = 0;
    if (a0 != a1 && m0 == m1) /* nothing allowed: only the charge */
        for (i64 j = a0; j < a1; j++)
            *inserts += bp[aj[j] + 1] - bp[aj[j]];
    if (a0 == a1 || m0 == m1)
        return 0;
    for (i64 m = m0; m < m1; m++)
        state[mj[m]] = ALLOWED;
    msa_row(op, 0, a0, a1, aj, av, bp, bj, bv, state, val, NULL, flops,
            inserts);
    for (i64 m = m0; m < m1; m++) {
        const i64 c = mj[m];
        if (state[c] == SET) { /* a sum cancelling to 0.0 stays SET */
            cj[nnz] = c;
            cv[nnz++] = val[c];
            val[c] = 0.0;
        }
        state[c] = EMPTY;
    }
    return nnz;
}

INLINE i64 msa_plain(const int op, i64 nrows, i64 ncols, i64 nthreads,
                     const i64 *ap, const i64 *aj, const double *av,
                     const i64 *bp, const i64 *bj, const double *bv,
                     const i64 *mp, const i64 *mj,
                     uint8_t *state, double *val,
                     i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    i64 nnz = 0, flops = 0, inserts = 0;
    if (OPENMP && nthreads > 1) {
#pragma omp parallel for num_threads(nthreads) \
    schedule(dynamic, CHUNK(nrows, nthreads)) reduction(+ : flops, inserts)
        for (i64 i = 0; i < nrows; i++)
            cp[i + 1] = msa_plain_row(op, i, ap, aj, av, bp, bj, bv, mp, mj,
                                      state + SLICE(ncols), val + SLICE(ncols),
                                      cj + mp[i], cv + mp[i], &flops, &inserts);
        nnz = compact(nrows, mp, cp, cj, cv);
    } else {
        cp[0] = 0;
        for (i64 i = 0; i < nrows; i++)
            cp[i + 1] = nnz += msa_plain_row(op, i, ap, aj, av, bp, bj, bv, mp,
                                             mj, state, val, cj + nnz, cv + nnz,
                                             &flops, &inserts);
    }
    cnt[0] += flops;
    cnt[1] += inserts;
    return nnz;
}

i64 repro_msa(i64 op, i64 nrows, i64 ncols, i64 nthreads,
              const i64 *ap, const i64 *aj, const double *av,
              const i64 *bp, const i64 *bj, const double *bv,
              const i64 *mp, const i64 *mj, uint8_t *state, double *val,
              i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    DISPATCH(msa_plain, nrows, ncols, nthreads, ap, aj, av, bp, bj, bv, mp, mj,
             state, val, cp, cj, cv, cnt)
}

/* ------------------------------------------------------------------ */
/* MSA, complemented mask: first-touch list per row, emitted sorted    */
/* (or re-collected by a scan where the touched span is dense).  The output */
/* size is not known up front, so the loop is resumable: it starts at  */
/* row0 with cnt[2] entries already written and returns the row it     */
/* stopped at -- nrows when done, else the row that needs cnt[3] cells */
/* of capacity (that row is restarted by the next call).               */
/* cnt: [0] flops, [1] inserts, [2] nnz written, [3] capacity needed   */
/* ------------------------------------------------------------------ */
INLINE i64 msa_compl(const int op, i64 row0, i64 nrows, i64 ncols,
                     const i64 *ap, const i64 *aj, const double *av,
                     const i64 *bp, const i64 *bj, const double *bv,
                     const i64 *mp, const i64 *mj,
                     uint8_t *state, double *val, i64 *touched,
                     i64 *cp, i64 *cj, double *cv, i64 cap, i64 *cnt)
{
    i64 nnz = cnt[2], i;
    if (row0 == 0)
        cp[0] = 0;
    for (i = row0; i < nrows; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        i64 flops = 0, inserts = 0, lo = ncols, hi = -1;
        if (a0 == a1) {
            cp[i + 1] = nnz;
            continue;
        }
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = MASKED;
        i64 nt = msa_row(op, 1, a0, a1, aj, av, bp, bj, bv, state, val, touched,
                         &flops, &inserts);
        for (i64 m = m0; m < m1; m++)
            state[mj[m]] = EMPTY;
        if (nnz + nt > cap) { /* out of room: clean up, ask for more */
            for (i64 t = 0; t < nt; t++) {
                state[touched[t]] = EMPTY;
                val[touched[t]] = 0.0;
            }
            cnt[3] = nnz + nt;
            break;
        }
        for (i64 t = 0; t < nt; t++) {
            lo = touched[t] < lo ? touched[t] : lo;
            hi = touched[t] > hi ? touched[t] : hi;
        }
        /* put the first-touch list in column order: re-collect it from the
         * state bytes of the touched span (eight at a time) when that span is
         * dense enough, else sort it */
        if (hi - lo < SCAN_SPAN * nt) {
            nt = 0;
            for (i64 c = lo; c <= hi; c++) {
                uint64_t word;
                if (c + 8 <= ncols) {
                    memcpy(&word, state + c, 8);
                    if (!word) {
                        c += 7;
                        continue;
                    }
                }
                touched[nt] = c; /* as in msa_apply: store, then advance */
                nt += state[c] != EMPTY;
            }
        } else
            qsort(touched, (size_t)nt, sizeof(i64), cmp_i64);
        for (i64 t = 0; t < nt; t++) {
            const i64 c = touched[t];
            cj[nnz] = c;
            cv[nnz++] = val[c];
            state[c] = EMPTY;
            val[c] = 0.0;
        }
        cnt[0] += flops;
        cnt[1] += inserts;
        cp[i + 1] = nnz;
    }
    cnt[2] = nnz;
    return i;
}

i64 repro_msa_complement(i64 op, i64 row0, i64 nrows, i64 ncols,
                         const i64 *ap, const i64 *aj, const double *av,
                         const i64 *bp, const i64 *bj, const double *bv,
                         const i64 *mp, const i64 *mj,
                         uint8_t *state, double *val, i64 *touched,
                         i64 *cp, i64 *cj, double *cv, i64 cap, i64 *cnt)
{
    DISPATCH(msa_compl, row0, nrows, ncols, ap, aj, av, bp, bj, bv, mp, mj,
             state, val, touched, cp, cj, cv, cap, cnt)
}

/* ------------------------------------------------------------------ */
/* Symbolic row (pattern only): exact output nonzeros per row.         */
/* Plain: set-allowed, erase-on-hit, count.  Complement: first touch.  */
/* ------------------------------------------------------------------ */
INLINE i64 symbolic_row(const int complement, i64 i, const i64 *ap,
                        const i64 *aj, const i64 *bp, const i64 *bj,
                        const i64 *mp, const i64 *mj, uint8_t *state,
                        i64 *touched)
{
    const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
    i64 count = 0, nt = 0;
    if (a0 == a1 || (!complement && m0 == m1))
        return 0;
    for (i64 m = m0; m < m1; m++)
        state[mj[m]] = complement ? MASKED : ALLOWED;
    for (i64 j = a0; j < a1; j++) {
        const i64 k = aj[j], b1 = bp[k + 1];
        for (i64 t = bp[k]; t < b1; t++) {
            const i64 c = bj[t];
            if (complement) {
                if (state[c] == EMPTY) {
                    state[c] = SET;
                    touched[nt++] = c;
                }
            } else if (state[c] == ALLOWED) {
                state[c] = EMPTY; /* erase on hit */
                count++;
            }
        }
    }
    for (i64 m = m0; m < m1; m++)
        state[mj[m]] = EMPTY;
    for (i64 t = 0; t < nt; t++)
        state[touched[t]] = EMPTY;
    return complement ? nt : count;
}

i64 repro_symbolic(i64 complement, i64 nrows, i64 ncols, i64 nthreads,
                   const i64 *ap, const i64 *aj,
                   const i64 *bp, const i64 *bj,
                   const i64 *mp, const i64 *mj,
                   uint8_t *state, i64 *touched, i64 *row_nnz)
{
    const int c = complement != 0;
    if (OPENMP && nthreads > 1) {
#pragma omp parallel for num_threads(nthreads) \
    schedule(dynamic, CHUNK(nrows, nthreads))
        for (i64 i = 0; i < nrows; i++)
            row_nnz[i] = symbolic_row(c, i, ap, aj, bp, bj, mp, mj,
                                      state + SLICE(ncols),
                                      touched + (c ? SLICE(ncols) : 0));
    } else
        for (i64 i = 0; i < nrows; i++)
            row_nnz[i] = symbolic_row(c, i, ap, aj, bp, bj, mp, mj, state,
                                      touched);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Inner: per mask nonzero (i, j), A row i against CSC column j of B.  */
/* The A row is scattered once into a dense position lookup (`where`,  */
/* ncols(A) int32, zero at rest), so each dot product walks only the   */
/* pulled column -- the work the planner prices -- and meets its       */
/* matches in ascending k.  (tp, ti, tv) are the CSC arrays of B.      */
/* cnt: [0] matched products (flops)                                   */
/* ------------------------------------------------------------------ */
/* rows [i0, i1) written from cj / cv on, cp[i + 1] = the running count */
INLINE i64 inner_span(const int op, i64 i0, i64 i1,
                      const i64 *ap, const i64 *aj, const double *av,
                      const i64 *tp, const i64 *ti, const double *tv,
                      const i64 *mp, const i64 *mj, int32_t *where,
                      i64 *cp, i64 *cj, double *cv, i64 *flops)
{
    i64 nnz = 0;
    for (i64 i = i0; i < i1; i++) {
        const i64 a0 = ap[i], a1 = ap[i + 1], m0 = mp[i], m1 = mp[i + 1];
        if (a0 == a1 || m0 == m1) {
            cp[i + 1] = nnz;
            continue;
        }
        for (i64 j = a0; j < a1; j++)
            where[aj[j]] = (int32_t)(j - a0 + 1);
        for (i64 m = m0; m < m1; m++) {
            const i64 col = mj[m], t1 = tp[col + 1];
            i64 hits = 0;
            double v = 0.0;
            for (i64 t = tp[col]; t < t1; t++) {
                const int32_t at = where[ti[t]];
                if (at) {
                    v = add(op, v, mul(op, READS_A(op) ? av[a0 + at - 1] : 0.0,
                                       READS_B(op) ? tv[t] : 0.0));
                    hits++;
                }
            }
            if (hits) { /* a mask entry no product reaches emits nothing */
                cj[nnz] = col;
                cv[nnz++] = v;
                *flops += hits;
            }
        }
        for (i64 j = a0; j < a1; j++)
            where[aj[j]] = 0;
        cp[i + 1] = nnz;
    }
    return nnz;
}

INLINE i64 inner_rows(const int op, i64 nrows, i64 ncols, i64 nthreads,
                      const i64 *ap, const i64 *aj, const double *av,
                      const i64 *tp, const i64 *ti, const double *tv,
                      const i64 *mp, const i64 *mj, int32_t *where,
                      i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    i64 nnz = 0, flops = 0;
    cp[0] = 0;
    if (OPENMP && nthreads > 1) { /* one-row spans: cp[i + 1] = its count */
#pragma omp parallel for num_threads(nthreads) \
    schedule(dynamic, CHUNK(nrows, nthreads)) reduction(+ : flops)
        for (i64 i = 0; i < nrows; i++)
            inner_span(op, i, i + 1, ap, aj, av, tp, ti, tv, mp, mj,
                       where + SLICE(ncols), cp, cj + mp[i], cv + mp[i],
                       &flops);
        nnz = compact(nrows, mp, cp, cj, cv);
    } else
        nnz = inner_span(op, 0, nrows, ap, aj, av, tp, ti, tv, mp, mj, where,
                         cp, cj, cv, &flops);
    cnt[0] += flops;
    return nnz;
}

/* ncols: of A, the stride of the where[] slices */
i64 repro_inner(i64 op, i64 nrows, i64 ncols, i64 nthreads,
                const i64 *ap, const i64 *aj, const double *av,
                const i64 *tp, const i64 *ti, const double *tv,
                const i64 *mp, const i64 *mj, int32_t *where,
                i64 *cp, i64 *cj, double *cv, i64 *cnt)
{
    DISPATCH(inner_rows, nrows, ncols, nthreads, ap, aj, av, tp, ti, tv, mp,
             mj, where, cp, cj, cv, cnt)
}
